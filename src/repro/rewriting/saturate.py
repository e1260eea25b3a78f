"""Equality saturation over whole circuits with cost-based Pareto extraction.

This generalises the term-level :mod:`repro.rewriting.egraph` (the purify
oracle) to complete :class:`~repro.core.exprhigh.ExprHigh` graphs.  Where
the destructive pipeline commits to one rewrite order and one answer,
saturation explores the closure of a circuit under a rewrite set and
extracts *all* cost-optimal variants — the SEER recipe, adapted to the
paper's dataflow rewrites:

* **States, not terms.**  Dataflow circuits are cyclic (the loop channel
  Mux → body → Branch → Mux), so they have no finite term DAG to hash-cons
  directly.  Exploration therefore works on whole-circuit *states*:
  concrete graphs reached from a seed by a derivation (a replayable
  sequence of ``(Rewrite, Match)`` steps), deduplicated by a
  name-independent Weisfeiler-Leman fingerprint (:func:`circuit_key`).

* **A real e-graph underneath.**  Every explored state is interned into a
  :class:`CircuitEGraph`: hash-consed e-nodes over node specs, a
  union-find over e-classes, and congruence closure repaired
  incrementally after each merge (egg's deferred rebuild).  Cycles are
  broken by seeding each channel with a provisional e-class derived from
  its WL colour, which makes the closure a *conservative approximation*:
  equal channels may stay in distinct classes (costing sharing, never
  soundness).  Each rewrite application unions the parent and child root
  classes, so after saturation every reachable variant of one seed lives
  in one e-class — extraction is cost-based selection inside that class.

* **Matching is the PR-2 matcher.**  E-matching runs the existing indexed
  :func:`~repro.rewriting.matcher.find_matches` with its cached per-rewrite
  plans, so every :class:`~repro.rewriting.rewrite.Rewrite` in the library
  participates unmodified.

* **Soundness via replay.**  Extracted circuits are not trusted e-graph
  artefacts: each Pareto point carries its derivation, every step of which
  is an ordinary rewrite application whose refinement obligation the
  certificate layer discharges (:func:`repro.refinement.checker.
  check_rewrite_obligation`).  Exploration can be wild; what ships is a
  replayed, certificate-checked rewrite sequence.

Exploration is *best-first*: states are expanded cheapest-first under
:func:`repro.hls.area.circuit_cost`, so rotation orbits (``fork-assoc``)
cannot starve cost-improving elimination chains, and a budget cut-off
still leaves the most promising region explored.  Everything is
deterministic — match enumeration, fresh-name generation, WL hashing and
the (cost, insertion-order) priority are all stable — so repeated runs
produce byte-identical frontiers.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Sequence

from .. import obs
from ..core.exprhigh import ExprHigh
from ..errors import SaturationLimitError
from ..hls.area import CircuitCost, circuit_cost
from .apply import apply_rewrite
from .matcher import MatchStats, find_matches
from .rewrite import Match, Rewrite

#: The strategy seam threaded through pipeline / Session / CLI.
STRATEGIES: tuple[str, ...] = ("fixpoint", "saturate")


# ---------------------------------------------------------------------------
# Name-independent circuit fingerprints (Weisfeiler-Leman refinement)
# ---------------------------------------------------------------------------


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _initial_colors(graph: ExprHigh) -> dict[str, str]:
    """Per-node seed colours: spec content plus interface-mark positions."""
    marks: dict[str, list[str]] = {}
    for index, endpoint in graph.inputs.items():
        marks.setdefault(endpoint.node, []).append(f"i{index}:{endpoint.port}")
    for index, endpoint in graph.outputs.items():
        marks.setdefault(endpoint.node, []).append(f"o{index}:{endpoint.port}")
    colors: dict[str, str] = {}
    for name, spec in graph.nodes.items():
        params = ",".join(f"{k}={v!r}" for k, v in sorted(spec.param_dict().items()))
        colors[name] = _digest(
            spec.typ,
            "|".join(spec.in_ports),
            "|".join(spec.out_ports),
            params,
            "|".join(sorted(marks.get(name, ()))),
        )
    return colors


def _refine_colors(graph: ExprHigh, colors: dict[str, str]) -> dict[str, str]:
    """One WL round: fold each node's port-labelled neighbourhood in."""
    refined: dict[str, str] = {}
    for name in graph.nodes:
        signature = [colors[name]]
        edges: list[str] = []
        for src, dst in graph.in_edges(name):
            edges.append(f"<{dst.port}|{src.port}|{colors[src.node]}")
        for src, dst in graph.out_edges(name):
            edges.append(f">{src.port}|{dst.port}|{colors[dst.node]}")
        signature.extend(sorted(edges))
        refined[name] = _digest(*signature)
    return refined


def _stable_colors(graph: ExprHigh) -> dict[str, str]:
    """Refine until the colour partition stops splitting (or |V| rounds)."""
    colors = _initial_colors(graph)
    classes = len(set(colors.values()))
    for _ in range(max(1, len(graph.nodes))):
        colors = _refine_colors(graph, colors)
        now = len(set(colors.values()))
        if now == classes:
            # One extra round past stability distinguishes same-partition
            # graphs whose edge structure differs only across classes.
            return _refine_colors(graph, colors)
        classes = now
    return colors


def circuit_key(graph: ExprHigh) -> str:
    """A node-name-independent fingerprint of a circuit.

    Two graphs that differ only by a renaming of their nodes get the same
    key; structurally different graphs get different keys up to WL's
    (negligible for these sizes) blind spot of colour-preserving
    non-isomorphisms.  Keys only *deduplicate* exploration states —
    a collision prunes a variant, it never affects soundness.
    """
    return _key_from_colors(graph, _stable_colors(graph))


def _key_from_colors(graph: ExprHigh, colors: dict[str, str]) -> str:
    io = [f"i{index}:{colors[ep.node]}:{ep.port}" for index, ep in sorted(graph.inputs.items())]
    io += [f"o{index}:{colors[ep.node]}:{ep.port}" for index, ep in sorted(graph.outputs.items())]
    return _digest(*sorted(colors.values()), "--io--", *io)


# ---------------------------------------------------------------------------
# The circuit e-graph: hash-consed e-nodes, union-find, congruence closure
# ---------------------------------------------------------------------------


class CircuitEGraph:
    """Hash-consed e-nodes over node specs with union-find e-classes.

    One e-class per *channel* (a node output port); one e-node per node
    occurrence, keyed by ``(typ, params, ordered input classes)`` with one
    output class per out port.  Cyclic graphs are admitted by seeding each
    channel with a provisional class derived from its WL colour, then
    closing the table under congruence: e-nodes whose keys collapse under
    ``find`` have their output classes unioned.  Because the WL seeds may
    keep genuinely equal channels apart, the closure is conservative — it
    under-merges, never over-merges.

    Closure is maintained incrementally with egg's deferred rebuild
    (Willsey et al., POPL 2021): every class keeps a use-list of the table
    keys naming it as a child, :meth:`union` queues the losing class's
    uses, and :meth:`rebuild` re-canonicalises only the queued keys —
    unioning the outputs of keys that now collide, which may queue more —
    until the queue is empty.  Rebuild work therefore scales with merges,
    not with table size (``repairs`` counts the keys it re-canonicalised).
    The closure of a fixed e-node set is unique and the lower id always
    stays root, so after a rebuild the table, ``find``, :attr:`enodes` and
    :attr:`eclasses` are exactly those of a full-table fixpoint sweep.

    Whole circuits intern through :meth:`add_circuit`, which returns a root
    class summarising the tuple of marked outputs; rewrite applications
    union parent and child roots (:meth:`union`), so "every variant reached
    from this seed" is literally one e-class.
    """

    def __init__(self) -> None:
        self._parent: list[int] = []
        self._uses: list[list[tuple]] = []  # per class: keys naming it as a child
        self._table: dict[tuple, tuple[int, ...]] = {}
        self._seed_class: dict[str, int] = {}
        self._pending: list[tuple] = []  # keys whose children lost a union
        self.repairs = 0  # keys re-canonicalised by rebuild()

    # -- union-find ----------------------------------------------------------

    def _fresh(self) -> int:
        self._parent.append(len(self._parent))
        self._uses.append([])
        return len(self._parent) - 1

    def find(self, cls: int) -> int:
        root = cls
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[cls] != root:  # path compression
            self._parent[cls], cls = root, self._parent[cls]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge two e-classes; the lower root wins (deterministic).

        The loser's live uses are queued for :meth:`rebuild` and moved onto
        the winner, the shorter use-list appended to the longer.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self._parent[hi] = lo
        moved = [key for key in self._uses[hi] if key in self._table]
        self._pending.extend(moved)
        kept = self._uses[lo]
        if len(moved) > len(kept):
            moved, kept = kept, moved
        kept.extend(moved)
        self._uses[lo] = kept
        self._uses[hi] = []
        return lo

    # -- interning -----------------------------------------------------------

    def _class_for_seed(self, seed: str) -> int:
        cls = self._seed_class.get(seed)
        if cls is None:
            cls = self._seed_class[seed] = self._fresh()
        return cls

    def _canonical(self, key: tuple) -> tuple:
        if key[0] == "node":
            return key[:3] + (tuple(map(self.find, key[3])),)
        return ("root", tuple(map(self.find, key[1])))

    def _insert(self, key: tuple, outputs: tuple[int, ...]) -> None:
        key = self._canonical(key)
        existing = self._table.get(key)
        if existing is None:
            self._table[key] = outputs
            for child in set(_children(key)):
                self._uses[child].append(key)
        else:
            for a, b in zip(existing, outputs):
                self.union(a, b)

    def add_circuit(self, graph: ExprHigh, colors: dict[str, str] | None = None) -> int:
        """Intern every node of *graph*; return the circuit's root class.

        *colors* are the graph's :func:`_stable_colors`, when the caller
        already computed them for :func:`circuit_key`.
        """
        if colors is None:
            colors = _stable_colors(graph)
        channel: dict[tuple[str, str], int] = {}
        for name, spec in graph.nodes.items():
            for port in spec.out_ports:
                channel[(name, port)] = self._class_for_seed(
                    _digest("chan", colors[name], port)
                )
        for name in sorted(graph.nodes, key=lambda n: colors[n]):
            spec = graph.nodes[name]
            inputs = []
            for port in spec.in_ports:
                src = graph.source_of(name, port)
                if src is None:  # boundary input: class per interface index
                    index = next(
                        (i for i, ep in graph.inputs.items()
                         if ep.node == name and ep.port == port),
                        None,
                    )
                    inputs.append(self._class_for_seed(_digest("io-in", str(index))))
                else:
                    inputs.append(self.find(channel[(src.node, src.port)]))
            params = tuple(sorted((k, repr(v)) for k, v in spec.param_dict().items()))
            key = ("node", spec.typ, params, tuple(inputs))
            self._insert(key, tuple(channel[(name, p)] for p in spec.out_ports))
        self.rebuild()
        root_inputs = tuple(
            self.find(channel[(ep.node, ep.port)])
            for _, ep in sorted(graph.outputs.items())
        )
        root = self._class_for_seed(_digest("root", *map(str, root_inputs)))
        self._insert(("root", root_inputs), (root,))
        return self.find(root)

    def rebuild(self) -> None:
        """Restore congruence: re-canonicalise the queued keys until none is left."""
        while self._pending:
            key = self._pending.pop()
            outputs = self._table.get(key)
            if outputs is None:  # already repaired through another child
                continue
            del self._table[key]
            self.repairs += 1
            self._insert(key, outputs)  # canonicalises the key

    # -- statistics ----------------------------------------------------------

    @property
    def enodes(self) -> int:
        return len(self._table)

    @property
    def eclasses(self) -> int:
        referenced: set[int] = set()
        for key, outputs in self._table.items():
            referenced.update(self.find(c) for c in _children(key))
            referenced.update(self.find(c) for c in outputs)
        return len(referenced)


def _children(key: tuple) -> tuple[int, ...]:
    """The child classes of a table key: a node's inputs, a root's marked outputs."""
    return key[3] if key[0] == "node" else key[1]


# ---------------------------------------------------------------------------
# Saturation: budget, stats, states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SaturationBudget:
    """Exploration limits; ``on_exhausted`` picks the overrun policy.

    ``"partial"`` (the default) stops exploring and extracts from whatever
    was reached — the frontier is still sound, merely less explored.
    ``"error"`` raises :class:`~repro.errors.SaturationLimitError` instead.
    """

    max_states: int = 256
    max_iterations: int = 512
    max_enodes: int = 50_000
    on_exhausted: str = "partial"

    def __post_init__(self) -> None:
        if self.on_exhausted not in ("partial", "error"):
            raise ValueError(
                f"on_exhausted must be 'partial' or 'error', got {self.on_exhausted!r}"
            )


@dataclass
class SaturationStats:
    """Counters for one saturation + extraction run (obs 'saturation')."""

    states: int = 0  # distinct circuit variants interned
    deduped: int = 0  # applications rediscovering a known variant
    enodes: int = 0
    eclasses: int = 0
    rules_fired: int = 0  # successful rewrite applications
    matches_tried: int = 0  # matcher candidate bindings
    iterations: int = 0  # states expanded
    frontier: int = 0  # Pareto points extracted
    certified_points: int = 0
    budget_exhausted: bool = False
    saturate_seconds: float = 0.0
    extract_seconds: float = 0.0
    certify_seconds: float = 0.0
    per_rule: dict[str, int] = field(default_factory=dict)

    def fire(self, rule: str) -> None:
        self.rules_fired += 1
        self.per_rule[rule] = self.per_rule.get(rule, 0) + 1

    def merge(self, other: "SaturationStats") -> None:
        self.states += other.states
        self.deduped += other.deduped
        self.enodes += other.enodes
        self.eclasses += other.eclasses
        self.rules_fired += other.rules_fired
        self.matches_tried += other.matches_tried
        self.iterations += other.iterations
        self.frontier += other.frontier
        self.certified_points += other.certified_points
        self.budget_exhausted = self.budget_exhausted or other.budget_exhausted
        self.saturate_seconds += other.saturate_seconds
        self.extract_seconds += other.extract_seconds
        self.certify_seconds += other.certify_seconds
        for name, count in other.per_rule.items():
            self.per_rule[name] = self.per_rule.get(name, 0) + count

    def to_dict(self) -> dict:
        return {
            "states": self.states,
            "deduped": self.deduped,
            "enodes": self.enodes,
            "eclasses": self.eclasses,
            "rules_fired": self.rules_fired,
            "matches_tried": self.matches_tried,
            "iterations": self.iterations,
            "frontier": self.frontier,
            "certified_points": self.certified_points,
            "budget_exhausted": self.budget_exhausted,
            "saturate_seconds": self.saturate_seconds,
            "extract_seconds": self.extract_seconds,
            "certify_seconds": self.certify_seconds,
            "per_rule": dict(sorted(self.per_rule.items())),
        }


@dataclass(frozen=True)
class DerivationStep:
    """One replayable rewrite application within a derivation."""

    rewrite: Rewrite
    match: Match


@dataclass
class CircuitState:
    """One explored circuit variant."""

    graph: ExprHigh
    cost: CircuitCost
    key: str
    order: int  # insertion index: the deterministic tie-breaker
    seed: int  # which seed graph this state derives from
    steps: tuple[DerivationStep, ...] = ()


@dataclass
class ParetoPoint:
    """One extracted (area, cycles)-optimal circuit with its provenance."""

    graph: ExprHigh
    cost: CircuitCost
    seed: int
    derivation: tuple[str, ...]  # rewrite names, in application order
    order: int
    certified: bool | None = None  # None: certification not requested

    def to_dict(self) -> dict:
        from ..dot import print_dot

        return {
            "cost": self.cost.to_dict(),
            "seed": self.seed,
            "derivation": list(self.derivation),
            "nodes": len(self.graph.nodes),
            "certified": self.certified,
            "graph_dot": print_dot(self.graph),
        }

    @staticmethod
    def from_dict(data: dict) -> "ParetoPoint":
        """Rebuild a frontier point (circuit included) from its wire dict.

        A nested type: the envelope (``schema_version``) is validated on
        the enclosing :class:`~repro.rewriting.pipeline.TransformResult`.
        """
        from ..dot import parse_dot

        return ParetoPoint(
            graph=parse_dot(data["graph_dot"]),
            cost=CircuitCost.from_dict(data["cost"]),
            seed=int(data["seed"]),
            derivation=tuple(data["derivation"]),
            order=int(data.get("order", 0)),
            certified=data.get("certified"),
        )


def saturation_rewrites(tags: int = 4) -> list[Rewrite]:
    """The default saturation rule set: structural, cost-relevant rewrites.

    Excluded on purpose: the ``pure_gen`` family (collapsing operators into
    generic ``Pure`` nodes erases their area, gaming the cost model), and
    ``split_swap`` (grows a swap ``Pure`` per application with no inverse in
    the set).  ``ooo_loop`` needs the purified shape only the pipeline
    produces, so the saturate strategy feeds the fixpoint pipeline's output
    in as a second seed instead of re-deriving it.  Any other rule list can
    be passed to :func:`saturate_graph` directly.
    """
    from .rules import combine, extra, reduction

    del tags  # reserved: tag-parametric structural rules
    return [
        combine.mux_combine(),
        combine.branch_combine(),
        combine.merge_combine(),
        reduction.split_join_elim(),
        reduction.join_split_elim(),
        reduction.fork_sink_elim(),
        reduction.pure_id_elim(),
        extra.buffer_elim(),
        extra.fork_assoc(),
        extra.merge_swap(),
    ]


def saturate_graph(
    seed: ExprHigh,
    rewrites: Sequence[Rewrite],
    budget: SaturationBudget | None = None,
    stats: SaturationStats | None = None,
    extra_seeds: Iterable[ExprHigh] = (),
) -> tuple[list[CircuitState], CircuitEGraph, SaturationStats]:
    """Explore the closure of *seed* (and *extra_seeds*) under *rewrites*.

    Best-first: the cheapest unexpanded state (by modeled time, then area,
    then insertion order) is expanded next, every rewrite match spawning a
    child state.  States are deduplicated by :func:`circuit_key`; each
    application unions the parent and child root e-classes in the returned
    :class:`CircuitEGraph`.  Runs until the space is exhausted (true
    saturation) or the budget trips — then either raises
    :class:`~repro.errors.SaturationLimitError` or returns the partial
    exploration, per ``budget.on_exhausted``.
    """
    budget = budget if budget is not None else SaturationBudget()
    stats = stats if stats is not None else SaturationStats()
    start = perf_counter()

    egraph = CircuitEGraph()
    states: list[CircuitState] = []
    seen: dict[str, int] = {}
    roots: dict[int, int] = {}  # state order -> e-class root
    heap: list[tuple[float, int, int]] = []

    def intern(graph: ExprHigh, seed_index: int, steps: tuple[DerivationStep, ...]) -> int:
        colors = _stable_colors(graph)
        key = _key_from_colors(graph, colors)
        if key in seen:
            stats.deduped += 1
            return seen[key]
        order = len(states)
        state = CircuitState(
            graph=graph,
            cost=circuit_cost(graph),
            key=key,
            order=order,
            seed=seed_index,
            steps=steps,
        )
        states.append(state)
        seen[key] = order
        roots[order] = egraph.add_circuit(graph, colors)
        stats.states += 1
        heapq.heappush(heap, (state.cost.time, state.cost.area, order))
        return order

    for seed_index, graph in enumerate([seed, *extra_seeds]):
        intern(graph, seed_index, ())

    exhausted: str | None = None
    try:
        while heap:
            if stats.iterations >= budget.max_iterations:
                exhausted = f"iteration budget ({budget.max_iterations}) exhausted"
                break
            if len(states) >= budget.max_states:
                exhausted = f"state budget ({budget.max_states}) exhausted"
                break
            if egraph.enodes >= budget.max_enodes:
                exhausted = f"e-node budget ({budget.max_enodes}) exhausted"
                break
            _, _, order = heapq.heappop(heap)
            state = states[order]
            stats.iterations += 1
            for rewrite in rewrites:
                mstats = MatchStats()
                for match in list(find_matches(state.graph, rewrite, stats=mstats)):
                    child, _ = apply_rewrite(state.graph, rewrite, match)
                    stats.fire(rewrite.name)
                    child_order = intern(
                        child, state.seed, state.steps + (DerivationStep(rewrite, match),)
                    )
                    egraph.union(roots[state.order], roots[child_order])
                    if len(states) >= budget.max_states:
                        break
                stats.matches_tried += mstats.candidates
                if len(states) >= budget.max_states:
                    break
    finally:
        stats.saturate_seconds += perf_counter() - start
        stats.enodes = egraph.enodes
        stats.eclasses = egraph.eclasses
        obs.count("saturation.states", stats.states)
        obs.count("saturation.rules_fired", stats.rules_fired)
        obs.count("saturation.congruence_repairs", egraph.repairs)
        obs.gauge("saturation.enodes", stats.enodes)
        obs.gauge("saturation.eclasses", stats.eclasses)

    if exhausted is not None:
        stats.budget_exhausted = True
        obs.count("saturation.budget_exhausted")
        if budget.on_exhausted == "error":
            raise SaturationLimitError(
                f"equality saturation stopped: {exhausted} after exploring "
                f"{stats.states} states ({stats.rules_fired} rule firings); "
                "pass a larger SaturationBudget or on_exhausted='partial'"
            )
    return states, egraph, stats


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract_pareto(
    states: Sequence[CircuitState],
    stats: SaturationStats | None = None,
) -> list[ParetoPoint]:
    """The non-dominated (area, cycles) frontier of the explored states.

    Deterministic: among states with identical cost the one interned first
    (lowest ``order``) represents the point, and the frontier is sorted by
    (cycles, area, order) — so repeated runs extract byte-identical
    circuits.
    """
    start = perf_counter()
    best_at: dict[tuple[int, int], CircuitState] = {}
    for state in states:
        axis = (state.cost.area, state.cost.cycles)
        kept = best_at.get(axis)
        if kept is None or state.order < kept.order:
            best_at[axis] = state
    frontier = [
        state
        for state in best_at.values()
        if not any(
            other.cost.dominates(state.cost) for other in best_at.values()
        )
    ]
    frontier.sort(key=lambda s: (s.cost.cycles, s.cost.area, s.order))
    points = [
        ParetoPoint(
            graph=state.graph,
            cost=state.cost,
            seed=state.seed,
            derivation=tuple(step.rewrite.name for step in state.steps),
            order=state.order,
        )
        for state in frontier
    ]
    if stats is not None:
        stats.extract_seconds += perf_counter() - start
        stats.frontier = len(points)
    obs.gauge("saturation.frontier", len(points))
    return points


def replay_derivation(seed: ExprHigh, steps: Iterable[DerivationStep]) -> ExprHigh:
    """Re-apply a derivation from its seed; reproduces the state's graph.

    Application is a pure function of ``(graph, rewrite, match)`` with
    deterministic fresh-name generation, so replaying the recorded steps
    from the same seed rebuilds the exact graph the exploration reached —
    the property that lets a certificate-checked rewrite sequence stand in
    for trusting the e-graph.
    """
    graph = seed
    for step in steps:
        graph, _ = apply_rewrite(graph, step.rewrite, step.match)
    return graph
