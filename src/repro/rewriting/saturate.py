"""Equality saturation over whole circuits with cost-based Pareto extraction.

This lifts the explore-then-extract idea of the term-level
:mod:`repro.rewriting.egraph` (the purify oracle) to complete
:class:`~repro.core.exprhigh.ExprHigh` graphs.  Where
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

* **Extraction reads the states.**  Every reached variant is kept as one
  concrete state, and extraction (:func:`extract_pareto`) is a cost-based
  selection over the explored state list.  Unlike SEER, no e-graph of
  shared e-classes stands behind it.

* **Matching is the PR-2 matcher.**  E-matching runs the existing indexed
  :func:`~repro.rewriting.matcher.find_matches` with its cached per-rewrite
  plans, so every :class:`~repro.rewriting.rewrite.Rewrite` in the library
  participates unmodified.

* **Soundness via replay.**  Extracted circuits are not trusted exploration
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
    colors = _stable_colors(graph)
    io = [f"i{index}:{colors[ep.node]}:{ep.port}" for index, ep in sorted(graph.inputs.items())]
    io += [f"o{index}:{colors[ep.node]}:{ep.port}" for index, ep in sorted(graph.outputs.items())]
    return _digest(*sorted(colors.values()), "--io--", *io)


# ---------------------------------------------------------------------------
# Saturation: budget, stats, states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SaturationBudget:
    """Exploration limits.

    A run that trips either limit stops exploring and extracts from
    whatever was reached — the frontier is still sound, merely less
    explored — and records ``budget_exhausted`` in its stats.
    """

    max_states: int = 256
    max_iterations: int = 512


@dataclass
class SaturationStats:
    """Counters for one saturation + extraction run (obs 'saturation')."""

    states: int = 0  # distinct circuit variants interned
    deduped: int = 0  # applications rediscovering a known variant
    enodes: int = 0  # total nodes over all interned states
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


def saturation_rewrites() -> list[Rewrite]:
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
) -> tuple[list[CircuitState], SaturationStats]:
    """Explore the closure of *seed* (and *extra_seeds*) under *rewrites*.

    Best-first: the cheapest unexpanded state (by modeled time, then area,
    then insertion order) is expanded next, every rewrite match spawning a
    child state.  States are deduplicated by :func:`circuit_key`.  Runs
    until the space is exhausted (true saturation) or the budget trips —
    then returns the partial exploration with ``stats.budget_exhausted``
    set.
    """
    budget = budget if budget is not None else SaturationBudget()
    stats = stats if stats is not None else SaturationStats()
    start = perf_counter()

    states: list[CircuitState] = []
    seen: set[str] = set()
    heap: list[tuple[float, int, int]] = []

    def intern(graph: ExprHigh, seed_index: int, steps: tuple[DerivationStep, ...]) -> None:
        key = circuit_key(graph)
        if key in seen:
            stats.deduped += 1
            return
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
        seen.add(key)
        stats.states += 1
        stats.enodes += len(graph.nodes)
        heapq.heappush(heap, (state.cost.time, state.cost.area, order))

    for seed_index, graph in enumerate([seed, *extra_seeds]):
        intern(graph, seed_index, ())

    try:
        while heap:
            if stats.iterations >= budget.max_iterations or len(states) >= budget.max_states:
                stats.budget_exhausted = True
                obs.count("saturation.budget_exhausted")
                break
            _, _, order = heapq.heappop(heap)
            state = states[order]
            stats.iterations += 1
            for rewrite in rewrites:
                mstats = MatchStats()
                for match in list(find_matches(state.graph, rewrite, stats=mstats)):
                    child, _ = apply_rewrite(state.graph, rewrite, match)
                    stats.fire(rewrite.name)
                    intern(child, state.seed, state.steps + (DerivationStep(rewrite, match),))
                    if len(states) >= budget.max_states:
                        break
                stats.matches_tried += mstats.candidates
                if len(states) >= budget.max_states:
                    break
    finally:
        stats.saturate_seconds += perf_counter() - start
        obs.count("saturation.states", stats.states)
        obs.count("saturation.rules_fired", stats.rules_fired)
        obs.gauge("saturation.enodes", stats.enodes)
    return states, stats


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
    for trusting the exploration.
    """
    graph = seed
    for step in steps:
        graph, _ = apply_rewrite(graph, step.rewrite, step.match)
    return graph
