"""Differential oracle: incremental congruence closure vs the full rebuild.

:class:`~repro.rewriting.saturate.CircuitEGraph` keeps its hash-cons table
congruence-closed incrementally (use-lists plus a deferred repair queue).
:class:`FullRebuildEGraph` below is the original implementation, which
re-canonicalises the *whole* table after every interned circuit until a
sweep finds nothing to merge.  The closure of a fixed e-node set is unique
and both keep the lower class id as root, so the two must agree exactly.

The property interns exploration states of the library kernels (taken
from small-budget saturation runs) in a random order, randomly interleaved
with unions of circuit roots and of classes some e-node names as a
child (which propagate through congruence), and after every
step checks the same ``find`` partition, ``enodes`` and ``eclasses`` — and
that a full rebuild run over the incremental table changes nothing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import BENCHMARKS, load_benchmark
from repro.components import default_environment
from repro.core.exprhigh import ExprHigh
from repro.hls.frontend import compile_program
from repro.rewriting.saturate import (
    CircuitEGraph,
    SaturationBudget,
    _children,
    _digest,
    _stable_colors,
    saturate_graph,
    saturation_rewrites,
)


class FullRebuildEGraph:
    """The reference: congruence by sweeping the whole table to fixpoint."""

    def __init__(self) -> None:
        self._parent: list[int] = []
        self._table: dict[tuple, tuple[int, ...]] = {}
        self._seed_class: dict[str, int] = {}

    def _fresh(self) -> int:
        self._parent.append(len(self._parent))
        return len(self._parent) - 1

    def find(self, cls: int) -> int:
        root = cls
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[cls] != root:
            self._parent[cls], cls = root, self._parent[cls]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self._parent[hi] = lo
        return lo

    def _class_for_seed(self, seed: str) -> int:
        cls = self._seed_class.get(seed)
        if cls is None:
            cls = self._seed_class[seed] = self._fresh()
        return cls

    def _insert(self, key: tuple, outputs: tuple[int, ...]) -> None:
        existing = self._table.get(key)
        if existing is None:
            self._table[key] = outputs
        else:
            for a, b in zip(existing, outputs):
                self.union(a, b)

    def add_circuit(self, graph: ExprHigh) -> int:
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
                if src is None:
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
        self._congruence()
        root_inputs = tuple(
            self.find(channel[(ep.node, ep.port)])
            for _, ep in sorted(graph.outputs.items())
        )
        root = self._class_for_seed(_digest("root", *map(str, root_inputs)))
        self._insert(("root", root_inputs), (root,))
        return self.find(root)

    def _congruence(self) -> None:
        for _ in range(len(self._parent) + 1):
            rebuilt: dict[tuple, tuple[int, ...]] = {}
            changed = False
            for key, outputs in self._table.items():
                if key[0] == "node":
                    _, typ, params, inputs = key
                    key = ("node", typ, params, tuple(self.find(c) for c in inputs))
                else:
                    key = ("root", tuple(self.find(c) for c in key[1]))
                outputs = tuple(self.find(c) for c in outputs)
                existing = rebuilt.get(key)
                if existing is None:
                    rebuilt[key] = outputs
                else:
                    for a, b in zip(existing, outputs):
                        if self.find(a) != self.find(b):
                            self.union(a, b)
                            changed = True
            self._table = rebuilt
            if not changed:
                return

    @property
    def enodes(self) -> int:
        return len(self._table)

    @property
    def eclasses(self) -> int:
        referenced: set[int] = set()
        for key, outputs in self._table.items():
            children = key[3] if key[0] == "node" else key[1]
            referenced.update(self.find(c) for c in children)
            referenced.update(self.find(c) for c in outputs)
        return len(referenced)


_STATES: dict[str, list[ExprHigh]] = {}


def exploration_states(name: str) -> list[ExprHigh]:
    """The graphs a small-budget saturation of kernel *name* explores."""
    if name not in _STATES:
        env = default_environment()
        ck = compile_program(load_benchmark(name), env).kernels[0]
        states, _, _ = saturate_graph(
            ck.graph,
            saturation_rewrites(tags=ck.mark.tags),
            budget=SaturationBudget(max_states=10, max_iterations=20),
        )
        _STATES[name] = [state.graph for state in states]
    return _STATES[name]


def partition(egraph) -> list[int]:
    return [egraph.find(c) for c in range(len(egraph._parent))]


def assert_agree(incremental: CircuitEGraph, reference: FullRebuildEGraph) -> None:
    assert partition(incremental) == partition(reference)
    assert incremental.enodes == reference.enodes
    assert incremental.eclasses == reference.eclasses
    # A full sweep over the incremental table finds it already closed.
    sweep = FullRebuildEGraph()
    sweep._parent = list(incremental._parent)
    sweep._table = dict(incremental._table)
    sweep._congruence()
    assert partition(sweep) == partition(incremental)
    assert set(sweep._table) == set(incremental._table)


# An operation: ("intern", state) | ("union-roots", i, j) | ("union", i, j).
# Indices are reduced modulo what exists when the step runs: interned
# roots for "union-roots", classes named as a child for "union".
_OPS = st.one_of(
    st.tuples(st.just("intern"), st.integers(0, 63)),
    st.tuples(st.just("union-roots"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("union"), st.integers(0, 4095), st.integers(0, 4095)),
)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(BENCHMARKS)),
    ops=st.lists(_OPS, min_size=1, max_size=20),
)
def test_incremental_closure_matches_full_rebuild(name, ops):
    graphs = exploration_states(name)
    incremental, reference = CircuitEGraph(), FullRebuildEGraph()
    roots: list[int] = []
    for op in ops:
        if op[0] == "intern" or not roots:
            graph = graphs[op[1] % len(graphs)] if op[0] == "intern" else graphs[0]
            root = incremental.add_circuit(graph)
            assert root == reference.add_circuit(graph)
            roots.append(root)
        elif op[0] == "union-roots":
            a, b = roots[op[1] % len(roots)], roots[op[2] % len(roots)]
            assert incremental.union(a, b) == reference.union(a, b)
        else:  # two classes some e-node names as a child: merges propagate
            children = sorted(
                {incremental.find(c) for key in incremental._table for c in _children(key)}
            )
            a, b = children[op[1] % len(children)], children[op[2] % len(children)]
            assert incremental.union(a, b) == reference.union(a, b)
            incremental.rebuild()
            reference._congruence()
        assert_agree(incremental, reference)
