"""Property: saturation dominates the fixpoint pipeline and stays replayable.

Three laws, fuzzed across every built-in benchmark kernel and a range of
exploration budgets:

* **Dominance** — the best extracted Pareto point never models worse than
  the destructive fixpoint circuit (the saturate strategy seeds
  exploration with the fixpoint output, so this holds by construction and
  any violation is an extraction or cost-model bug).
* **Frontier shape** — extracted points are mutually non-dominated and
  sorted by (cycles, area); determinism means a repeated run extracts
  identical costs and derivations.
* **Replayability** — every explored state's recorded derivation, replayed
  from its seed through ordinary rewrite application, reproduces a graph
  with the same name-independent fingerprint.  This is the property that
  lets certificate-checked rewrite sequences stand in for trusting the
  e-graph.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import BENCHMARKS, load_benchmark
from repro.components import default_environment
from repro.hls.frontend import compile_program
from repro.rewriting.pipeline import GraphitiPipeline
from repro.rewriting.saturate import (
    SaturationBudget,
    circuit_key,
    replay_derivation,
    saturate_graph,
    saturation_rewrites,
)

_COMPILED: dict[str, object] = {}


def compiled_kernel(name):
    """Benchmarks are immutable inputs; compile each once per process."""
    if name not in _COMPILED:
        env = default_environment()
        _COMPILED[name] = (env, compile_program(load_benchmark(name), env).kernels[0])
    return _COMPILED[name]


@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from(sorted(BENCHMARKS)),
    max_states=st.integers(min_value=4, max_value=48),
)
def test_best_point_dominates_fixpoint_and_frontier_is_sound(name, max_states):
    env, ck = compiled_kernel(name)
    budget = SaturationBudget(max_states=max_states, max_iterations=2 * max_states)
    result = GraphitiPipeline(env, strategy="saturate", budget=budget).transform_kernel(
        ck.graph, ck.mark
    )
    assert result.pareto, "saturation always explores at least the seed"
    assert result.best_cost.time <= result.fixpoint_cost.time
    costs = [p.cost for p in result.pareto]
    assert costs == sorted(costs, key=lambda c: (c.cycles, c.area))
    for a in costs:
        assert not any(b.dominates(a) for b in costs)
    rerun = GraphitiPipeline(env, strategy="saturate", budget=budget).transform_kernel(
        ck.graph, ck.mark
    )
    assert [p.cost for p in rerun.pareto] == costs
    assert [p.derivation for p in rerun.pareto] == [p.derivation for p in result.pareto]


@settings(max_examples=6, deadline=None)
@given(
    name=st.sampled_from(sorted(BENCHMARKS)),
    max_states=st.integers(min_value=6, max_value=32),
)
def test_every_derivation_replays_to_its_state(name, max_states):
    _, ck = compiled_kernel(name)
    states, _ = saturate_graph(
        ck.graph,
        saturation_rewrites(),
        budget=SaturationBudget(max_states=max_states, max_iterations=2 * max_states),
    )
    assert states and not states[0].steps, "the seed itself is always state zero"
    for state in states:
        if state.steps:
            replayed = replay_derivation(states[0].graph, state.steps)
            assert circuit_key(replayed) == state.key
