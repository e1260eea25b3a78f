"""Removed rewriting surfaces stay removed.

Saturation no longer interns its states into a circuit e-graph, and the
rewrite fixpoint no longer keeps a dirty-region worklist beside its
whole-graph scan.  These tests pin that each knob, export and counter that
existed only for those two paths is gone, and that ``enodes`` keeps its
key with its new meaning: the total node count over all explored states.
"""

import pytest

from repro.components import default_environment, pure
from repro.core import ExprHigh
from repro.hls.frontend import compile_program
from repro.obs.core import Tracer, use_tracer
from repro.rewriting.engine import EngineStats, RewriteEngine
from repro.rewriting.matcher import find_matches, first_match
from repro.rewriting.pipeline import GraphitiPipeline
from repro.rewriting.rules.pure_gen import pure_compose
from repro.rewriting.saturate import (
    SaturationBudget,
    SaturationStats,
    saturate_graph,
    saturation_rewrites,
)

from .test_saturate import gcd_program


@pytest.fixture(scope="module")
def gcd_kernel():
    return compile_program(gcd_program(), default_environment()).kernels[0]


def small_budget():
    return SaturationBudget(max_states=12, max_iterations=24)


class TestNoCircuitEGraph:
    def test_not_exported(self):
        import repro.rewriting as rewriting
        import repro.rewriting.saturate as saturate

        assert not hasattr(rewriting, "CircuitEGraph")
        assert "CircuitEGraph" not in rewriting.__all__
        assert not hasattr(saturate, "CircuitEGraph")

    def test_budget_has_no_enode_limit(self):
        with pytest.raises(TypeError):
            SaturationBudget(max_enodes=10)

    def test_stats_have_no_eclasses(self):
        assert "eclasses" not in SaturationStats().to_dict()
        with pytest.raises(TypeError):
            SaturationStats(eclasses=1)

    def test_saturation_rewrites_takes_no_tags(self):
        with pytest.raises(TypeError):
            saturation_rewrites(tags=2)

    def test_saturate_graph_returns_states_and_stats(self, gcd_kernel):
        result = saturate_graph(gcd_kernel.graph, saturation_rewrites(), budget=small_budget())
        assert len(result) == 2
        states, stats = result
        assert isinstance(stats, SaturationStats)
        assert stats.states == len(states)

    def test_enodes_is_the_total_node_count_of_the_states(self, gcd_kernel):
        states, stats = saturate_graph(
            gcd_kernel.graph, saturation_rewrites(), budget=small_budget()
        )
        assert stats.enodes == sum(len(state.graph.nodes) for state in states) > 0
        assert stats.to_dict()["enodes"] == stats.enodes

    def test_no_congruence_metrics(self, gcd_kernel):
        with use_tracer(Tracer()) as tracer:
            _, stats = saturate_graph(
                gcd_kernel.graph, saturation_rewrites(), budget=small_budget()
            )
        assert "saturation.congruence_repairs" not in tracer.counters
        assert "saturation.eclasses" not in tracer.gauges
        assert tracer.gauges["saturation.enodes"] == stats.enodes


class TestNoWorklist:
    def test_engine_has_no_worklist_switch(self):
        with pytest.raises(TypeError):
            RewriteEngine().apply_exhaustively(ExprHigh(), [pure_compose()], use_worklist=True)

    def test_pipeline_has_no_worklist_switch(self):
        with pytest.raises(TypeError):
            GraphitiPipeline(default_environment(), use_worklist=False)

    def test_matching_takes_no_anchors(self):
        graph = ExprHigh()
        graph.add_node("p", pure("incr"))
        rewrite = pure_compose()
        with pytest.raises(TypeError):
            RewriteEngine().apply_once(graph, rewrite, anchors=["p"])
        with pytest.raises(TypeError):
            list(find_matches(graph, rewrite, anchors=["p"]))
        with pytest.raises(TypeError):
            first_match(graph, rewrite, anchors=["p"])

    def test_engine_stats_have_no_scan_counters(self):
        stats = EngineStats()
        assert not hasattr(stats, "full_scans") and not hasattr(stats, "worklist_scans")
        assert {"full_scans", "worklist_scans"}.isdisjoint(stats.to_dict())

    def test_removed_helpers(self):
        assert not hasattr(ExprHigh, "adjacent_nodes")
        assert not hasattr(RewriteEngine, "_dirty_region")
        assert not hasattr(RewriteEngine, "matches")

