"""Per-layer attribution for traced benchmark passes.

A traced pass runs with an :class:`repro.obs.InMemorySink` attached, and
with every public layer entry point wrapped — from this file, by swapping
module attributes for the duration of the pass — in a ``layer:<name>``
span.  The spans the program already records (``match``, ``apply``,
``purify:oracle``, ``sim:compile``, ``sim:run``, ``refine:*`` …) nest
inside them.  :func:`rollup` then credits every span's self time to a
layer: the layer its name maps to, else the layer of its nearest mapped
ancestor.  Self time no layer claims, plus pass time outside any span, is
``unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager

from repro import obs

#: Layer -> the public entry points timed for it, as (module, attribute).
#: A function bound by ``from X import f`` at import time is listed under
#: the importing module too, since that binding is the one its callers use.
ENTRY_POINTS = {
    "frontend": [
        ("repro.hls.frontend", "compile_program"),
        ("repro.eval.runner", "compile_program"),
    ],
    "reference": [
        ("repro.hls.ir", "run_program"),
        ("repro.eval.runner", "run_program"),
    ],
    "ooo": [
        ("repro.hls.ooo", "transform_out_of_order"),
        ("repro.eval.runner", "transform_out_of_order"),
    ],
    "buffers": [
        ("repro.hls.buffers", "place_buffers"),
        ("repro.eval.runner", "place_buffers"),
    ],
    "area": [
        ("repro.hls.area", "analyze"),
        ("repro.hls.area", "circuit_cost"),
        ("repro.eval.runner", "analyze"),
        ("repro.rewriting.pipeline", "circuit_cost"),
        ("repro.rewriting.saturate", "circuit_cost"),
    ],
    "static_sched": [
        ("repro.hls.static_sched", "schedule_program"),
        ("repro.eval.runner", "schedule_program"),
    ],
    "sim": [
        ("repro.sim.dispatch", "simulate_graph"),
        ("repro.eval.runner", "simulate_graph"),
    ],
    "interop": [
        ("repro.interop.netlist", "dumps_netlist"),
        ("repro.interop.netlist", "loads_netlist"),
        ("repro.interop.verilog", "dump_verilog"),
        ("repro.interop.verilog", "parse_verilog"),
    ],
}

#: Span-name prefix -> layer, first match wins.  Unlisted spans (``fuzz``,
#: ``transform``, ``bench:pass`` …) inherit their parent's layer.
SPAN_LAYERS = (
    ("layer:", None),  # the wrappers above: the layer is the suffix
    ("pipeline:saturate", "saturate"),
    ("phase:saturate", "saturate"),
    ("phase:extract", "saturate"),
    ("phase:certify", "saturate"),
    ("pipeline:transform", "rewriting"),
    ("phase:", "rewriting"),
    ("rewrite:", "rewriting"),
    ("match", "rewriting"),
    ("apply", "rewriting"),
    ("purify:", "rewriting"),
    ("sim:", "sim"),
    ("simulate", "sim"),
    ("refine:sat", "sat"),
    ("sat-check", "sat"),
    ("refine:", "refinement"),
    ("obligation:", "refinement"),
    ("check-obligations", "refinement"),
    ("exec:", "exec"),
    ("unit:", "exec"),
)

LAYERS = (
    "frontend", "reference", "rewriting", "saturate", "ooo", "buffers",
    "sim", "area", "static_sched", "interop", "refinement", "sat", "exec",
)

#: Span name -> per-layer metric summing the self time of those spans.
NAMED_SPANS = {
    "purify:oracle": "rewriting.purify_s",
    "apply": "rewriting.apply_s",
    "match": "rewriting.match_s",
    "sim:compile": "sim.compile_s",
    "refine:weak-sim": "refinement.search_s",
    "refine:recheck": "refinement.recheck_s",
    "refine:recheck-incremental": "refinement.recheck_s",
}


#: Always-on ``repro.obs`` counter -> per-layer metric (its per-pass delta).
COUNTERS = {
    "executor.cache_hits": "exec.cache_hits",
    "executor.cache_misses": "exec.cache_misses",
    "refinement.cert_replay_hits": "refinement.cert_replay_hits",
    "refinement.cert_recheck_failures": "refinement.recheck_failures",
    "pipeline.refusals": "rewriting.refusals",
}


def _layer_of(name: str) -> str | None:
    for prefix, layer in SPAN_LAYERS:
        if name.startswith(prefix):
            return name[len(prefix):] if layer is None else layer
    return None


def _timed(fn, span_name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with obs.span(span_name):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def recording():
    """Attach an in-memory sink and wrap every entry point in
    :data:`ENTRY_POINTS`; yields the sink.  Everything is restored on exit.

    Entering this imports every module in :data:`ENTRY_POINTS`, so enter
    it before starting a pass's clock.
    """
    tracer = obs.get_tracer()
    sink = tracer.attach(obs.InMemorySink())
    saved = []
    try:
        for layer, points in ENTRY_POINTS.items():
            for module_name, attr in points:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, _timed(original, f"layer:{layer}"))
        yield sink
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        tracer.detach(sink)


def rollup(roots, wall_seconds: float) -> dict[str, float]:
    """Per-layer self times and span-derived counts of one traced pass."""
    out = {f"{layer}.busy_s": 0.0 for layer in LAYERS}
    out.update({metric: 0.0 for metric in NAMED_SPANS.values()})
    out.update(
        {
            "unattributed_s": max(0.0, wall_seconds - sum(r.seconds for r in roots)),
            "sim.cycles": 0,
            "sim.tokens_fired": 0,
            "rewriting.matches_tried": 0,
            "rewriting.rewrites_applied": 0,
        }
    )

    def visit(span, inherited):
        layer = _layer_of(span.name) or inherited
        own = span.self_seconds
        if layer is None:
            out["unattributed_s"] += own
        else:
            out[f"{layer}.busy_s"] += own
        named = NAMED_SPANS.get(span.name)
        if named is not None:
            out[named] += own
        if span.name == "sim:run":
            out["sim.cycles"] += int(span.attrs.get("cycles", 0))
            out["sim.tokens_fired"] += int(span.attrs.get("tokens_fired", 0))
        elif span.name.startswith("rewrite:"):
            out["rewriting.matches_tried"] += int(span.attrs.get("matches_tried", 0))
            out["rewriting.rewrites_applied"] += int(bool(span.attrs.get("applied")))
        for child in span.children:
            visit(child, layer)

    for root in roots:
        visit(root, None)
    return out
