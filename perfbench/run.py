"""Benchmark of the Graphiti pipeline: one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload paper_flows --seed 0 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen): ``paper_flows``,
``fuzz_corpus``, ``refine``, ``saturate``.  A run times several set-ups in
fresh interpreters (``setup_s``), then runs a fixed number of passes of the
workload — ``--seconds`` divided by the workload's nominal pass time, at
least one — in this process with ``jobs=1``, and checks every pass's
outputs against ``perfbench/expected.json`` and the reference interpreter.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs an untimed warm-up pass, then alternates traced and
untraced passes, and reports the per-layer metrics of the traced ones
(see ``tracing.py``); ``trace.overhead_s`` is the traced pass median minus
the untraced one.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without a
``src/repro`` tree beside ``perfbench/`` the command exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
FUZZ_SEED_DEFAULT = 0
FUZZ_SEED_HELDOUT = 1

PER_LAYER = (
    "frontend.busy_s", "frontend.nodes", "reference.busy_s",
    "rewriting.busy_s", "rewriting.purify_s", "rewriting.apply_s", "rewriting.match_s",
    "rewriting.rewrites_applied", "rewriting.matches_tried", "rewriting.useful_ratio",
    "rewriting.refusals",
    "saturate.busy_s", "saturate.states", "saturate.enodes", "saturate.rules_fired",
    "saturate.derived_points", "saturate.useful_ratio", "saturate.pick_matches_sim",
    "ooo.busy_s", "buffers.busy_s",
    "sim.busy_s", "sim.compile_s", "sim.cycles", "sim.tokens_fired", "sim.cycles_per_s",
    "sim.graphiti_cycles_geomean",
    "area.busy_s", "area.graphiti_luts_geomean", "area.graphiti_exec_ns_geomean",
    "static_sched.busy_s", "interop.busy_s",
    "refinement.busy_s", "refinement.search_s", "refinement.recheck_s",
    "refinement.verdict_p50_s", "refinement.verdict_max_s",
    "refinement.cert_replay_hits", "refinement.recheck_failures",
    "sat.busy_s", "sat.agreed",
    "exec.busy_s", "exec.cache_hits", "exec.cache_misses",
    "unattributed_s", "trace.overhead_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("exec_ns_geomean"):
        return "ns"
    if metric.endswith(("useful_ratio", "pick_matches_sim")):
        return "ratio"
    return "count"


def _import_repro():
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")
    return repro


def build_workload(name: str, size: str, seed: int, fuzz_seed: int, expected_path: str):
    """Construct one workload: the set-up that ``setup_s`` times."""
    _import_repro()
    import workloads

    expected = json.loads(Path(expected_path).read_text())
    cls = workloads.WORKLOADS[name]
    extra = {"fuzz_seed": fuzz_seed} if cls is workloads.FuzzCorpus else {}
    return cls(expected, size, seed, WORKDIR, **extra)


def setup_seconds(name: str, size: str, seed: int, fuzz_seed: int, expected_path: str) -> float:
    """Import repro and build the workload; seconds at reference speed.

    Runs in a fresh interpreter (see :func:`time_setup`), so the imports
    are cold the way a user's first call finds them.
    """
    from speed import SpeedProbe

    probe = SpeedProbe(interval=0.02)
    start = perf_counter()
    with probe:
        build_workload(name, size, seed, fuzz_seed, expected_path).close()
    return probe.normalise(perf_counter() - start)


def time_setup(args) -> float:
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
        f"print(run.setup_seconds({args.workload!r}, {args.size!r}, {args.seed}, "
        f"{args.fuzz_seed}, {args.expected!r}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, stdout=subprocess.PIPE, text=True
    )
    return float(done.stdout.split()[-1])


def _git(*argv: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, passes: int) -> dict:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "workload": args.workload,
        "seed": args.seed,
        "fuzz_seed": args.fuzz_seed,
        "size": args.size,
        "passes": passes,
        "jobs": 1,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean_rows(rows: list[dict]) -> dict:
    keys = {key for row in rows for key in row}
    return {key: sum(row.get(key, 0) for row in rows) / len(rows) for key in keys}


def per_layer(layer_rows, traced_walls, untraced_walls) -> dict:
    row = {name: 0.0 for name in PER_LAYER}
    if layer_rows:
        row.update(_mean_rows(layer_rows))
    if row["sim.busy_s"]:
        row["sim.cycles_per_s"] = row["sim.cycles"] / row["sim.busy_s"]
    if row["rewriting.matches_tried"]:
        row["rewriting.useful_ratio"] = row["rewriting.rewrites_applied"] / row["rewriting.matches_tried"]
    if traced_walls and untraced_walls:
        row["trace.overhead_s"] = _median(traced_walls) - _median(untraced_walls)
    return {name: row[name] for name in PER_LAYER}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_flows", "fuzz_corpus", "refine", "saturate"))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the kernels and obligations of a pass")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measurement budget; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fuzz-seed", type=int, default=FUZZ_SEED_DEFAULT,
                        help=f"fuzz corpus seed; {FUZZ_SEED_HELDOUT} is held out "
                        "for re-checking a claim on a corpus it was not tuned on")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' shrinks every workload for a smoke test")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="expected-outcomes file")
    return parser.parse_args(argv)


def _at_reference(row: dict, speed: float) -> dict:
    """Scale a pass's times (``*_s``) and rates (``*_per_s``) to reference speed."""
    scaled = {}
    for name, value in row.items():
        if name.endswith("_per_s"):
            value = value / speed
        elif name.endswith("_s"):
            value = value * speed
        scaled[name] = value
    return scaled


def run_pass(workload, traced: bool):
    """One pass: ``(outputs, wall seconds, speed, root spans or None)``."""
    import tracing
    from repro import obs
    from speed import SpeedProbe

    if not traced:
        with SpeedProbe() as probe:
            start = perf_counter()
            out = workload.run_pass()
            seconds = perf_counter() - start
        return out, seconds, probe.speed, None
    with tracing.recording() as sink, SpeedProbe() as probe:
        start = perf_counter()
        with obs.span("bench:pass"):
            out = workload.run_pass()
        seconds = perf_counter() - start
    return out, seconds, probe.speed, sink.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        _import_repro()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    from repro import obs
    from workloads import Checks

    repeats = SETUP_REPEATS if args.size == "full" else 1
    setups = [time_setup(args) for _ in range(repeats)]
    workload = build_workload(args.workload, args.size, args.seed, args.fuzz_seed, args.expected)
    passes = max(1, int(args.seconds // workload.nominal_s))
    if args.trace:
        passes = max(2, passes) + 1  # pass 0 is an untimed warm-up

    checks = Checks()
    walls, traced_walls, layer_rows, outcome_rows, stage_rows = [], [], [], [], []
    first = None
    print(f"perfbench {args.workload}: {passes} passes, seed {args.seed}, trace {args.trace}")
    try:
        for index in range(passes):
            traced = bool(args.trace) and index % 2 == 1
            label = "warm-up" if args.trace and index == 0 else ("traced" if traced else "timed")
            before = dict(obs.get_tracer().counters)
            start = perf_counter()
            try:
                out, seconds, speed, spans = run_pass(workload, traced)
            except Exception:
                traceback.print_exc()
                if not walls:  # a crash still reports how long it ran
                    walls.append(perf_counter() - start)
                break
            reference_s = seconds * speed
            print(f"  pass {index}: {seconds:.3f} s wall, speed {speed:.3f}, "
                  f"{reference_s:.3f} s at reference speed ({label})")
            if traced:
                row = tracing.rollup(spans, seconds)
                after = obs.get_tracer().counters
                for counter, metric in tracing.COUNTERS.items():
                    row[metric] = after.get(counter, 0) - before.get(counter, 0)
                row.update(workload.outcome(out))
                layer_rows.append(_at_reference(row, speed))
                traced_walls.append(reference_s)
            elif label == "timed":
                walls.append(reference_s)
            stage_rows.append(_at_reference(workload.stages(out), speed))
            workload.check(out, checks, first)
            if first is None:
                first = out
    finally:
        workload.close()
        shutil.rmtree(WORKDIR, ignore_errors=True)

    planned = workload.planned_checks(passes)
    if checks.attempted < planned:  # a crash fails every check it skipped
        checks.failed += planned - checks.attempted
        checks.attempted = planned

    if args.trace:
        metrics = per_layer(layer_rows, traced_walls, walls)
    else:
        metrics = {
            "setup_s": _median(setups),
            "wall_s": _median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    print(f"  setup_s = {_median(setups):.4f} s (median of {len(setups)} fresh set-ups)")
    print(f"  wall_s = {_median(walls):.4f} s (median of {len(walls)} untraced passes)")
    for name, value in sorted(_mean_rows(stage_rows).items()):
        print(f"  stage {name} = {value:.4f} {unit_of(name)} (mean of {len(stage_rows)} passes)")
    if first is not None:
        for name, value in sorted(workload.outcome(first).items()):
            print(f"  outcome {name} = {value} {unit_of(name)}")
    if args.trace:
        base = _median(traced_walls)
        for name in PER_LAYER:
            if name.endswith("busy_s") or name == "unattributed_s":
                share = 100.0 * metrics[name] / base if base else 0.0
                print(f"  layer {name} = {metrics[name]:.4f} s ({share:.1f}% of the {base:.3f} s traced pass)")
    print(f"  checks: {checks.attempted} attempted, {checks.failed} failed")
    for failure in checks.failures[:20]:
        print(f"  FAILED: {failure}")
    print("env " + json.dumps(environment(args, passes), sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
