"""The equality-saturation backend: frontier quality and exploration cost.

Run standalone (``python benchmarks/bench_egraph.py``) to measure, for every
built-in benchmark kernel,

* the **fixpoint baseline** — modeled (area, cycles) cost of the
  destructive pipeline's output,
* the **saturate strategy** — the extracted Pareto frontier, its best-cost
  point, and the exploration counters (states, ``enodes`` — the total
  node count over all explored states — rule firings, wall time),
* **certification** — a cold run with obligation checking populates the
  certificate cache; a warm rerun must re-validate every extracted
  circuit's obligations through the certificate recheck path,

and append an entry to ``benchmarks/BENCH_egraph.json``.

``--guard`` is the CI mode; it exits 1 unless

* the best extracted point costs no more (modeled time) than the fixpoint
  circuit on **every** kernel,
* the frontier has >= 2 points on >= 2 kernels,
* every extracted circuit is certified on both the cold and the warm run,
* ``repro transform --strategy saturate`` exits 0 on a generated GCD
  kernel and ``--strategy bogus`` exits 2 with a named error.
"""


def _budget():
    from repro.rewriting.saturate import SaturationBudget

    return SaturationBudget(max_states=128, max_iterations=256)


def _kernels(session):
    from repro.benchmarks import BENCHMARKS, load_benchmark
    from repro.hls.frontend import compile_program

    for name in BENCHMARKS:
        yield name, compile_program(load_benchmark(name), session.env).kernels[0]


def collect_measurements(cache_dir: str) -> dict:
    """Cold certified saturate run per kernel, then a warm recheck pass."""
    from time import perf_counter

    from repro.api import Session

    results: dict[str, dict] = {}
    for phase in ("cold", "warm"):
        session = Session(cache_dir=cache_dir, check_obligations=True)
        for name, ck in _kernels(session):
            start = perf_counter()
            outcome = session.transform(
                graph=ck.graph, mark=ck.mark, strategy="saturate", budget=_budget()
            )
            seconds = perf_counter() - start
            entry = results.setdefault(
                name,
                {
                    "fixpoint": outcome.fixpoint_cost.to_dict(),
                    "best": outcome.best_cost.to_dict(),
                    "frontier": len(outcome.pareto),
                    "refused": not outcome.transformed,
                    "derived_points": sum(1 for p in outcome.pareto if p.derivation),
                    "saturation": {
                        key: outcome.saturation[key]
                        for key in (
                            "states",
                            "enodes",
                            "rules_fired",
                            "iterations",
                            "budget_exhausted",
                        )
                    },
                },
            )
            entry[f"{phase}_seconds"] = round(seconds, 3)
            entry[f"{phase}_certified"] = [p.certified for p in outcome.pareto]
            if phase == "warm":
                # Determinism regression: the warm frontier must be
                # byte-identical to the cold one (same costs, same order).
                assert entry["frontier"] == len(outcome.pareto), name
                assert entry["best"] == outcome.best_cost.to_dict(), name
    return results


def measure_cli(tmp_dir: str) -> dict:
    """Subprocess checks: saturate exits 0, an unknown strategy exits 2."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import numpy as np

    from repro.components import default_environment
    from repro.dot import print_dot
    from repro.hls.frontend import compile_program
    from repro.hls.ir import BinOp, DoWhile, Kernel, Load, OuterLoop, Program, StoreOp, UnOp, Var

    loop = DoWhile(
        "gcd",
        ("a", "b"),
        {"a": Var("b"), "b": BinOp("mod", Var("a"), Var("b"))},
        UnOp("ne0", Var("b")),
        ("a",),
    )
    kernel = Kernel(
        "gcd",
        loop,
        (OuterLoop("i", 2),),
        {"a": Load("x", Var("i")), "b": Load("y", Var("i"))},
        (StoreOp("out", Var("i"), Var("a")),),
        tags=2,
    )
    program = Program(
        "gcd",
        {"x": np.array([12, 9]), "y": np.array([8, 6]), "out": np.zeros(2)},
        [kernel],
    )
    ck = compile_program(program, default_environment()).kernels[0]
    dot = Path(tmp_dir) / "gcd.dot"
    dot.write_text(print_dot(ck.graph))
    mark = ck.mark
    base = [
        sys.executable, "-m", "repro.cli", "transform", str(dot),
        "--mux", mark.mux_nodes[0], "--mux", mark.mux_nodes[1],
        "--branch", mark.branch_nodes[0], "--branch", mark.branch_nodes[1],
        "--init", mark.init_node, "--cond-fork", mark.cond_fork,
        "--driver", mark.driver, "--collector", mark.collector,
        "--tags", "2", "--no-cache",
        "-o", str(Path(tmp_dir) / "out.dot"),
    ]
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep * bool(env.get("PYTHONPATH", "")) + env.get("PYTHONPATH", "")
    saturate = subprocess.run(
        base + ["--strategy", "saturate", "--pareto"],
        capture_output=True, text=True, env=env,
    )
    bogus = subprocess.run(
        base + ["--strategy", "bogus"], capture_output=True, text=True, env=env
    )
    return {
        "saturate_exit": saturate.returncode,
        "bogus_exit": bogus.returncode,
        "bogus_names_error": "--strategy must be one of" in bogus.stderr,
    }


def _append_history(entry: dict) -> None:
    import json
    from pathlib import Path

    out = Path(__file__).with_name("BENCH_egraph.json")
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(entry)
    out.write_text(json.dumps(history, indent=2) + "\n")
    print(json.dumps(entry, indent=2))


def main(argv=None) -> int:
    import argparse
    import tempfile

    from repro._version import __version__

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--guard",
        action="store_true",
        help="exit 1 unless the frontier and cost acceptance criteria hold",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp_dir:
        measurements = collect_measurements(tmp_dir)
        cli = measure_cli(tmp_dir)
    _append_history(
        {"tool_version": __version__, "kernels": measurements, "cli": cli}
    )

    if args.guard:
        failures = []
        for name, row in measurements.items():
            if row["best"]["time"] > row["fixpoint"]["time"]:
                failures.append(
                    f"{name}: best time {row['best']['time']} exceeds "
                    f"fixpoint {row['fixpoint']['time']}"
                )
            for phase in ("cold", "warm"):
                flags = row[f"{phase}_certified"]
                if not flags or not all(flags):
                    failures.append(f"{name}: {phase} run has uncertified points {flags}")
        rich = [name for name, row in measurements.items() if row["frontier"] >= 2]
        if len(rich) < 2:
            failures.append(f"frontier >= 2 on only {rich} (need two kernels)")
        if cli["saturate_exit"] != 0:
            failures.append(f"CLI --strategy saturate exited {cli['saturate_exit']}")
        if cli["bogus_exit"] != 2 or not cli["bogus_names_error"]:
            failures.append(f"CLI --strategy bogus validation wrong: {cli}")
        if failures:
            print("FAIL:\n  " + "\n  ".join(failures))
            return 1
        print(
            "OK: best<=fixpoint on all kernels; frontier>=2 on "
            + ", ".join(sorted(rich))
            + "; all points certified; CLI exits validated"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
