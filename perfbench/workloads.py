"""The four benchmark workloads, and the correctness gate for each.

Every workload builds its inputs in ``__init__`` (the set-up the harness
times separately), runs one pass per :meth:`run_pass`, and checks that
pass's outputs afterwards, outside the timed region, in :meth:`check`
against the hand-written ``expected.json`` or the sequential reference
interpreter — never against the pipeline's own output.  Layer entry points are called through their
modules (``frontend.compile_program``, ``dispatch.simulate_graph`` …) so a
traced pass can wrap them (see :mod:`tracing`).
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import Session
from repro.benchmarks import load_benchmark
from repro.components import default_environment
from repro.hls import area, buffers, frontend, ir, ooo, static_sched
from repro.interop.corpus import case_seeds, generate_case
from repro.rewriting.pipeline import GraphitiPipeline
from repro.rewriting.rules import VERIFY_FACTORY_SPECS, build_rewrite
from repro.rewriting.saturate import SaturationBudget
from repro.sim import dispatch

FLOWS = ("DF-IO", "DF-OoO", "GRAPHITI", "Vericert")


class Checks:
    """Counts attempted and failed correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def _copies(arrays: dict) -> dict:
    return {key: array.copy() for key, array in arrays.items()}


def _restore(program, pristine: dict) -> None:
    # Compiled circuits' loads close over program.arrays by name, so the
    # contents are restored in place rather than rebound.
    for key, array in pristine.items():
        program.arrays[key][...] = array


def _memory_matches(actual: dict, expected: dict) -> bool:
    return all(
        key in actual
        and np.allclose(np.asarray(actual[key], float), np.asarray(array, float), atol=1e-6)
        for key, array in expected.items()
    )


def _store_order_matches(actual: list, expected: list) -> bool:
    """Per array, the sequence of (index, value) writes must be equal."""

    def by_array(history):
        grouped: dict[str, list] = {}
        for array, index, value in history:
            grouped.setdefault(array, []).append((int(index), float(value)))
        return grouped

    got, want = by_array(actual), by_array(expected)
    if got.keys() != want.keys():
        return False
    return all(
        len(got[name]) == len(writes)
        and all(gi == wi and abs(gv - wv) <= 1e-6 for (gi, gv), (wi, wv) in zip(got[name], writes))
        for name, writes in want.items()
    )


def _simulate(graph, env, ck, program, tags) -> tuple:
    placement = buffers.place_buffers(graph, tags)
    stats = dispatch.simulate_graph(
        graph, env, ck.kernel, program.arrays,
        capacities=placement.capacities, latency_of=area.latency_of,
    )
    return placement, stats


class Workload:
    """One named workload: set-up in ``__init__``, then repeated passes."""

    name = ""
    #: One pass's duration on a 2-core x86 host; sets the pass count.
    nominal_s = 1.0

    def __init__(self, expected: dict, size: str, seed: int, workdir: Path) -> None:
        self.expected = expected[self.name]
        self.rng = random.Random(seed)
        self.workdir = workdir

    def planned_checks(self, passes: int) -> int:
        raise NotImplementedError

    def run_pass(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict, checks: Checks, first: dict | None) -> None:
        raise NotImplementedError

    def stages(self, out: dict) -> dict[str, float]:
        """Named sub-stage figures of a pass, for the report: ``*_s`` are
        seconds, ``*_per_s`` rates."""
        return {}

    def outcome(self, out: dict) -> dict[str, float]:
        """Exact outcome figures and layer counts read from a pass's outputs."""
        return {}

    def close(self) -> None:
        pass


class PaperFlows(Workload):
    """The six paper kernels x four flows, cold: ``repro report``'s work."""

    name = "paper_flows"
    nominal_s = 10.0

    def __init__(self, expected, size, seed, workdir):
        super().__init__(expected, size, seed, workdir)
        kernels = self.expected["kernels"] if size == "full" else ["matvec"]
        self.programs = {name: load_benchmark(name) for name in kernels}
        self.pristine = {name: _copies(p.arrays) for name, p in self.programs.items()}
        self.order = [(kernel, flow) for kernel in kernels for flow in FLOWS]
        self.rng.shuffle(self.order)

    def planned_checks(self, passes):
        return 6 * len(self.programs) * passes

    def run_pass(self):
        return {item: self._flow(*item) for item in self.order}

    def _flow(self, name: str, flow: str) -> dict:
        # Mirrors repro.eval.runner.run_flow, one layer call at a time.
        program, pristine = self.programs[name], self.pristine[name]
        if flow == "Vericert":
            report = static_sched.schedule_program(program, _copies(pristine))
            return {"cycles": report.cycles, "luts": report.area.luts,
                    "clock": report.area.clock_period}
        reference = ir.run_program(program, _copies(pristine))
        env = default_environment()
        compiled = frontend.compile_program(program, env)
        _restore(program, pristine)
        refused = 0
        graphs = []
        for ck in compiled.kernels:
            if flow == "DF-IO":
                graphs.append((ck, ck.graph, None))
            elif flow == "DF-OoO":
                graphs.append((ck, ooo.transform_out_of_order(ck.graph, ck.mark), ck.mark.tags))
            else:
                outcome = GraphitiPipeline(env).transform_kernel(ck.graph, ck.mark)
                if outcome.transformed:
                    graphs.append((ck, outcome.graph, ck.mark.tags))
                else:
                    refused += 1
                    graphs.append((ck, ck.graph, None))
        cycles, luts, clock, history = 0, 0, 0.0, []
        for ck, graph, tags in graphs:
            placement, stats = _simulate(graph, env, ck, program, tags)
            cycles += stats.cycles
            history.extend(stats.store_history)
            report = area.analyze(graph, extra_buffer_slots=placement.extra_slots)
            luts += report.luts
            clock = max(clock, report.clock_period)
        return {
            "cycles": cycles, "luts": luts, "clock": clock, "refused": refused,
            "nodes": compiled.total_nodes(), "arrays": _copies(program.arrays),
            "history": history, "reference": reference,
        }

    def check(self, out, checks, first):
        refuses = set(self.expected["graphiti_refuses"])
        diverges = set(self.expected["ooo_diverges"])
        for (name, flow), r in sorted(out.items()):
            if flow == "Vericert":
                continue
            memory = _memory_matches(r["arrays"], r["reference"].arrays)
            order = _store_order_matches(r["history"], r["reference"].store_history)
            if flow == "DF-OoO":
                diverged = not (memory and order)
                checks.expect(diverged == (name in diverges),
                              f"DF-OoO on {name}: diverged={diverged}")
                continue
            checks.expect(memory, f"{flow} on {name}: memory differs from run_program")
            checks.expect(order, f"{flow} on {name}: store order differs from run_program")
            if flow == "GRAPHITI":
                refused = r["refused"] > 0
                checks.expect(refused == (name in refuses),
                              f"GRAPHITI on {name}: refused={refused}")

    def outcome(self, out):
        graphiti = [r for (_, flow), r in out.items() if flow == "GRAPHITI"]
        return {
            "sim.graphiti_cycles_geomean": geomean(r["cycles"] for r in graphiti),
            "area.graphiti_luts_geomean": geomean(r["luts"] for r in graphiti),
            "area.graphiti_exec_ns_geomean": geomean(r["cycles"] * r["clock"] for r in graphiti),
            "frontend.nodes": sum(r.get("nodes", 0) for r in out.values()),
        }


class FuzzCorpus(Workload):
    """``Session.fuzz`` over a seeded corpus of generated loop nests."""

    name = "fuzz_corpus"
    nominal_s = 6.0

    def __init__(self, expected, size, seed, workdir, fuzz_seed):
        super().__init__(expected, size, seed, workdir)
        self.cases = 25 if size == "full" else 2
        self.corpus_seed = fuzz_seed
        # The generator, not the pipeline, says which loops are effectful.
        self.effectful = {
            case: generate_case(case).effectful for case in case_seeds(fuzz_seed, self.cases)
        }
        self.session = Session(jobs=1, use_cache=False)

    def planned_checks(self, passes):
        return (1 + 2 * self.cases) * passes + (passes - 1)

    def run_pass(self):
        t0 = perf_counter()
        manifest = self.session.fuzz(cases=self.cases, seed=self.corpus_seed)
        rate = self.cases / (perf_counter() - t0)
        return {"manifest": manifest, "text": json.dumps(manifest, sort_keys=True),
                "stages": {"fuzz_cases_per_s": rate}}

    def check(self, out, checks, first):
        manifest = out["manifest"]
        checks.expect(manifest["ok"] == self.expected["manifest_ok"],
                      f"fuzz manifest ok={manifest['ok']}")
        for entry in manifest["cases"]:
            effectful = self.effectful.get(entry["seed"])
            flows = entry["flows"]
            refused = flows["GRAPHITI"]["refused_loops"]
            checks.expect(effectful is not None and refused == int(effectful),
                          f"fuzz case {entry['seed']}: refused {refused}, effectful={effectful}")
            faithful = all(flows[f]["correct"] and flows[f]["stores_in_order"]
                           for f in ("DF-IO", "GRAPHITI"))
            checks.expect(faithful, f"fuzz case {entry['seed']}: diverged from the reference")
        if first is not None:
            checks.expect(out["text"] == first["text"],
                          "fuzz manifest differs between passes with an equal seed")

    def stages(self, out):
        return out["stages"]

    def outcome(self, out):
        cases = out["manifest"]["cases"]
        return {
            "sim.graphiti_cycles_geomean": geomean(c["flows"]["GRAPHITI"]["cycles"] for c in cases),
            "frontend.nodes": sum(c["nodes"] for c in cases),
        }

    def close(self):
        self.session.close()


class Refine(Workload):
    """The library obligations: cold search, warm recheck, then SAT."""

    name = "refine"
    nominal_s = 6.0
    SMALL = ("merge-combine", "branch-combine", "join-swap")

    def __init__(self, expected, size, seed, workdir):
        super().__init__(expected, size, seed, workdir)
        specs = [(build_rewrite(*spec).name, spec) for spec in VERIFY_FACTORY_SPECS]
        if size != "full":
            specs = [item for item in specs if item[0] in self.SMALL]
        self.rng.shuffle(specs)
        self.names = [name for name, _ in specs]
        self.specs = [spec for _, spec in specs]
        self.verdicts = self.expected["verdicts"]

    def planned_checks(self, passes):
        return 4 * len(self.specs) * passes

    def run_pass(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        cache_dir = tempfile.mkdtemp(dir=self.workdir)
        try:
            with Session(jobs=1, cache_dir=cache_dir) as session:
                t0 = perf_counter()
                cold = session.check_obligations(self.specs)
                t1 = perf_counter()
                warm = session.check_obligations(self.specs)
                t2 = perf_counter()
                sat = session.sat_check(self.specs)
                t3 = perf_counter()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return {"cold": cold, "warm": warm, "sat": sat,
                "stages": {"refine_cold_s": t1 - t0, "refine_warm_s": t2 - t1,
                           "sat_check_s": t3 - t2}}

    def check(self, out, checks, first):
        for cold, warm, sat in zip(out["cold"], out["warm"], out["sat"]):
            name = cold["rewrite"]
            want = self.verdicts.get(name)
            checks.expect(cold["holds"] == want, f"{name}: cold verdict {cold['holds']}, expected {want}")
            checks.expect(warm["holds"] == want, f"{name}: warm verdict {warm['holds']}, expected {want}")
            replayed = warm["certificate_hashes"] == cold["certificate_hashes"] and (
                not want or warm["mode"] == "recheck"
            )
            checks.expect(replayed, f"{name}: warm pass did not recheck the cold certificates")
            checks.expect(sat["agreed"], f"{name}: SAT oracle disagrees with the game")

    def stages(self, out):
        return out["stages"]

    def outcome(self, out):
        seconds = [entry["seconds"] for entry in out["cold"]]
        return {
            "refinement.verdict_p50_s": statistics.median(seconds),
            "refinement.verdict_max_s": max(seconds),
            "sat.agreed": sum(1 for entry in out["sat"] if entry["agreed"]),
        }


class Saturate(Workload):
    """``transform(strategy="saturate")``, then every Pareto point simulated."""

    name = "saturate"
    nominal_s = 12.0

    def __init__(self, expected, size, seed, workdir):
        super().__init__(expected, size, seed, workdir)
        kernels = list(self.expected["kernels"] if size == "full" else ["matvec"])
        self.rng.shuffle(kernels)
        self.budget = None if size == "full" else SaturationBudget(max_states=8, max_iterations=8)
        self.programs = {name: load_benchmark(name) for name in kernels}
        self.pristine = {name: _copies(p.arrays) for name, p in self.programs.items()}
        self.session = Session(jobs=1, use_cache=False)

    def planned_checks(self, passes):
        return 2 * len(self.programs) * passes

    def run_pass(self):
        env = self.session.env
        kernels, saturate_s = {}, 0.0
        for name, program in self.programs.items():
            pristine = self.pristine[name]
            _restore(program, pristine)
            ck = frontend.compile_program(program, env).kernels[0]
            t0 = perf_counter()
            result = self.session.transform(
                graph=ck.graph, mark=ck.mark, strategy="saturate", budget=self.budget
            )
            saturate_s += perf_counter() - t0
            reference = ir.run_program(program, _copies(pristine))
            points = []
            for point in result.pareto:
                _restore(program, pristine)
                tags = ck.mark.tags if result.transformed and point.seed == 1 else None
                _, stats = _simulate(point.graph, env, ck, program, tags)
                points.append({
                    "cycles": stats.cycles, "arrays": _copies(program.arrays),
                    "history": stats.store_history, "chosen": point.graph is result.graph,
                    "derived": bool(point.derivation),
                })
            kernels[name] = {"points": points, "reference": reference,
                             "saturation": result.saturation, "nodes": len(ck.graph.nodes)}
        return {"kernels": kernels, "stages": {"saturate_s": saturate_s}}

    def check(self, out, checks, first):
        for name, k in sorted(out["kernels"].items()):
            ref = k["reference"]
            points = k["points"]
            chosen = sum(p["chosen"] for p in points)
            checks.expect(
                chosen == 1 and all(_memory_matches(p["arrays"], ref.arrays) for p in points),
                f"saturate {name}: a Pareto point's memory differs from run_program",
            )
            checks.expect(
                all(_store_order_matches(p["history"], ref.store_history) for p in points),
                f"saturate {name}: a Pareto point's store order differs from run_program",
            )

    def stages(self, out):
        return out["stages"]

    def outcome(self, out):
        kernels = out["kernels"].values()
        states = sum(k["saturation"]["states"] for k in kernels)
        derived = sum(p["derived"] for k in kernels for p in k["points"])
        picks = [
            min(p["cycles"] for p in k["points"]) == next(p["cycles"] for p in k["points"] if p["chosen"])
            for k in kernels
        ]
        return {
            "sim.graphiti_cycles_geomean": geomean(
                p["cycles"] for k in kernels for p in k["points"] if p["chosen"]
            ),
            "frontend.nodes": sum(k["nodes"] for k in kernels),
            "saturate.states": states,
            "saturate.enodes": sum(k["saturation"]["enodes"] for k in kernels),
            "saturate.rules_fired": sum(k["saturation"]["rules_fired"] for k in kernels),
            "saturate.derived_points": derived,
            "saturate.useful_ratio": derived / states if states else 0.0,
            "saturate.pick_matches_sim": sum(picks) / len(picks),
        }

    def close(self):
        self.session.close()


WORKLOADS = {cls.name: cls for cls in (PaperFlows, FuzzCorpus, Refine, Saturate)}
