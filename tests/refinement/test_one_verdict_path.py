"""Every rewrite obligation is decided by the certified checker.

``repro.refinement.check_rewrite`` is the one obligation path: the engine,
the saturation certifier and the executor worker all call it, so a warm
run re-validates a stored binary certificate and never trusts a stored
verdict.  The bare-verdict path beside it — ``Session.verify``, the
``repro verify`` subcommand, the ``verify`` job kind, the graph-pair
verdict cache and their fingerprints — is gone; the tests at the bottom
pin that each removed surface stays removed.
"""

import pytest

import repro.exec as exec_pkg
import repro.exec.hashing as hashing
import repro.exec.workers as workers
from repro import Session
from repro.cli import main
from repro.errors import RefinementError, ServiceError
from repro.exec.cache import ResultCache
from repro.exec.hashing import certificate_key
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.refinement import check_rewrite
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.rules.combine import branch_combine, mux_combine
from repro.rewriting.saturate import SaturationBudget
from repro.service.ops import canonical_params

MUX_SPEC = [("repro.rewriting.rules.combine", "mux_combine", {})]


class BytesOnlyCache:
    """A cache that holds certificates only: any JSON access is a verdict."""

    def __init__(self):
        self.blobs: dict[str, bytes] = {}

    def get(self, key):
        raise AssertionError(f"JSON cache read of {key}")

    def put(self, key, payload):
        raise AssertionError(f"JSON cache write of {key}")

    def get_bytes(self, key):
        return self.blobs.get(key)

    def put_bytes(self, key, payload):
        self.blobs[key] = payload


def _span_names(run):
    """Run *run* under a fresh tracer; the names of every span it opened."""
    with use_tracer(Tracer()) as tracer:
        sink = tracer.attach(InMemorySink())
        run()
    return [span.name for root in sink.spans for span in root.walk()]


# -- the helper ---------------------------------------------------------------


def test_check_rewrite_reports_every_instance_under_one_span():
    rewrite = mux_combine()
    reports = []
    names = _span_names(lambda: reports.extend(check_rewrite(rewrite)))
    assert len(reports) == len(list(rewrite.obligation())) >= 1
    assert all(report.mode == "search" for report in reports)
    assert names.count("obligation:mux-combine") == 1
    assert "refine:weak-sim" in names


# -- the engine goes through it -------------------------------------------------


def test_engine_stores_and_rechecks_certificates_only():
    cache = BytesOnlyCache()
    assert RewriteEngine(cache=cache).verify_rewrite(mux_combine())
    assert cache.blobs, "the engine stored no certificate"
    names = _span_names(lambda: RewriteEngine(cache=cache).verify_rewrite(mux_combine()))
    assert "refine:recheck" in names
    assert "refine:weak-sim" not in names


def test_engine_certificates_serve_check_obligations(tmp_path):
    RewriteEngine(cache=ResultCache(tmp_path)).verify_rewrite(mux_combine())
    with Session(cache_dir=tmp_path) as session:
        [outcome] = session.check_obligations(MUX_SPEC)
    assert outcome["holds"]
    assert outcome["mode"] == "recheck"


@pytest.mark.parametrize(
    "payload", [b"\x00garbage\xff", b'{"holds": true}'], ids=["garbage", "forged-verdict"]
)
def test_refuted_rewrite_stays_refuted_over_an_overwritten_cache(tmp_path, payload):
    cache = ResultCache(tmp_path)
    RewriteEngine(cache=cache).verify_rewrite(mux_combine())
    with pytest.raises(RefinementError):
        RewriteEngine(cache=cache).verify_rewrite(branch_combine())
    # Plant entries at the refuted instance's certificate key too.
    lhs, rhs, env, stimuli = next(branch_combine().obligation())
    key = certificate_key(rhs, lhs, env, stimuli, spec_capacity=4)
    for path in (cache.path_for(key), cache.bin_path_for(key)):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
    files = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert files
    for path in files:
        path.write_bytes(payload)
    with pytest.raises(RefinementError):
        RewriteEngine(cache=ResultCache(tmp_path)).verify_rewrite(branch_combine())


# -- removed surfaces -----------------------------------------------------------


def test_session_has_no_verdict_methods():
    assert not hasattr(Session, "verify")
    assert not hasattr(Session, "check_refinements")


def test_cli_has_no_verify_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    assert "invalid choice: 'verify'" in capsys.readouterr().err


def test_service_has_no_verify_kind():
    with pytest.raises(ServiceError, match="unknown job kind 'verify'"):
        canonical_params("verify", {})


def test_exec_has_no_verdict_keys():
    for name in ("obligation_fingerprint", "weak_sim_key"):
        assert not hasattr(exec_pkg, name)
        assert name not in exec_pkg.__all__
        assert not hasattr(hashing, name)


def test_exec_workers_have_no_verdict_workers():
    assert not hasattr(workers, "discharge_rewrite")
    assert not hasattr(workers, "check_graph_pair")


def test_saturation_overrun_policy_is_not_a_knob():
    import repro.errors as errors

    with pytest.raises(TypeError):
        SaturationBudget(on_exhausted="partial")
    assert not hasattr(errors, "SaturationLimitError")
