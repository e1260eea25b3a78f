"""The two verdict paths of a rewrite obligation: cold search, warm recheck.

An obligation is either solved from scratch by ``find_weak_simulation``
(``mode="search"``) or, when the result cache holds a binary certificate
for it, re-validated by witness replay or the exhaustive diagram pass
(``mode="recheck"``).  These tests pin that contract end to end: the
certificate a search mints is what the cache stores (binary only), the
warm run rechecks every holding obligation of the library, parallel and
serial runs mint hash-identical certificates, and a warm cache never
rescues an obligation whose semantics changed.
"""

import inspect
import json

import pytest

from repro import Session
from repro.cli import main
from repro.components import buffer, default_environment, pure
from repro.core import ExprHigh, denote
from repro.errors import RefinementError
from repro.exec.cache import ResultCache
from repro.exec.hashing import certificate_key
from repro.refinement import (
    certificate_from_bytes,
    check_rewrite_obligation,
    find_weak_simulation,
    recheck_certificate,
    uniform_stimuli,
)
from repro.rewriting.rules import VERIFY_FACTORY_SPECS

# The two library rewrites whose obligations genuinely fail (documented:
# they are unverified rewrites).
REFUTED = {"branch-combine", "join-split-elim"}


def _chain(fn):
    graph = ExprHigh()
    graph.add_node("b0", buffer(slots=1))
    graph.add_node("p", pure(fn))
    graph.add_node("b1", buffer(slots=1))
    graph.connect("b0", "out0", "p", "in0")
    graph.connect("p", "out0", "b1", "in0")
    graph.mark_input(0, "b0", "in0")
    graph.mark_output(0, "b1", "out0")
    return graph


def _key(lhs, rhs, env):
    """The cache key check_rewrite_obligation uses for its default stimuli."""
    stimuli = uniform_stimuli(denote(rhs.lower(), env), (0, 1))
    return certificate_key(rhs, lhs, env, stimuli, spec_capacity=4)


@pytest.fixture
def env():
    return default_environment(capacity=2)


@pytest.fixture(scope="module")
def library_runs(tmp_path_factory):
    """Cold then warm ``check_obligations`` over the whole library."""
    cache_dir = tmp_path_factory.mktemp("obligations")
    with Session(jobs=1, cache_dir=cache_dir) as session:
        cold = session.check_obligations()
        warm = session.check_obligations()
    return cold, warm


# -- the library, through the Session facade ----------------------------------


def test_cold_run_searches_every_holding_obligation(library_runs):
    cold, _ = library_runs
    assert len(cold) == len(VERIFY_FACTORY_SPECS)
    for outcome in cold:
        if outcome["rewrite"] in REFUTED:
            continue
        assert outcome["holds"], outcome["detail"]
        assert outcome["mode"] == "search"


def test_warm_run_rechecks_every_holding_obligation(library_runs):
    _, warm = library_runs
    for outcome in warm:
        if outcome["rewrite"] in REFUTED:
            continue
        assert outcome["holds"], outcome["detail"]
        assert outcome["mode"] == "recheck"


def test_warm_recheck_agrees_with_cold_search(library_runs):
    cold, warm = library_runs
    assert [o["rewrite"] for o in warm] == [o["rewrite"] for o in cold]
    assert [o["holds"] for o in warm] == [o["holds"] for o in cold]
    assert [o["certificate_hashes"] for o in warm] == [
        o["certificate_hashes"] for o in cold
    ]


def test_refuted_obligations_stay_refuted_with_a_warm_cache(library_runs):
    cold, warm = library_runs
    for outcomes in (cold, warm):
        refuted = {o["rewrite"] for o in outcomes if not o["holds"]}
        assert refuted == REFUTED
        for outcome in outcomes:
            if outcome["rewrite"] in REFUTED:
                assert outcome["certificate_hashes"] == []
                assert "failed" in outcome["detail"]


def test_parallel_run_is_hash_identical_to_serial():
    with Session(jobs=1, use_cache=False) as session:
        serial = session.check_obligations()
    with Session(jobs=2, use_cache=False) as session:
        parallel = session.check_obligations()
    assert [o["certificate_hashes"] for o in parallel] == [
        o["certificate_hashes"] for o in serial
    ]
    assert [o["detail"] for o in parallel] == [o["detail"] for o in serial]


def test_session_without_cache_always_searches():
    spec = [("repro.rewriting.rules.reduction", "fork_sink_elim", {})]
    with Session(jobs=1, use_cache=False) as session:
        first = session.check_obligations(spec)
        second = session.check_obligations(spec)
    assert first[0]["mode"] == second[0]["mode"] == "search"
    assert first[0]["certificate_hashes"] == second[0]["certificate_hashes"]


def test_check_obligations_takes_only_specs():
    parameters = inspect.signature(Session.check_obligations).parameters
    assert list(parameters) == ["self", "specs"]


# -- the stored encoding --------------------------------------------------------


def test_search_certificate_is_stored_binary_only(env, tmp_path):
    cache = ResultCache(tmp_path)
    lhs, rhs = _chain("id"), _chain("id")
    report = check_rewrite_obligation(lhs, rhs, env, cache=cache)
    key = _key(lhs, rhs, env)
    blob = cache.get_bytes(key)
    assert blob is not None
    assert cache.get(key) is None  # no JSON entry is written
    assert [p.suffix for p in tmp_path.glob("*/*") if p.is_file()] == [".bin"]
    stored = certificate_from_bytes(blob)
    assert stored.content_hash() == report.certificate.content_hash()


def test_json_entry_is_never_read_back(env, tmp_path):
    """A JSON certificate under the obligation's key is not a cache entry:
    the check searches (a cold ``search``, not ``search-fallback``) and
    stores the binary certificate it then rechecks from."""
    cache = ResultCache(tmp_path)
    lhs, rhs = _chain("id"), _chain("id")
    cold = check_rewrite_obligation(lhs, rhs, env)
    key = _key(lhs, rhs, env)
    cache.put(key, cold.certificate.to_dict())
    assert check_rewrite_obligation(lhs, rhs, env, cache=cache).mode == "search"
    assert cache.get_bytes(key) is not None
    assert check_rewrite_obligation(lhs, rhs, env, cache=cache).mode == "recheck"


def test_search_always_mints_replay_witnesses(env):
    impl = denote(_chain("id").lower(), env)
    spec = denote(_chain("id").lower(), env.with_capacity(4))
    stimuli = uniform_stimuli(impl, (0, 1))
    result = find_weak_simulation(impl, spec, stimuli)
    assert result.holds
    assert result.certificate.witnesses is not None
    assert recheck_certificate(impl, spec, result.certificate, stimuli).method == "replay"


def test_breaking_edit_is_refuted_despite_a_warm_cache(env, tmp_path):
    cache = ResultCache(tmp_path)
    lhs = _chain("id")
    check_rewrite_obligation(lhs, _chain("id"), env, cache=cache)
    assert check_rewrite_obligation(lhs, _chain("id"), env, cache=cache).mode == "recheck"
    # incr changes the value on the only path: no certificate may vouch for it
    with pytest.raises(RefinementError):
        check_rewrite_obligation(lhs, _chain("incr"), env, cache=cache)


# -- the CLI --------------------------------------------------------------------


@pytest.mark.parametrize("cert_format", ["json", "binary"])
def test_refine_dump_then_load_rechecks(cert_format, tmp_path, capsys):
    certs = tmp_path / "certs"
    flags = ["--rule", "fork_sink_elim", "--no-cache"]
    assert main(["refine", *flags, "--dump-certs", str(certs),
                 "--cert-format", cert_format]) == 0
    [path] = sorted(certs.iterdir())
    assert path.suffix == (".json" if cert_format == "json" else ".grc")
    if cert_format == "json":
        assert json.loads(path.read_text())["mode"] == "search"
    capsys.readouterr()
    assert main(["refine", *flags, "--load-certs", str(certs)]) == 0
    assert "recheck" in capsys.readouterr().out
