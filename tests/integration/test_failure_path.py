"""One failure path: every ``TIMEOUT`` carries its failure record.

A check that overruns its cooperative deadline raises
:class:`repro.errors.CheckTimeout` from :func:`repro.errors.check_deadline`,
and every path that returns a ``TIMEOUT`` builds it with
:meth:`EquivalenceCheckingResult.failed`, so the record is there whichever
entry point ran the check — and the verdict cache, which never stores a
result with a failure record, never replays a timeout.
"""

import time

import pytest

from repro.bench.algorithms import ghz_state
from repro.circuit import QuantumCircuit, circuit_to_qasm
from repro.circuit.symbolic import symbol
from repro.cli import main
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence
from repro.errors import CheckTimeout
from repro.harness import run_check
from repro.service import PoolConfig, VerdictCache, WorkerPool
from repro.service.cache import cache_key

#: A budget every check overruns at its first deadline check.
_EXPIRED = 1e-9


@pytest.fixture(scope="module")
def pair():
    original = ghz_state(4)
    return original, compile_circuit(original, line_architecture(5))


def _expired(strategy="zx", **overrides):
    return Configuration(
        strategy=strategy, timeout=_EXPIRED, seed=0, **overrides
    )


def _via_run(pair, monkeypatch):
    return EquivalenceCheckingManager(*pair, _expired()).run()


def _via_check(pair, monkeypatch):
    return EquivalenceCheckingManager(*pair, _expired()).check()


def _via_run_check_in_process(pair, monkeypatch):
    return run_check(*pair, _expired(), isolate=False)


def _via_run_check_isolated(pair, monkeypatch):
    return run_check(*pair, _expired(), isolate=True)


def _via_pool(pair, monkeypatch):
    with WorkerPool(PoolConfig(workers=1)) as pool:
        return pool.run_batch([pair], _expired(), timeout=120.0)[0]


def _via_expired_race(pair, monkeypatch):
    """Every lane sleeps past the race's shared deadline and is killed."""
    import repro.ec.manager as manager_module

    # The forked lanes inherit the patch; the parent only races them.
    monkeypatch.setattr(
        manager_module, "_run_checker", lambda *args: time.sleep(60)
    )
    config = Configuration(
        portfolio=True, static_analysis=False, timeout=0.5, seed=0
    )
    result = EquivalenceCheckingManager(*pair, config).run()
    block = result.statistics["portfolio"]
    assert block["winner"] is None
    assert block["all_reaped"] is True
    return result


def _via_parameterized(pair, monkeypatch):
    """Each instantiated concrete check times out in its pre-pass."""
    import repro.analysis

    def expired(*args):
        raise CheckTimeout("cooperative deadline exceeded", hard=False)

    monkeypatch.setattr(repro.analysis, "run_prepass", expired)
    theta = symbol("theta")
    circuit = QuantumCircuit(1)
    circuit.add("rz", [0], params=[theta])
    config = Configuration(
        strategy="parameterized",
        parameterized_symbolic=False,
        num_instantiations=2,
        seed=0,
    )
    result = EquivalenceCheckingManager(circuit, circuit.copy(), config).run()
    outcomes = result.statistics["parameterized"]["instantiation"]["outcomes"]
    assert outcomes == ["timeout", "timeout"]
    return result


@pytest.mark.parametrize(
    "path",
    [
        _via_run,
        _via_check,
        _via_run_check_in_process,
        _via_run_check_isolated,
        _via_pool,
        _via_expired_race,
        _via_parameterized,
    ],
    ids=lambda path: path.__name__[len("_via_"):],
)
def test_every_timeout_carries_its_failure_record(path, pair, monkeypatch):
    result = path(pair, monkeypatch)
    assert result.equivalence is Equivalence.TIMEOUT
    assert result.failure["kind"] == "timeout"
    assert result.failure["transient"] is False


def test_a_cooperative_timeout_is_not_hard(pair):
    result = EquivalenceCheckingManager(*pair, _expired()).run()
    assert result.failure["diagnostics"]["hard"] is False
    assert result.failure["message"] == "cooperative deadline exceeded"


class TestVerdictCache:
    def test_a_timeout_is_never_stored_or_replayed(self, pair, tmp_path):
        path = tmp_path / "cache.jsonl"
        config = _expired()
        with VerdictCache(path) as cache:
            with WorkerPool(PoolConfig(workers=1), cache=cache) as pool:
                answers = [
                    pool.run_batch([pair], config, timeout=120.0)[0]
                    for _ in range(2)
                ]
                counters = pool.counters.as_dict()["counters"]
        assert [a.equivalence for a in answers] == [Equivalence.TIMEOUT] * 2
        assert counters["cache.rejected_degraded"] == 2
        assert "cache.store" not in counters
        assert "cache.hit" not in counters
        # The repeat ran in a worker: a replay carries no service stamp.
        assert answers[1].statistics["service"]["executions"] == 1

    def test_a_reopened_cache_holds_no_timeout(self, pair, tmp_path):
        path = tmp_path / "cache.jsonl"
        config = _expired()
        with VerdictCache(path) as cache:
            with WorkerPool(PoolConfig(workers=1), cache=cache) as pool:
                pool.run_batch([pair], config, timeout=120.0)
        with VerdictCache(path) as reopened:
            assert cache_key(*pair, config) not in reopened
            assert len(reopened) == 0


def test_verify_reports_a_cooperative_timeout(tmp_path, capsys):
    path = tmp_path / "ghz.qasm"
    path.write_text(circuit_to_qasm(ghz_state(3)))
    code = main([
        "verify", str(path), str(path), "--strategy", "zx",
        "--timeout", str(_EXPIRED),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.startswith("timeout  [zx]")
    assert (
        "check failed: timeout (cooperative deadline exceeded)"
        in captured.err
    )
