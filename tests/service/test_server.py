"""Batch API server/client: round-trips, backpressure, malformed requests,
draining shutdown, and one event loop that never blocks on a busy pool."""

import dataclasses
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.bench.algorithms import ghz_state, qft
from repro.circuit import QuantumCircuit
from repro.compile import compile_circuit, line_architecture
from repro.ec.configuration import Configuration
from repro.errors import InvalidInput, PoolSaturated, RetryPolicy
from repro.harness.chaos import ChaosSpec
from repro.service import PoolConfig, ServiceClient, ServiceServer, WorkerPool
from repro.service.cache import configuration_fingerprint
from repro.service.server import (
    batch_from_payload,
    circuit_from_payload,
    circuit_to_payload,
    configuration_from_payload,
    configuration_to_payload,
)

_FAST_BACKOFF = RetryPolicy(max_retries=0, backoff_base=0.01, backoff_max=0.05)

#: A hostile value for each knob that left ``Configuration``; while they
#: were fields, each one reached the checkers from a client's payload.
_REMOVED_KNOBS = {
    "fidelity_threshold": 2.0,
    "tolerance": float("nan"),
    "retry_backoff": -1.0,
    "portfolio_head_start": float("inf"),
    "instantiation_isolation": "yes",
    "graceful_degradation": False,
}

#: A valid, non-default value for each of the 13 ``Configuration`` knobs.
_KNOB_VALUES = {
    "strategy": "alternating",
    "static_analysis": False,
    "oracle": "lookahead",
    "num_simulations": 3,
    "stimuli_type": "local_quantum",
    "timeout": 7.5,
    "trace_sizes": True,
    "seed": 11,
    "memory_limit_mb": 512,
    "max_retries": 0,
    "portfolio": True,
    "num_instantiations": 2,
    "parameterized_symbolic": False,
}


def _pairs():
    ghz = ghz_state(4)
    fourier = qft(3)
    return [
        (ghz, compile_circuit(ghz, line_architecture(5))),
        (fourier, compile_circuit(fourier, line_architecture(4))),
    ]


class TestWireFormat:
    def test_circuit_payload_roundtrip(self):
        compiled = compile_circuit(ghz_state(4), line_architecture(5))
        compiled.output_permutation = dict(compiled.output_permutation or {})
        restored = circuit_from_payload(circuit_to_payload(compiled))
        assert len(restored) == len(compiled)
        assert restored.initial_layout == compiled.initial_layout
        assert restored.output_permutation == compiled.output_permutation

    def test_configuration_payload_roundtrip(self):
        config = Configuration(timeout=3.5, seed=9, strategy="zx")
        restored = configuration_from_payload(configuration_to_payload(config))
        assert restored == config
        assert configuration_from_payload(None) is None
        assert configuration_to_payload(None) is None

    def test_unknown_configuration_fields_ignored(self):
        payload = configuration_to_payload(Configuration(seed=3))
        payload["from_a_newer_version"] = True
        # A field older clients still send after it left Configuration.
        payload["compute_table_size"] = 64
        assert configuration_from_payload(payload).seed == 3

    def test_knob_tables_match_the_fields(self):
        fields = {field.name for field in dataclasses.fields(Configuration)}
        assert set(_KNOB_VALUES) == fields
        assert not fields & set(_REMOVED_KNOBS)

    @pytest.mark.parametrize("key, value", sorted(_REMOVED_KNOBS.items()))
    def test_removed_knob_is_dropped(self, key, value):
        """A hostile value for a knob that left ``Configuration`` decodes
        to the default configuration: it reaches no checker and does not
        split the cache key."""
        payload = configuration_to_payload(Configuration())
        payload[key] = value
        _, configuration = batch_from_payload(
            {"pairs": [], "configuration": payload}
        )
        assert configuration == Configuration()
        assert configuration_fingerprint(configuration) == (
            configuration_fingerprint(Configuration())
        )

    @pytest.mark.parametrize("key, value", sorted(_KNOB_VALUES.items()))
    def test_every_knob_survives_the_wire(self, key, value):
        """Each of the 13 knobs is set by a client's payload, passes
        validation and moves the cache key."""
        payload = configuration_to_payload(Configuration())
        payload[key] = value
        _, configuration = batch_from_payload(
            {"pairs": [], "configuration": payload}
        )
        assert getattr(configuration, key) == value
        assert configuration_fingerprint(configuration) != (
            configuration_fingerprint(Configuration())
        )

    @pytest.mark.parametrize(
        "knobs",
        [
            {"strategy": "bogus"},
            {"oracle": "bogus"},
            {"num_simulations": 0},
            {"stimuli_type": "bogus"},
            {"timeout": 0},
            {"timeout": float("nan")},
            {"memory_limit_mb": 1.5},
            {"max_retries": -1},
            {"portfolio": "yes"},
            {"portfolio": True, "strategy": "zx"},
            {"num_instantiations": 0},
            {"parameterized_symbolic": "yes"},
            {"static_analysis": "false"},
            {"trace_sizes": 1},
            {"num_simulations": 2.5},
            {"num_simulations": True},
            {"seed": 1.5},
            {"seed": [1]},
        ],
        ids=lambda knobs: "-".join(f"{k}={v}" for k, v in knobs.items()),
    )
    def test_bad_knob_value_is_invalid_input(self, knobs):
        payload = configuration_to_payload(Configuration())
        payload.update(knobs)
        with pytest.raises(InvalidInput) as raised:
            batch_from_payload({"pairs": [], "configuration": payload})
        assert raised.value.message.startswith("configuration: ")

    @pytest.mark.parametrize(
        "pairs, message, diagnostics",
        [
            ([({}, None)], "pairs[0].circuit1: missing key 'qasm'",
             {"pair": 0, "circuit": 1}),
            ([(None, None), (None,)], "pairs[1]: ", {"pair": 1}),
            (5, "pairs: ", {}),
            ([(dict(circuit_to_payload(ghz_state(2)),
                    initial_layout={"0": 1.9, "1": 0.2}), None)],
             "pairs[0].circuit1: initial_layout: value 1.9 of key '0' is not "
             "an integer", {"pair": 0, "circuit": 1}),
            ([(None, dict(circuit_to_payload(ghz_state(2)),
                          output_permutation={"0": True, "1": 0}))],
             "pairs[0].circuit2: output_permutation: value True of key '0' "
             "is not an integer", {"pair": 0, "circuit": 2}),
        ],
        ids=["missing qasm", "one circuit", "not a list", "float layout",
             "bool permutation"],
    )
    def test_malformed_pair_names_its_place(self, pairs, message, diagnostics):
        good = circuit_to_payload(ghz_state(1))
        if isinstance(pairs, list):
            pairs = [
                tuple(good if payload is None else payload for payload in pair)
                for pair in pairs
            ]
        with pytest.raises(InvalidInput) as raised:
            batch_from_payload({"pairs": pairs, "configuration": None})
        assert raised.value.message.startswith(message)
        assert raised.value.diagnostics == diagnostics


def _serve(pool):
    """Start a server on a fresh socket; returns (server, thread, path)."""
    import tempfile
    from pathlib import Path

    tmp = tempfile.mkdtemp(prefix="repro-service-test-")
    socket_path = str(Path(tmp) / "service.sock")
    server = ServiceServer(pool, socket_path).start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, socket_path


class TestServerRoundTrip:
    def test_batch_verdicts_stats_and_draining_shutdown(self):
        pool = WorkerPool(
            PoolConfig(workers=2, restart_backoff=_FAST_BACKOFF)
        )
        server, thread, socket_path = _serve(pool)
        pairs = _pairs()
        try:
            with ServiceClient(socket_path) as client:
                assert client.ping()
                results = client.submit_batch(
                    pairs, Configuration(timeout=10.0, seed=0)
                )
                stats = client.stats()
        finally:
            with ServiceClient(socket_path) as closer:
                reply = closer.shutdown_server()
            thread.join(timeout=60.0)
        assert reply["stopping"] is True
        assert not thread.is_alive()
        assert [payload["equivalence"] for payload in results] == [
            "equivalent",
            "equivalent",
        ]
        counters = stats["counters"]["counters"]
        assert counters["service.jobs_completed"] == len(pairs)
        assert stats["quarantined"] == 0
        assert not stats["broken"]
        assert pool.audit()["leaked"] == 0
        import os

        assert not os.path.exists(socket_path)

    def test_oversized_batch_gets_busy_with_retry_after(self):
        pool = WorkerPool(
            PoolConfig(
                workers=1, queue_depth=1, restart_backoff=_FAST_BACKOFF
            )
        )
        server, thread, socket_path = _serve(pool)
        try:
            with ServiceClient(socket_path) as client:
                # A 2-pair batch can never fit a depth-1 queue: every
                # attempt is answered busy, then the client gives up.
                sleeps = []
                with pytest.raises(PoolSaturated):
                    client.submit_batch(
                        _pairs(),
                        Configuration(timeout=10.0, seed=0),
                        max_attempts=3,
                        sleep=sleeps.append,
                    )
                assert len(sleeps) == 3
                assert all(delay > 0 for delay in sleeps)
                stats = client.stats()
            counters = stats["counters"]["counters"]
            assert counters["service.rejected_busy"] == 3
        finally:
            with ServiceClient(socket_path) as closer:
                closer.shutdown_server()
            thread.join(timeout=60.0)
        assert pool.audit()["leaked"] == 0

    def test_unknown_op_is_answered_not_fatal(self):
        pool = WorkerPool(
            PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)
        )
        server, thread, socket_path = _serve(pool)
        try:
            with ServiceClient(socket_path) as client:
                reply = client._request({"op": "bogus"})
                assert reply["ok"] is False
                assert reply["error"]["kind"] == "invalid_input"
                # The server survived and still answers real requests.
                assert client.ping()
        finally:
            with ServiceClient(socket_path) as closer:
                closer.shutdown_server()
            thread.join(timeout=60.0)
        assert pool.audit()["leaked"] == 0

    def test_malformed_requests_are_answered_not_fatal(self):
        pool = WorkerPool(
            PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)
        )
        server, thread, socket_path = _serve(pool)
        good = circuit_to_payload(ghz_state(2))
        bogus = {"qasm": "OPENQASM 2.0; qreg q[1]; bogus q[0];"}
        one_qubit = {"qasm": "OPENQASM 2.0; qreg q[1];"}
        requests = {
            "malformed qasm": {
                "op": "submit", "pairs": [(bogus, one_qubit)],
                "configuration": None,
            },
            "not a dict": ["submit"],
            "pair without qasm": {
                "op": "submit", "pairs": [({}, one_qubit)],
                "configuration": None,
            },
            "configuration field of the wrong type": {
                "op": "submit", "pairs": [(good, good)],
                "configuration": {"num_simulations": "many"},
            },
            "configuration not a dict": {
                "op": "submit", "pairs": [(good, good)],
                "configuration": ["timeout"],
            },
            "layout not a dict": {
                "op": "submit",
                "pairs": [(dict(good, initial_layout=[1]), good)],
                "configuration": None,
            },
            # Decoded whole before anything is admitted: the good first
            # pair must not run.
            "bad second pair": {
                "op": "submit", "pairs": [(good, good), (good, bogus)],
                "configuration": None,
            },
        }
        try:
            with ServiceClient(socket_path) as client:
                for name, request in requests.items():
                    reply = client._request(request)
                    assert reply["ok"] is False, name
                    assert reply["error"]["kind"] == "invalid_input", name
                counters = client.stats()["counters"]["counters"]
                assert counters.get("service.jobs_submitted", 0) == 0
                # The same server still answers a ping and a real batch.
                assert client.ping()
                results = client.submit_batch(
                    _pairs(), Configuration(timeout=10.0, seed=0)
                )
        finally:
            with ServiceClient(socket_path) as closer:
                closer.shutdown_server()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert [payload["equivalence"] for payload in results] == [
            "equivalent",
            "equivalent",
        ]
        assert pool.audit()["leaked"] == 0

    def test_undecodable_messages_are_answered_not_fatal(self):
        import json
        import pickle
        from multiprocessing.connection import Client

        pool = WorkerPool(
            PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)
        )
        server, thread, socket_path = _serve(pool)
        messages = {
            "garbage bytes": b"\x80\x04not a pickle",
            "pickled dict": pickle.dumps({"op": "ping"}),
        }
        try:
            raw = Client(socket_path, family="AF_UNIX")
            try:
                for name, message in messages.items():
                    raw.send_bytes(message)
                    reply = json.loads(raw.recv_bytes())
                    assert reply["ok"] is False, name
                    assert reply["error"]["kind"] == "invalid_input", name
            finally:
                raw.close()
            # The same server still answers a ping and a real batch.
            with ServiceClient(socket_path) as client:
                assert client.ping()
                results = client.submit_batch(
                    _pairs(), Configuration(timeout=10.0, seed=0)
                )
        finally:
            with ServiceClient(socket_path) as closer:
                closer.shutdown_server()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert [payload["equivalence"] for payload in results] == [
            "equivalent",
            "equivalent",
        ]
        assert pool.audit()["leaked"] == 0


    def test_deeply_nested_qasm_is_answered_not_fatal(self):
        """An expression nested past the reader's bound is malformed
        input; it must not unwind the serve loop's stack."""
        pool = WorkerPool(
            PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)
        )
        server, thread, socket_path = _serve(pool)
        good = circuit_to_payload(ghz_state(1))
        expressions = {
            "parentheses": "(" * 3000 + "1" + ")" * 3000,
            "unary signs": "-" * 5000 + "1",
        }
        try:
            with ServiceClient(socket_path) as client:
                for name, expression in expressions.items():
                    nested = {
                        "qasm": "OPENQASM 2.0;\nqreg q[1];\n"
                        f"rz({expression}) q[0];\n"
                    }
                    reply = client._request({
                        "op": "submit", "pairs": [(nested, good)],
                        "configuration": None,
                    })
                    assert reply["ok"] is False, name
                    assert reply["error"]["kind"] == "invalid_input", name
                    assert "nested more than" in reply["error"]["message"]
                assert client.ping()
        finally:
            with ServiceClient(socket_path) as closer:
                closer.shutdown_server()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert pool.audit()["leaked"] == 0

    def test_malformed_statements_are_answered_not_fatal(self):
        """A self-applying, free-qubit or exponentially doubling ``gate``
        macro is malformed input, refused before it expands, whether the
        doubled body is an X, empty or a barrier; so are an operation
        naming one qubit twice and a register wider than the file's
        expansion budget.  Each reply carries the reader's location."""
        pool = WorkerPool(
            PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)
        )
        server, thread, socket_path = _serve(pool)
        good = circuit_to_payload(ghz_state(1))
        doubling = "".join(
            f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}\n"
            for k in range(1, 41)
        )
        bodies = {
            "recursion": ("gate g a { g a; }\ng q[0];\n", "applies 'g'"),
            "free qubit": (
                "gate g a { x b; }\ng q[0];\n", "not a qubit argument"
            ),
            "duplicate qubit": (
                "cx q[0],q[0];\n", "line 3, column 1: duplicate qubits"
            ),
            "wide broadcast": (
                "qreg r[200000];\nh r;", "line 3, column 8: registers"
            ),
            "wide register": (
                "qreg r[1000000];", "line 3, column 8: registers"
            ),
        }
        for name, base in [
            ("doubling", "x a;"), ("empty doubling", ""),
            ("barrier doubling", "barrier a;"),
        ]:
            bodies[name] = (
                f"gate g0 a {{ {base} }}\n" + doubling + "g40 q[0];\n",
                "more than",
            )
        try:
            with ServiceClient(socket_path) as client:
                for name, (body, message) in bodies.items():
                    hostile = {"qasm": "OPENQASM 2.0;\nqreg q[1];\n" + body}
                    reply = client._request({
                        "op": "submit", "pairs": [(hostile, good)],
                        "configuration": None,
                    })
                    assert reply["ok"] is False, name
                    assert reply["error"]["kind"] == "invalid_input", name
                    assert message in reply["error"]["message"], name
                    assert "line " in reply["error"]["message"], name
                    assert reply["error"]["message"].startswith(
                        "pairs[0].circuit1: "
                    ), name
                # The place of a bad circuit, and the reader's caret block
                # with its real line breaks.
                hostile = {
                    "qasm": "OPENQASM 2.0;\nqreg q[1];\nqreg r[1];\n"
                    "cx q[0],q[0];\n"
                }
                reply = client._request({
                    "op": "submit", "pairs": [(good, good), (good, hostile)],
                    "configuration": None,
                })
                assert reply["ok"] is False
                error = reply["error"]
                assert error["kind"] == "invalid_input"
                assert error["message"] == (
                    "pairs[1].circuit2: line 4, column 1: duplicate qubits "
                    "in operation: cx [0, 0]\n  cx q[0],q[0];\n  ^"
                )
                assert error["diagnostics"] == {"pair": 1, "circuit": 2}
                reply = client._request({
                    "op": "submit", "pairs": [(good, good)],
                    "configuration": {"num_simulations": 0},
                })
                assert reply["error"]["message"].startswith("configuration: ")
                assert client.ping()
        finally:
            with ServiceClient(socket_path) as closer:
                closer.shutdown_server()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert pool.audit()["leaked"] == 0


def _submit_raw(pair, configuration):
    """Verdict of one pair submitted as a raw request whose
    ``configuration`` payload is sent exactly as given."""
    pool = WorkerPool(PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF))
    server, thread, socket_path = _serve(pool)
    request = {
        "op": "submit",
        "pairs": [tuple(circuit_to_payload(circuit) for circuit in pair)],
        "configuration": configuration,
    }
    try:
        with ServiceClient(socket_path) as client:
            reply = client._request(request)
    finally:
        with ServiceClient(socket_path) as closer:
            closer.shutdown_server()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert pool.audit()["leaked"] == 0
    assert reply["ok"] is True, reply
    (result,) = reply["results"]
    return result["equivalence"]


class TestClientCannotForgeVerdicts:
    """A client's ``configuration`` carries no verdict threshold: keys
    such as ``fidelity_threshold`` are dropped like any unknown key, so
    the server decides with the fixed threshold."""

    @staticmethod
    def _without_t():
        return QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)

    def test_threshold_above_one_cannot_prove_a_missing_gate(self):
        with_t = self._without_t().t(2)
        verdict = _submit_raw(
            (with_t, self._without_t()),
            {"timeout": 10.0, "seed": 0, "fidelity_threshold": 2.0},
        )
        assert verdict == "not_equivalent"

    def test_negative_threshold_cannot_refute_a_copy(self):
        circuit = self._without_t().t(2)
        verdict = _submit_raw(
            (circuit, circuit.copy()),
            {"timeout": 10.0, "seed": 0, "fidelity_threshold": -1.0},
        )
        assert verdict == "equivalent"


class TestEventLoop:
    def test_pings_are_not_blocked_by_a_hanging_worker(self):
        pool = WorkerPool(
            PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)
        )
        # Submitted before the serve loop starts, so this thread may
        # still drive the pool; the only worker then hangs on it.
        pool.submit(
            *_pairs()[0], Configuration(timeout=10.0, seed=0),
            chaos=ChaosSpec(mode="hang"),
        )
        server, thread, socket_path = _serve(pool)
        try:
            with ServiceClient(socket_path) as client:
                assert client.ping()
                start = time.perf_counter()
                for _ in range(40):
                    assert client.ping()
                elapsed = time.perf_counter() - start
                stats = client.stats()
            names = {running.name for running in threading.enumerate()}
        finally:
            with ServiceClient(socket_path) as closer:
                closer.shutdown_server()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert stats["pending_jobs"] == 1  # the hang outlived the pings
        assert elapsed < 0.5
        assert "repro-service-accept" not in names
        assert pool.audit()["leaked"] == 0


@pytest.mark.chaos
class TestFailedFork:
    def test_server_keeps_answering_after_a_failed_respawn(
        self, failing_fork
    ):
        pool = WorkerPool(
            PoolConfig(workers=1, restart_backoff=_FAST_BACKOFF)
        ).start()
        (worker,) = multiprocessing.active_children()
        server, thread, socket_path = _serve(pool)
        try:
            with ServiceClient(socket_path) as client:
                assert client.ping()
                failing_fork()
                os.kill(worker.pid, signal.SIGKILL)
                results = client.submit_batch(
                    _pairs(), Configuration(timeout=10.0, seed=0)
                )
                assert client.ping()
                stats = client.stats()
        finally:
            with ServiceClient(socket_path) as closer:
                closer.shutdown_server()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert [payload["equivalence"] for payload in results] == [
            "equivalent",
            "equivalent",
        ]
        assert stats["counters"]["counters"]["service.worker_deaths"] == 2
        assert not stats["broken"]
        assert pool.audit()["leaked"] == 0
