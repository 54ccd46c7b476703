#!/usr/bin/env python
"""End-to-end smoke test of the supervised equivalence-checking service.

Starts a real :class:`repro.service.server.ServiceServer` (worker pool,
verdict cache, ``AF_UNIX`` socket) in a background thread, submits the
same 20-pair batch twice through a :class:`repro.service.ServiceClient`,
with one malformed submit and one raw message that is not JSON from a
second client in between, and asserts:

* every verdict in both batches is equivalent (up to global phase);
* the malformed submit and the undecodable message are each answered
  ``invalid_input`` and the server keeps serving;
* the second batch is served (almost) entirely from the verdict cache —
  at least 19 of 20 hits, i.e. the cache key is stable across submits;
* cached and fresh verdicts agree pairwise on the equivalence field;
* the draining shutdown leaves no worker children behind (pool audit
  reports zero leaked processes) and removes the socket.

Exit code 0 on success, 1 with a diagnostic on any violated invariant.
Run as ``make serve-smoke`` or ``python tools/serve_smoke.py``; CI wires
it into the smoke job.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ec.configuration import Configuration  # noqa: E402
from repro.fuzz.generator import generate_instance  # noqa: E402
from repro.service import (  # noqa: E402
    PoolConfig,
    ServiceClient,
    ServiceServer,
    VerdictCache,
    WorkerPool,
)

PAIRS = 20

#: A submit whose first circuit does not parse.
MALFORMED = {
    "op": "submit",
    "pairs": [
        (
            {"qasm": "OPENQASM 2.0; qreg q[1]; bogus q[0];"},
            {"qasm": "OPENQASM 2.0; qreg q[1];"},
        )
    ],
    "configuration": None,
}

#: A message that is not JSON (here: the start of a pickle).
GARBAGE = b"\x80\x04not a pickle"


def _fail(message: str) -> "NoReturn":  # type: ignore[name-defined]  # noqa: F821
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    pairs = []
    seed = 7_000
    while len(pairs) < PAIRS:
        # Equivalent-by-construction pairs only (the generator also emits
        # planted-bug recipes); seeds are fixed so the batch (and its
        # cache keys) never varies between runs.
        _instance, pair = generate_instance(seed, "clifford_t")
        seed += 1
        if pair.label == "equivalent":
            pairs.append((pair.circuit1, pair.circuit2))

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        socket_path = str(Path(tmp) / "service.sock")
        pool = WorkerPool(
            PoolConfig(workers=2, queue_depth=64),
            cache=VerdictCache(Path(tmp) / "cache.jsonl"),
        )
        server = ServiceServer(pool, socket_path).start()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            configuration = Configuration(timeout=10.0, seed=11)
            with ServiceClient(socket_path) as client:
                if not client.ping():
                    _fail("server did not answer ping")
                first = client.submit_batch(pairs, configuration)
                with ServiceClient(socket_path) as intruder:
                    rejected = intruder._request(MALFORMED)
                    intruder._conn.send_bytes(GARBAGE)
                    undecodable = json.loads(intruder._conn.recv_bytes())
                second = client.submit_batch(pairs, configuration)
                stats = client.stats()
        finally:
            try:
                with ServiceClient(socket_path) as closer:
                    closer.shutdown_server()
            except OSError:
                server.request_stop()
            thread.join(timeout=60.0)

        if thread.is_alive():
            _fail("serve loop did not drain and exit within 60s")
        if (rejected.get("error") or {}).get("kind") != "invalid_input":
            _fail(f"malformed submit was not rejected as invalid_input: {rejected}")
        if (undecodable.get("error") or {}).get("kind") != "invalid_input":
            _fail(
                "undecodable message was not rejected as invalid_input: "
                f"{undecodable}"
            )
        for label, batch in (("first", first), ("second", second)):
            if len(batch) != PAIRS:
                _fail(f"{label} batch returned {len(batch)}/{PAIRS} verdicts")
            wrong = [
                payload["equivalence"]
                for payload in batch
                if payload["equivalence"]
                not in ("equivalent", "equivalent_up_to_global_phase")
            ]
            if wrong:
                _fail(f"{label} batch had non-equivalent verdicts: {wrong}")
        for index, (fresh, cached) in enumerate(zip(first, second)):
            if fresh["equivalence"] != cached["equivalence"]:
                _fail(f"pair {index}: cached verdict diverged from fresh one")
        counters = stats["counters"]["counters"]
        hits = counters.get("cache.hit", 0)
        if hits < PAIRS - 1:
            _fail(
                f"second batch expected ~{PAIRS} cache hits, got {hits} "
                f"(counters: {counters})"
            )
        audit = pool.audit()
        if audit["leaked"]:
            _fail(f"pool leaked worker processes: {audit}")
        if Path(socket_path).exists():
            _fail("socket file survived the draining shutdown")

    print(
        f"serve-smoke: OK — {PAIRS} pairs twice, {hits} cache hits, "
        "1 malformed submit and 1 undecodable message rejected, "
        f"{audit['spawned']} workers spawned, "
        "0 leaked"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
