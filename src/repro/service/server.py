"""Local-socket batch API over a :class:`~repro.service.pool.WorkerPool`.

``python -m repro serve`` listens on an ``AF_UNIX`` socket and serves
*batches* over ``multiprocessing.connection`` framing: a client
submits a list of circuit pairs plus one configuration and receives the
list of verdict payloads when every job has resolved.  Every message is
one JSON document (``send_bytes``/``recv_bytes``), so the server never
unpickles what a client sends, and a message that does not decode is
answered ``invalid_input`` like any other malformed request.  Circuits
cross the socket as canonical OpenQASM plus layout metadata — the same
serialization the verdict cache keys on.

Backpressure is explicit: when accepting a batch would push the pool
past its bounded queue depth, the server answers ``busy`` with a
``retry_after`` estimate instead of buffering unboundedly
(:class:`~repro.errors.PoolSaturated` semantics;
:meth:`ServiceClient.submit_batch` sleeps and retries automatically).
Shutdown is *draining*: on SIGINT/SIGTERM (or a client ``shutdown``
request) the server stops accepting new batches, resolves every job in
flight, answers the clients that are owed replies, and only then tears
the pool down — no job is ever silently dropped.

Concurrency model: one thread, one event loop, which is the pool's only
owner.  Each turn is one :meth:`WorkerPool.pump`, whose single wait
covers the listening socket, every client connection and every worker
pipe; the loop then accepts, reads and answers exactly what became
ready.  A request is handled as soon as it arrives, even while every
worker is busy, and the pool needs no locks.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import socket
import time
from multiprocessing.connection import Client, Connection
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.circuit import circuit_from_qasm, circuit_to_qasm
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.qasm import layout_from_json
from repro.ec.configuration import Configuration
from repro.errors import CheckError, InvalidInput, PoolSaturated
from repro.service.pool import WorkerPool

#: Address family of the service socket (clients pass it to ``Client``).
_FAMILY = "AF_UNIX"

DEFAULT_SOCKET = "repro-service.sock"


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
def _encode(message: object) -> bytes:
    """One wire message, in the verdict cache's JSON convention."""
    return json.dumps(message, default=repr).encode()


def _decode(message: bytes) -> object:
    """Parse one request; a message that is not JSON is malformed."""
    try:
        return json.loads(message)
    except ValueError as error:
        raise InvalidInput(f"undecodable request: {error}") from error


def circuit_to_payload(circuit: QuantumCircuit) -> Dict[str, object]:
    """Serialize one circuit for the socket (QASM + layout metadata)."""
    return {
        "qasm": circuit_to_qasm(circuit),
        "initial_layout": dict(circuit.initial_layout or {}),
        "output_permutation": dict(circuit.output_permutation or {}),
    }


def circuit_from_payload(payload: Dict[str, Any]) -> QuantumCircuit:
    """Reconstruct one circuit sent with :func:`circuit_to_payload`.

    Raises:
        KeyError: The payload has no ``qasm``.
        ValueError: The QASM does not parse, or the layout is not what
            :func:`~repro.circuit.qasm.layout_from_json` reads.
    """
    circuit = circuit_from_qasm(str(payload["qasm"]))
    circuit.initial_layout, circuit.output_permutation = layout_from_json(
        payload
    )
    return circuit


def configuration_to_payload(
    configuration: Optional[Configuration],
) -> Optional[Dict[str, object]]:
    if configuration is None:
        return None
    return dataclasses.asdict(configuration)


def configuration_from_payload(
    payload: Optional[Dict[str, Any]],
) -> Optional[Configuration]:
    if payload is None:
        return None
    known = {field.name for field in dataclasses.fields(Configuration)}
    return Configuration(
        **{key: value for key, value in dict(payload).items() if key in known}
    )


def _located(place: str, error: Exception) -> str:
    """The message of one malformed part of a request, after its place.

    ``str(error)`` keeps a reader error's caret block intact; a missing
    key says which.
    """
    if isinstance(error, KeyError):
        return f"{place}: missing key {error.args[0]!r}"
    return f"{place}: {error}"


def batch_from_payload(
    request: Dict[str, Any],
) -> Tuple[List[Tuple[QuantumCircuit, QuantumCircuit]], Optional[Configuration]]:
    """Decode a whole ``submit`` request before any of it is admitted.

    Raises:
        InvalidInput: Any pair or the configuration is malformed.  The
            message starts with the place, ``configuration:`` or
            ``pairs[i].circuitN:``, and the diagnostics carry ``pair``
            and ``circuit``.
    """
    try:
        configuration = configuration_from_payload(request.get("configuration"))
        if configuration is not None:
            configuration.validate()
    except (KeyError, TypeError, ValueError) as error:
        raise InvalidInput(_located("configuration", error)) from error
    pairs = []
    try:
        payloads = list(request.get("pairs") or [])
    except TypeError as error:
        raise InvalidInput(_located("pairs", error)) from error
    for index, pair in enumerate(payloads):
        try:
            payload1, payload2 = pair
        except (TypeError, ValueError) as error:
            raise InvalidInput(
                _located(f"pairs[{index}]", error), pair=index
            ) from error
        circuits = []
        for number, payload in enumerate((payload1, payload2), 1):
            try:
                circuits.append(circuit_from_payload(payload))
            except (KeyError, TypeError, ValueError) as error:
                raise InvalidInput(
                    _located(f"pairs[{index}].circuit{number}", error),
                    pair=index, circuit=number,
                ) from error
        pairs.append((circuits[0], circuits[1]))
    return pairs, configuration


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
class _PendingBatch:
    """One accepted batch still owed a reply."""

    __slots__ = ("conn", "job_ids")

    def __init__(self, conn: Connection, job_ids: List[int]) -> None:
        self.conn = conn
        self.job_ids = job_ids


class ServiceServer:
    """Serve batch equivalence checks over a local socket.

    Args:
        pool: The supervised worker pool (owned by this server: the
            serve loop is its only caller).
        socket_path: Filesystem path of the ``AF_UNIX`` socket.
    """

    def __init__(self, pool: WorkerPool, socket_path: str) -> None:
        self.pool = pool
        self.socket_path = str(socket_path)
        self._listener: Optional[socket.socket] = None
        self._stopping = False
        self._clients: List[Connection] = []
        self._pending: List[_PendingBatch] = []

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ServiceServer":
        if os.path.exists(self.socket_path):
            # A stale socket from a crashed predecessor; binding over it
            # requires the unlink (AF_UNIX sockets are filesystem nodes).
            os.unlink(self.socket_path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(self.socket_path)
            listener.listen()
        except OSError:
            listener.close()
            raise
        listener.setblocking(False)
        self._listener = listener
        self.pool.start()
        return self

    def request_stop(self, *_signal_args: object) -> None:
        """Begin a draining shutdown (signal-handler compatible).

        The serve loop sees the request when its current wait ends,
        which the pool caps at ``_MAX_POLL_SECONDS``.
        """
        self._stopping = True

    def install_signal_handlers(self) -> None:
        signal.signal(signal.SIGINT, self.request_stop)
        signal.signal(signal.SIGTERM, self.request_stop)

    # -- serve loop -----------------------------------------------------
    def serve_forever(self) -> None:
        """Run until a stop is requested, then drain and tear down."""
        if self._listener is None:
            self.start()
        try:
            while not self._stopping:
                self._step()
            # Draining shutdown: stop accepting, finish what was
            # admitted, answer everyone who is owed a reply.
            self._close_listener()
            deadline = time.monotonic() + 60.0
            while self._pending and time.monotonic() < deadline:
                self._step()
        finally:
            self._close_listener()
            for conn in self._clients:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
            self._clients.clear()
            self.pool.shutdown(drain=False)
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)

    def _close_listener(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
            self._listener = None

    def _step(self) -> None:
        """One serve-loop turn: reply, wait on everything, handle, reply.

        Cache hits and quarantine answers resolve inside ``submit``, so
        the closing reply sends them in the turn their request arrived.
        """
        self._reply_finished()
        watch: List[Any] = list(self._clients)
        if self._listener is not None:
            watch.append(self._listener)
        for ready in self.pool.pump(watch=watch):
            if ready is self._listener:
                self._accept_pending(ready)
                continue
            try:
                self._handle_request(ready, ready.recv_bytes())
            except (EOFError, OSError):
                self._drop_client(ready)
        self._reply_finished()

    def _accept_pending(self, listener: socket.socket) -> None:
        """Accept every connection waiting on the listening socket."""
        while True:
            try:
                sock = listener.accept()[0]
            except OSError:  # none left (BlockingIOError) or it vanished
                return
            # The framing of multiprocessing.connection, as Listener.accept
            # builds it when there is no authkey.
            sock.setblocking(True)
            self._clients.append(Connection(sock.detach()))

    def _drop_client(self, conn: Connection) -> None:
        if conn in self._clients:
            self._clients.remove(conn)
        # Jobs of a vanished client still run (the pool may cache their
        # verdicts) but the reply is no longer owed.
        for batch in list(self._pending):
            if batch.conn is conn:
                self._pending.remove(batch)
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass

    def _handle_request(self, conn: Connection, message: bytes) -> None:
        try:
            reply = self._answer(conn, _decode(message))
        except CheckError as error:
            reply = {"ok": False, "error": error.to_dict()}
        if reply is not None:
            conn.send_bytes(_encode(reply))

    def _answer(
        self, conn: Connection, request: object
    ) -> Optional[Dict[str, Any]]:
        """The reply to one request; None for a batch still in flight."""
        if not isinstance(request, dict):
            raise InvalidInput(
                f"a request is a dict, not {type(request).__name__}"
            )
        op = request.get("op")
        if op == "submit":
            return self._submit(conn, request)
        if op == "stats":
            return {
                "ok": True,
                "counters": self.pool.counters.as_dict(),
                "pending_jobs": self.pool.pending_jobs,
                "quarantined": len(self.pool.quarantine),
                "broken": self.pool.broken,
            }
        if op == "ping":
            return {"ok": True}
        if op == "shutdown":
            self.request_stop()
            return {"ok": True, "stopping": True}
        raise InvalidInput(f"unknown op {op!r}")

    def _submit(
        self, conn: Connection, request: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        pairs, configuration = batch_from_payload(request)
        # Admission control up front: a batch is admitted whole or
        # rejected whole, so a client never gets a half-submitted batch.
        if len(pairs) > self.pool.capacity_left():
            self.pool.counters.count("service.rejected_busy")
            retry_after = self.pool.retry_after_estimate()
            return {
                "ok": False,
                "busy": True,
                "retry_after": retry_after,
                "error": PoolSaturated(
                    "job queue is full", retry_after=retry_after
                ).to_dict(),
            }
        job_ids = [
            self.pool.submit(circuit1, circuit2, configuration)
            for circuit1, circuit2 in pairs
        ]
        self._pending.append(_PendingBatch(conn, job_ids))
        return None

    def _reply_finished(self) -> None:
        for batch in list(self._pending):
            results = [self.pool.result(job_id) for job_id in batch.job_ids]
            if any(result is None for result in results):
                continue
            self._pending.remove(batch)
            payload = {
                "ok": True,
                "results": [result.to_dict() for result in results],  # type: ignore[union-attr]
            }
            for job_id in batch.job_ids:
                self.pool.forget(job_id)
            try:
                batch.conn.send_bytes(_encode(payload))
            except (BrokenPipeError, OSError):
                self._drop_client(batch.conn)


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class ServiceClient:
    """Blocking client of one :class:`ServiceServer` socket."""

    def __init__(self, socket_path: str) -> None:
        self.socket_path = str(socket_path)
        self._conn: Connection = Client(self.socket_path, family=_FAMILY)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def _request(self, payload: Dict[str, object]) -> Dict[str, Any]:
        self._conn.send_bytes(_encode(payload))
        return json.loads(self._conn.recv_bytes())

    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}).get("ok"))

    def stats(self) -> Dict[str, Any]:
        return self._request({"op": "stats"})

    def shutdown_server(self) -> Dict[str, Any]:
        return self._request({"op": "shutdown"})

    def submit_batch(
        self,
        pairs: List[Tuple[QuantumCircuit, QuantumCircuit]],
        configuration: Optional[Configuration] = None,
        max_attempts: int = 10,
        sleep: Callable[[float], None] = time.sleep,
    ) -> List[Dict[str, Any]]:
        """Submit one batch; returns verdict payloads in order.

        ``busy`` rejections are retried up to ``max_attempts`` times,
        honouring the server's ``retry_after`` hint; a still-saturated
        service then raises :class:`~repro.errors.PoolSaturated`.
        """
        request = {
            "op": "submit",
            "pairs": [
                (circuit_to_payload(circuit1), circuit_to_payload(circuit2))
                for circuit1, circuit2 in pairs
            ],
            "configuration": configuration_to_payload(configuration),
        }
        for _attempt in range(max_attempts):
            reply = self._request(request)
            if reply.get("ok"):
                return list(reply["results"])
            if reply.get("busy"):
                sleep(float(reply.get("retry_after", 0.1)))
                continue
            from repro.errors import error_from_dict

            raise error_from_dict(reply.get("error") or {})
        raise PoolSaturated(
            "service still saturated after retries", attempts=max_attempts
        )
