"""Content-addressed verdict memoization for the checking service.

Repeated CI traffic overwhelmingly re-checks *identical* circuit pairs
(the same compiled artifact verified on every push), so the service
deduplicates by content: a cache key is derived from the canonical
OpenQASM serialization of both circuits (plus their layout metadata,
which changes the verdict) and a fingerprint of every
:class:`~repro.ec.configuration.Configuration` field.  Two textually
different submissions that parse to the same circuit under the same
configuration therefore share one cache line; any semantic difference —
a gate, an angle, a layout entry, a strategy knob — changes the key.

Persistence is crash-safe by construction: entries are appended to a
:class:`repro.harness.Journal` (fsync per entry, torn-line tolerant)
and each entry carries a sha256 checksum of its verdict payload.  On
startup the journal is replayed; entries with missing or wrong
checksums are dropped and counted, and a dirty replay triggers an
atomic compaction (write-temp-then-rename with a parent-directory
fsync, :meth:`repro.harness.Journal.compact`) so corruption never
accumulates.  A cache is an accelerator, not an oracle: losing an entry
costs one recheck, never a wrong verdict.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Optional, Union

from repro.circuit import circuit_to_qasm
from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.harness.journal import Journal
from repro.perf import PerfCounters

#: Journal header of the persisted cache (checked on reopen).
_CACHE_METADATA = {"kind": "verdict-cache", "format": 1}

#: Domain separator of the key derivation, bumped on any layout change.
_KEY_DOMAIN = b"repro-verdict-cache-v1"


def configuration_fingerprint(configuration: Configuration) -> str:
    """sha256 over every configuration field, as a stable hex digest.

    All fields participate, including operational ones (retries, memory
    limits) that cannot change a verdict: a coarser key can only cost
    extra misses, while a hand-curated "semantic fields only" list would
    silently go stale the first time a new field lands.
    """
    payload = json.dumps(
        dataclasses.asdict(configuration), sort_keys=True, default=repr
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _circuit_digest(circuit: QuantumCircuit) -> bytes:
    """Canonical content digest of one circuit, layout metadata included."""
    digest = hashlib.sha256()
    digest.update(circuit_to_qasm(circuit).encode())
    digest.update(b"\x00")
    layout = {
        "initial_layout": circuit.initial_layout or {},
        "output_permutation": circuit.output_permutation or {},
    }
    digest.update(json.dumps(layout, sort_keys=True, default=repr).encode())
    return digest.digest()


def cache_key(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Configuration,
) -> str:
    """Content-addressed key of one (pair, configuration) check.

    The pair is *ordered* — checking (A, B) and (B, A) are distinct
    jobs (statistics differ even though verdicts agree), so the key
    deliberately does not symmetrize.
    """
    digest = hashlib.sha256()
    digest.update(_KEY_DOMAIN)
    digest.update(_circuit_digest(circuit1))
    digest.update(_circuit_digest(circuit2))
    digest.update(configuration_fingerprint(configuration).encode())
    return digest.hexdigest()


def _payload_checksum(result: Dict[str, object]) -> str:
    return hashlib.sha256(
        json.dumps(result, sort_keys=True, default=repr).encode()
    ).hexdigest()


class VerdictCache:
    """Verdict store keyed by :func:`cache_key`, optionally persistent.

    Args:
        path: JSONL journal location, or ``None`` for a purely in-memory
            cache (the service default when no ``--cache`` is given).
        counters: Shared :class:`~repro.perf.PerfCounters` receiving the
            ``cache.*`` counter family; a private instance is created
            when omitted.

    Only *trustworthy* results are admitted: :meth:`put` rejects
    degraded results (those carrying a ``statistics["failure"]``
    record), because an environment hiccup must not be replayed as if
    it were a property of the pair.
    """

    def __init__(
        self,
        path: Optional[Union[str, os.PathLike]] = None,
        counters: Optional[PerfCounters] = None,
    ) -> None:
        self.counters = counters if counters is not None else PerfCounters()
        self._entries: Dict[str, Dict[str, object]] = {}
        self._journal: Optional[Journal] = None
        if path is not None:
            self._journal = Journal(path, dict(_CACHE_METADATA), resume=True)
            self._recover()

    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Validate replayed entries; compact away any corruption."""
        assert self._journal is not None
        rejected = 0
        for key, payload in list(self._journal.completed.items()):
            result = payload.get("result")
            checksum = payload.get("sha256")
            if (
                isinstance(result, dict)
                and isinstance(checksum, str)
                and _payload_checksum(result) == checksum
            ):
                self._entries[key] = result
            else:
                rejected += 1
                del self._journal.completed[key]
        if rejected:
            self.counters.count("cache.rejected_checksum", rejected)
        if self._entries:
            self.counters.count("cache.recovered", len(self._entries))
        if rejected or self._journal.corrupt_lines:
            # A torn tail or checksum failure means the file holds junk
            # bytes; rewrite it atomically so corruption cannot pile up.
            self._journal.compact()
            self.counters.count("cache.compactions")

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached verdict payload (a ``result.to_dict()``), or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.counters.count("cache.miss")
            return None
        self.counters.count("cache.hit")
        # A copy: callers decorate results with per-run statistics.
        return json.loads(json.dumps(entry))

    def put(self, key: str, result: Dict[str, object]) -> bool:
        """Admit one verdict payload; returns False when rejected."""
        statistics = result.get("statistics")
        if isinstance(statistics, dict) and "failure" in statistics:
            self.counters.count("cache.rejected_degraded")
            return False
        entry = json.loads(json.dumps(result, default=repr))
        self._entries[key] = entry
        self.counters.count("cache.store")
        if self._journal is not None:
            self._journal.record(
                key, {"result": entry, "sha256": _payload_checksum(entry)}
            )
        return True

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "VerdictCache":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
