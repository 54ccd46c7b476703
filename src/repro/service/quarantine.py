"""Poison-pair quarantine: jobs that kill workers stop killing workers.

A *poison pair* is a job whose execution keeps destroying the worker
that runs it — a deterministic segfault in a native extension, a
non-cooperative hang that only the supervisor's SIGKILL ends, a memory
blowup that trips the address-space limit on every attempt.  Retrying
such a job forever would grind the pool into a restart loop; refusing
it once condemns transient environment hiccups.  The pool therefore
counts *worker-kill strikes* per job key and hands the job to the
quarantine after the configured strike budget (default two kills).

Quarantined pairs are persisted as self-contained records — canonical
QASM of both circuits, the configuration fingerprint and the full
failure taxonomy of every strike, the last of which is the degraded
answer — appended to a :class:`repro.harness.Journal`, so an operator
can replay them offline (``python -m repro verify --isolate``) and the
pool refuses to re-execute them across restarts: a resubmitted poison
pair is answered immediately from the record instead of costing another
worker.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Union

from repro.circuit import circuit_to_qasm
from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.harness.journal import Journal
from repro.service.cache import configuration_fingerprint

#: Journal header of the persisted quarantine (checked on reopen).
_QUARANTINE_METADATA = {"kind": "poison-quarantine", "format": 1}


class QuarantineStore:
    """Persisted registry of poison pairs, keyed like the verdict cache.

    Args:
        path: JSONL journal location, or ``None`` for in-memory only.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None) -> None:
        self._records: Dict[str, Dict[str, object]] = {}
        self._journal: Optional[Journal] = None
        if path is not None:
            self._journal = Journal(
                path, dict(_QUARANTINE_METADATA), resume=True
            )
            for key, payload in self._journal.completed.items():
                if isinstance(payload, dict):
                    self._records[key] = payload

    def quarantine(
        self,
        key: str,
        circuit1: QuantumCircuit,
        circuit2: QuantumCircuit,
        configuration: Configuration,
        strikes: List[Dict[str, object]],
    ) -> Dict[str, object]:
        """Record one poison pair; returns the persisted record."""
        record: Dict[str, object] = {
            "qasm1": circuit_to_qasm(circuit1),
            "qasm2": circuit_to_qasm(circuit2),
            "initial_layout1": dict(circuit1.initial_layout or {}),
            "initial_layout2": dict(circuit2.initial_layout or {}),
            "output_permutation1": dict(circuit1.output_permutation or {}),
            "output_permutation2": dict(circuit2.output_permutation or {}),
            "configuration_fingerprint": configuration_fingerprint(
                configuration
            ),
            "strategy": configuration.strategy,
            "strikes": [dict(strike) for strike in strikes],
        }
        self._records[key] = record
        if self._journal is not None:
            self._journal.record(key, record)
        return record

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self._records.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Dict[str, Dict[str, object]]:
        """A snapshot of every quarantined record, keyed by cache key."""
        return {key: dict(record) for key, record in self._records.items()}

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "QuarantineStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
