"""Structured result of a static analysis run, plus CLI rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.gateset import FRAGMENT_CLIFFORD, GateSetProfile
from repro.ec.portfolio import plan

#: Verdict labels — the only sound conclusions the analyzer ever emits.
VERDICT_NOT_EQUIVALENT = "not_equivalent"
VERDICT_EQUIVALENT_UP_TO_GLOBAL_PHASE = "equivalent_up_to_global_phase"
VERDICT_UNDECIDED = "undecided"


@dataclass(frozen=True)
class StaticAnalysisReport:
    """Everything the four passes learned about one circuit pair.

    Attributes:
        verdict: One of the ``VERDICT_*`` labels.  Anything other than
            ``undecided`` is a *sound* conclusion backed by ``witness``.
        witness: The deciding evidence — for ``not_equivalent``, names
            the pass, the wires/fragment involved and a concrete defect;
            for the global-phase proof, the deciding pass.
        profiles: Gate-set profile per circuit.
        support: Pass-1 summary (idle wires, compared local factors).
        interaction: Pass-2 summary (fingerprints, union components).
        phase_polynomial: Pass-4 details (term counts, comparison kind).
        passes_run: Names of the passes that actually executed.
        time: Wall-clock seconds spent inside the analyzer.
    """

    verdict: str
    witness: Optional[Dict[str, object]]
    profiles: Tuple[GateSetProfile, GateSetProfile]
    support: Dict[str, object]
    interaction: Dict[str, object]
    phase_polynomial: Dict[str, object]
    passes_run: Tuple[str, ...] = field(default=())
    time: float = 0.0

    @property
    def is_sound_neq(self) -> bool:
        return self.verdict == VERDICT_NOT_EQUIVALENT

    @property
    def is_sound_eq(self) -> bool:
        return self.verdict == VERDICT_EQUIVALENT_UP_TO_GLOBAL_PHASE

    @property
    def clifford(self) -> bool:
        """The gateset pass proved both circuits Clifford."""
        return all(p.fragment == FRAGMENT_CLIFFORD for p in self.profiles)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary — the ``statistics["analysis"]`` block."""
        payload: Dict[str, object] = {
            "verdict": self.verdict,
            "passes_run": list(self.passes_run),
            "time": round(self.time, 6),
            "fragments": [p.fragment for p in self.profiles],
            "lanes": list(plan(self.clifford)),
        }
        if self.witness is not None:
            payload["witness"] = dict(self.witness)
        return payload

    def detail_dict(self) -> Dict[str, object]:
        """Full nested report for ``repro analyze --json``."""
        payload = self.to_dict()
        payload.update(
            {
                "profiles": [p.to_dict() for p in self.profiles],
                "support": dict(self.support),
                "interaction": dict(self.interaction),
                "phase_polynomial": dict(self.phase_polynomial),
            }
        )
        return payload


def format_report(report: StaticAnalysisReport) -> str:
    """Human-readable multi-line rendering for the ``analyze`` verb."""
    lines: List[str] = []
    lines.append(f"verdict:   {report.verdict}")
    if report.witness is not None:
        parts = ", ".join(
            f"{key}={value}"
            for key, value in report.witness.items()
            if key != "pass"
        )
        lines.append(
            f"witness:   [{report.witness.get('pass', '?')}] {parts}"
        )
    for i, profile in enumerate(report.profiles, start=1):
        lines.append(
            f"circuit {i}: fragment={profile.fragment} "
            f"gates={profile.num_gates} clifford={profile.clifford_gates} "
            f"t={profile.t_like_gates} rotations={profile.rotation_gates} "
            f"2q={profile.two_qubit_gates}"
        )
    fingerprints = report.interaction.get("fingerprints")
    if fingerprints:
        match = "match" if len(set(fingerprints)) == 1 else "differ"
        lines.append(f"topology:  fingerprints {match}")
    components = report.interaction.get("components")
    if components:
        lines.append(
            f"fragments: {len(components)} isolated component(s), "
            f"{report.interaction.get('fragments_compared', 0)} compared"
        )
    lines.append(f"plan:      {', '.join(plan(report.clifford))}")
    lines.append(
        f"passes:    {', '.join(report.passes_run)} "
        f"({report.time * 1000:.2f} ms)"
    )
    return "\n".join(lines)
