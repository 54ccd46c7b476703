"""The lint engine: run rules, apply suppressions, report dead ones.

Pipeline per run:

1. Load the :class:`~repro.lint.project.Project` (every module under
   ``src/repro``) and run every rule to collect *raw* findings.
2. Filter findings through the per-file ``# repro: allow`` suppressions
   (marking the ones that matched as used).
3. Emit a ``stale-allow`` finding for every suppression that matched
   nothing — dead suppressions are themselves violations.

Every finding that survives is actionable.  The one way to accept a
deliberate exception is an inline ``# repro: allow(<rule-id>): <reason>``
on, or directly above, the flagged line; the rule id is the key.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.lint.findings import Finding
from repro.lint.project import Project
from repro.lint.rules import Rule, default_rules

#: Rule id of the dead-suppression findings the engine itself emits.
STALE_ALLOW = "stale-allow"


class LintReport:
    """Everything one engine run found: non-empty means the lint fails."""

    def __init__(self, findings: List[Finding]) -> None:
        self.findings = findings

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
        }


def run_lint(root: Path, rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Run the engine over ``<root>/src/repro``."""
    project = Project(root)
    active_rules = list(rules) if rules is not None else default_rules()

    raw: List[Finding] = []
    for path, error in project.broken:
        raw.append(
            Finding(
                path,
                error.lineno or 1,
                "syntax-error",
                f"file does not parse: {error.msg}",
            )
        )
    for rule in active_rules:
        raw.extend(rule.run(project))

    # Suppression filtering (marks matched suppressions as used).
    modules = {module.path: module for module in project.iter_modules()}
    kept: List[Finding] = []
    for finding in raw:
        module = modules.get(finding.path)
        if module is not None and module.suppressions.suppresses(
            finding.rule, finding.line
        ):
            continue
        kept.append(finding)

    # Dead suppressions are findings of their own.
    for module in project.iter_modules():
        for suppression in module.suppressions.stale():
            kept.append(
                Finding(
                    module.path,
                    suppression.line,
                    STALE_ALLOW,
                    f"suppression for rule {suppression.rule!r} matches no "
                    "finding; delete it (or fix the rule id)",
                )
            )

    kept.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return LintReport(kept)
