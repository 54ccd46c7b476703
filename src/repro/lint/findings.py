"""Finding records of the :mod:`repro.lint` engine.

A :class:`Finding` is one rule violation at one source location:
``path``/``line``/``rule``/``message``, the ``str()`` rendering the
command line prints, and a ``to_dict`` wire format for the ``--json``
report.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional


class Finding:
    """One rule violation at a source location."""

    def __init__(
        self,
        path: Path,
        line: int,
        rule: str,
        message: str,
        *,
        function: Optional[str] = None,
    ) -> None:
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        #: Qualified name of the enclosing function, when the rule knows it.
        self.function = function

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Finding({str(self)!r})"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe view for the ``--json`` findings report."""
        return {
            "rule": self.rule,
            "path": str(self.path),
            "line": self.line,
            "function": self.function,
            "message": self.message,
        }
