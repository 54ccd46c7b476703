#!/usr/bin/env python3
"""Project-invariant lint of the repro codebase (``make lint``).

The engine lives in ``src/repro/lint``; this script only puts ``src`` on
``sys.path`` and runs :func:`repro.lint.cli.main`.  See
``python tools/check_repro.py --help`` for ``--root`` and ``--json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.lint.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
