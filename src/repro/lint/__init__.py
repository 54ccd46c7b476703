"""Flow-sensitive static analysis of the repro codebase itself.

Where :mod:`repro.analysis` analyses *quantum circuits*, this package
analyses the *project's own source* — it enforces the soundness and
resource invariants that the equivalence-checking paradigms depend on
(probabilistic evidence never laundered into proven verdicts, acquired
descriptors released on every path, cooperative deadlines threaded
through every fixpoint loop, errors classified through the taxonomy).

Layers:

``cfg``
    Per-function control-flow graphs from :mod:`ast`, with exception
    and ``finally`` edges.
``solver``
    Generic forward worklist fixpoint solver plus post-dominators and
    control dependence.
``project``
    Whole-project model: modules, functions, imports, static call
    resolution.
``rules``
    The rule set (syntactic call-pattern rules and the dataflow rules).
``engine``
    Orchestration: run the rules, apply the inline
    ``# repro: allow(<rule-id>): <reason>`` suppressions, report dead
    ones as ``stale-allow``.
``cli``
    The ``tools/check_repro.py`` command line.
"""

from __future__ import annotations

from repro.lint.cfg import CFG, CFGNode, build_cfg
from repro.lint.engine import LintReport, run_lint
from repro.lint.findings import Finding
from repro.lint.project import FunctionInfo, ModuleInfo, Project
from repro.lint.rules import Rule, default_rules
from repro.lint.solver import (
    DataflowResult,
    control_dependence,
    postdominators,
    solve_forward,
)
from repro.lint.suppressions import Suppression, SuppressionIndex

__all__ = [
    "CFG",
    "CFGNode",
    "DataflowResult",
    "Finding",
    "FunctionInfo",
    "LintReport",
    "ModuleInfo",
    "Project",
    "Rule",
    "Suppression",
    "SuppressionIndex",
    "build_cfg",
    "control_dependence",
    "default_rules",
    "postdominators",
    "run_lint",
    "solve_forward",
]
