"""``error-taxonomy``: harness/service error handling must use repro.errors.

The supervised checking service communicates failures across process
boundaries as :class:`repro.errors.CheckError` subclasses — the verdict
cache, retry policy, and quarantine all dispatch on ``kind`` and
``transient``.  An ad-hoc ``RuntimeError`` raised in the harness either
crashes a worker with an unclassifiable error or, worse, gets swallowed
by a broad handler and turns a crash into a silent ``NO_INFORMATION``.

Three checks, scoped to ``harness/`` and ``service/``:

* ``except:`` (bare) — always flagged; it catches ``SystemExit`` and
  ``KeyboardInterrupt`` and has no legitimate use here.
* ``except Exception:`` / ``except BaseException:`` that *swallows* —
  flagged unless the handler body re-raises, classifies
  (``classify_exception`` / ``classify_death`` / ``error_from_dict``),
  or is a worker-exit path (``os._exit``).  Logging alone is swallowing.
* ``raise X(...)`` of a class outside the taxonomy — allowed classes
  are the ``repro.errors`` hierarchy, stdlib contract errors
  (``ValueError``, ``TypeError``, ``KeyError``,
  ``NotImplementedError``), and exception classes defined in the same
  module (local taxonomies wrap the global one).  Bare ``raise`` and
  ``raise name`` re-raises are always fine.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, Project
from repro.lint.rules.base import Rule, iter_scopes

#: Stdlib exceptions allowed for caller-contract violations.
STDLIB_ALLOWED = {
    "ValueError",
    "TypeError",
    "KeyError",
    "NotImplementedError",
    "StopIteration",
    "AssertionError",
}

#: Calls in a handler body that count as classifying the exception.
CLASSIFIER_CALLS = {"classify_exception", "classify_death", "error_from_dict"}

#: Calls that mark a worker-exit path (the child reports via its exit
#: status, not an exception object).
EXIT_CALLS = {"_exit"}

SCOPE_PACKAGES = ("harness", "service")


def _taxonomy_classes(project: Project) -> Set[str]:
    """Exception class names defined in ``repro.errors``."""
    module = project.modules.get("repro.errors")
    classes: Set[str] = set()
    if module is None:
        return classes
    for stmt in module.tree.body:
        if isinstance(stmt, ast.ClassDef):
            classes.add(stmt.name)
    return classes


def _local_exception_classes(module: ModuleInfo) -> Set[str]:
    """Class names defined anywhere in this module."""
    return {
        node.name
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef)
    }


def _raised_class(raise_stmt: ast.Raise) -> Optional[str]:
    """Name of the class in ``raise X(...)`` / ``raise X``, else None.

    ``raise`` (bare) and ``raise variable`` where the variable is not a
    call return None — re-raises and pre-built errors are out of scope.
    """
    exc = raise_stmt.exc
    if exc is None:
        return None
    if isinstance(exc, ast.Call):
        func = exc.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in CLASSIFIER_CALLS:
            # ``raise classify_exception(exc)`` raises a taxonomy error
            # *by construction*.
            return None
        return name
    return None


def _handler_is_broad(handler: ast.ExceptHandler) -> Optional[str]:
    """'bare', 'Exception', 'BaseException', or None."""
    if handler.type is None:
        return "bare"
    names: List[str] = []
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for type_expr in types:
        if isinstance(type_expr, ast.Name):
            names.append(type_expr.id)
    for broad in ("BaseException", "Exception"):
        if broad in names:
            return broad
    return None


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """True if no path in the handler re-raises, classifies, or exits."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return False
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name in CLASSIFIER_CALLS or name in EXIT_CALLS:
                return False
    return True


class ErrorTaxonomyRule(Rule):
    """Harness/service errors must flow through the repro.errors taxonomy."""

    id = "error-taxonomy"

    def run(self, project: Project) -> List[Finding]:
        taxonomy = _taxonomy_classes(project)
        findings: List[Finding] = []
        for module in project.iter_modules():
            package = module.relpath.split("/", 1)[0]
            if package not in SCOPE_PACKAGES:
                continue
            local_classes = _local_exception_classes(module)
            allowed = taxonomy | STDLIB_ALLOWED | local_classes
            for cfg, info in iter_scopes(module):
                for node in cfg.statements():
                    stmt = node.stmt
                    if stmt is None:
                        continue
                    # Each ``except E:`` clause is its own CFG node, so
                    # handlers are anchored exactly once even when the
                    # try also has a finally (whose synthetic node
                    # borrows the same Try statement for location).
                    if node.kind == "except" and isinstance(
                        stmt, ast.ExceptHandler
                    ):
                        findings.extend(
                            self._check_handler(module, stmt, info)
                        )
                    elif node.kind == "stmt" and isinstance(stmt, ast.Raise):
                        name = _raised_class(stmt)
                        if name is None or name in allowed:
                            continue
                        findings.append(
                            self.finding(
                                module,
                                stmt.lineno,
                                f"raise {name}(...) bypasses the "
                                "repro.errors taxonomy; raise a CheckError "
                                "subclass (or a stdlib contract error) so "
                                "the supervisor can classify it",
                                info,
                            )
                        )
        return findings

    def _check_handler(
        self, module: ModuleInfo, handler: ast.ExceptHandler, info
    ) -> List[Finding]:
        broad = _handler_is_broad(handler)
        if broad is None:
            return []
        if broad == "bare":
            return [
                self.finding(
                    module,
                    handler.lineno,
                    "bare except: catches SystemExit/KeyboardInterrupt; "
                    "catch Exception (and re-raise or classify) instead",
                    info,
                )
            ]
        if _handler_swallows(handler):
            return [
                self.finding(
                    module,
                    handler.lineno,
                    f"except {broad}: swallows the exception; re-raise, "
                    "classify via repro.errors.classify_exception, or "
                    "narrow the handler",
                    info,
                )
            ]
        return []
