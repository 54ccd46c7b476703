"""Shared contract and helpers of all lint rules."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.cfg import CFG, CFGNode
from repro.lint.findings import Finding
from repro.lint.project import FunctionInfo, ModuleInfo, Project


class Rule:
    """One project-invariant check.

    ``run`` receives the whole :class:`Project` and returns raw findings
    — *without* applying suppressions; the engine filters them so it can
    also detect suppressions that no longer suppress anything
    (``stale-allow``).
    """

    #: Stable rule identifier, the key of its inline suppressions.
    id: str = ""

    def run(self, project: Project) -> List[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        line: int,
        message: str,
        function: Optional[FunctionInfo] = None,
    ) -> Finding:
        return Finding(
            module.path,
            line,
            self.id,
            message,
            function=None if function is None else function.qname,
        )


def iter_scopes(
    module: ModuleInfo,
) -> Iterator[Tuple[CFG, Optional[FunctionInfo]]]:
    """Every CFG of a module: the module body, then each function."""
    yield module.module_cfg, None
    for _name, info in sorted(module.functions.items()):
        yield info.cfg, info


def iter_call_sites(
    module: ModuleInfo,
) -> Iterator[Tuple[CFGNode, ast.Call, Optional[FunctionInfo]]]:
    """Every call expression in a module, with its CFG node and scope."""
    for cfg, info in iter_scopes(module):
        for node in cfg.statements():
            for call in node.calls():
                yield node, call, info
