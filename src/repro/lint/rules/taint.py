"""``soundness-taint``: probabilistic evidence must never become a proof.

The project's verdict ladder (:class:`repro.ec.results.Equivalence`)
distinguishes *proofs* (``EQUIVALENT``, ``EQUIVALENT_UP_TO_GLOBAL_PHASE``,
``NOT_EQUIVALENT``) from *evidence* (``PROBABLY_EQUIVALENT``).  The rule
enforces the ladder as a dataflow property: values derived from random
draws (seeded or not — randomness is about evidence strength, not
reproducibility here) must not decide a proven-verdict construction.

Taint bits:

``prob``
    Derived from an RNG draw, a generated stimulus, or a random
    instantiation (``check_instantiated_random`` and friends).
``witness``
    The probabilistic value went through a *witness extractor* — a
    computation (``fidelity``, the overlap ``inner_product``,
    counterexample verification) whose *disagreement* is a
    deterministic proof.  A fidelity drop between two exact simulations
    of one random stimulus, or two stimuli whose overlaps differ in
    phase, refutes equivalence no matter how the stimuli were chosen, so
    ``prob+witness`` may justify ``NOT_EQUIVALENT`` — but never a
    positive proof: agreement of any number of random stimuli remains
    evidence.

Flows tracked: assignments (including tuple unpacking and ``for``
targets), expression composition, one level of interprocedural return
summaries through the static call graph, and *implicit* flows — a
proven verdict constructed under a branch whose condition is tainted is
exactly the ``PROBABLY_EQUIVALENT -> EQUIVALENT`` laundering edit this
rule exists to catch, so control dependence (post-dominator based) is
part of the sink check.

Sanitizer: reading ``.proven`` / ``.equivalence`` /
``.considered_equivalent`` off a result object drops taint — verdicts
already went through the ladder when they were constructed, so
*dispatching* on a verdict is sound even when the verdict came from the
simulation strategy.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.cfg import CFG, CFGNode, EXC
from repro.lint.findings import Finding
from repro.lint.project import FunctionInfo, ModuleInfo, Project, dotted_name
from repro.lint.rules.base import Rule
from repro.lint.solver import control_dependence, solve_forward

Taint = FrozenSet[str]
State = Dict[str, Taint]

PROB = "prob"
WITNESS = "witness"
RNG = "rng"

EMPTY: Taint = frozenset()
PROB_TAINT: Taint = frozenset({PROB})
RNG_TAINT: Taint = frozenset({RNG})

#: Function names whose return value is probabilistic evidence.
PROB_SOURCES = {
    "generate_stimulus",
    "generate_stimuli",
    "check_instantiated_random",
    "random_instantiation",
    "instantiate_random",
}

#: Receiver names that are RNG objects even without local construction.
RNG_RECEIVERS = {"rng", "_rng"}

#: Witness extractors: deterministic comparisons of simulated outcomes
#: whose *mismatch* is a proof.  ``inner_product`` is the complex
#: overlap ``<a|b>``: a fidelity drop or a phase spread between overlaps
#: refutes equivalence (see ``repro.ec.sim_checker.column_verdict``).
WITNESS_EXTRACTORS = {"fidelity", "inner_product"}

#: Attribute reads that declassify (the verdict ladder itself).
SANITIZER_ATTRS = {"proven", "equivalence", "considered_equivalent"}

#: Container-mutation methods that propagate element taint to the
#: container.
MUTATORS = {"append", "add", "extend", "insert", "update"}

#: Verdict constants that claim a proof.
PROVEN_POSITIVE = {"EQUIVALENT", "EQUIVALENT_UP_TO_GLOBAL_PHASE"}
PROVEN_NEGATIVE = {"NOT_EQUIVALENT"}

#: Packages whose modules are checked for sinks.
SCOPE_PACKAGES = ("ec", "service", "harness", "fuzz")


def _join(left: State, right: State) -> State:
    if not left:
        return right
    if not right:
        return left
    merged = dict(left)
    for name, bits in right.items():
        merged[name] = merged.get(name, EMPTY) | bits
    return merged


class _Analysis:
    """Per-function taint analysis with memoized return summaries."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._summaries: Dict[str, Taint] = {}
        self._in_progress: Set[str] = set()

    # -- expression taint --------------------------------------------------
    def eval_taint(
        self,
        expr: ast.AST,
        state: State,
        module: ModuleInfo,
        caller: Optional[FunctionInfo],
    ) -> Taint:
        if isinstance(expr, ast.Name):
            return state.get(expr.id, EMPTY)
        if isinstance(expr, ast.Attribute):
            if expr.attr in SANITIZER_ATTRS:
                return EMPTY
            return self.eval_taint(expr.value, state, module, caller)
        if isinstance(expr, ast.Call):
            return self._call_taint(expr, state, module, caller)
        if isinstance(expr, ast.Constant):
            return EMPTY
        bits = EMPTY
        for child in ast.iter_child_nodes(expr):
            bits |= self.eval_taint(child, state, module, caller)
        return bits

    def _call_taint(
        self,
        call: ast.Call,
        state: State,
        module: ModuleInfo,
        caller: Optional[FunctionInfo],
    ) -> Taint:
        name = None
        receiver_taint = EMPTY
        if isinstance(call.func, ast.Name):
            name = call.func.id
        elif isinstance(call.func, ast.Attribute):
            name = call.func.attr
            receiver_taint = self.eval_taint(
                call.func.value, state, module, caller
            )
        arg_taint = EMPTY
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            arg_taint |= self.eval_taint(arg, state, module, caller)

        # A draw from an RNG object: rng.random(), self._rng.choice(...).
        if isinstance(call.func, ast.Attribute):
            receiver = call.func.value
            receiver_is_rng = RNG in receiver_taint
            if isinstance(receiver, ast.Name) and receiver.id in RNG_RECEIVERS:
                receiver_is_rng = True
            if (
                isinstance(receiver, ast.Attribute)
                and receiver.attr in RNG_RECEIVERS
            ):
                receiver_is_rng = True
            if receiver_is_rng:
                return PROB_TAINT | (arg_taint - RNG_TAINT)

        if name is not None:
            if name == "Random":
                dotted = dotted_name(call.func)
                if dotted in ("random.Random", "Random"):
                    return RNG_TAINT
            if name in PROB_SOURCES:
                return PROB_TAINT | arg_taint
            if name in WITNESS_EXTRACTORS and PROB in (
                arg_taint | receiver_taint
            ):
                return frozenset({PROB, WITNESS})

        # Interprocedural: one level of return-taint summary.
        callee = self.project.resolve_call(call, module, caller=caller)
        summary = EMPTY
        if callee is not None:
            summary = self.return_summary(callee)
        return arg_taint | (receiver_taint - RNG_TAINT) | summary

    # -- transfer function -------------------------------------------------
    def transfer(
        self,
        node: CFGNode,
        state: State,
        module: ModuleInfo,
        caller: Optional[FunctionInfo],
    ) -> State:
        stmt = node.stmt
        if stmt is None or node.kind != "stmt":
            return state
        updates: Dict[str, Taint] = {}
        if isinstance(stmt, ast.Assign):
            bits = self.eval_taint(stmt.value, state, module, caller)
            for target in stmt.targets:
                for name in _target_names(target):
                    updates[name] = bits
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            bits = self.eval_taint(stmt.value, state, module, caller)
            for name in _target_names(stmt.target):
                updates[name] = bits
        elif isinstance(stmt, ast.AugAssign):
            bits = self.eval_taint(
                stmt.value, state, module, caller
            ) | self.eval_taint(stmt.target, state, module, caller)
            for name in _target_names(stmt.target):
                updates[name] = bits
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            bits = self.eval_taint(stmt.iter, state, module, caller)
            for name in _target_names(stmt.target):
                updates[name] = bits
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    bits = self.eval_taint(
                        item.context_expr, state, module, caller
                    )
                    for name in _target_names(item.optional_vars):
                        updates[name] = bits
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            # Mutating a container with tainted elements taints the
            # container: ``stimuli.append(stimulus)``.
            call = stmt.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in MUTATORS
                and isinstance(call.func.value, ast.Name)
            ):
                bits = EMPTY
                for arg in list(call.args) + [k.value for k in call.keywords]:
                    bits |= self.eval_taint(arg, state, module, caller)
                bits -= RNG_TAINT
                if bits:
                    receiver = call.func.value.id
                    updates[receiver] = state.get(receiver, EMPTY) | bits
        if not updates:
            return state
        merged = dict(state)
        merged.update(updates)
        return merged

    # -- per-function machinery --------------------------------------------
    def solve(
        self, cfg: CFG, module: ModuleInfo, caller: Optional[FunctionInfo]
    ):
        return solve_forward(
            cfg,
            transfer=lambda node, state: self.transfer(
                node, state, module, caller
            ),
            join=_join,
            initial={},
            bottom={},
        )

    def return_summary(self, function: FunctionInfo) -> Taint:
        """Taint of a function's return value (memoized, cycle-safe)."""
        qname = function.qname
        if qname in self._summaries:
            return self._summaries[qname]
        if qname in self._in_progress:
            return EMPTY
        self._in_progress.add(qname)
        try:
            cfg = function.cfg
            result = self.solve(cfg, function.module, function)
            bits = EMPTY
            for node in cfg.statements():
                stmt = node.stmt
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    bits |= self.eval_taint(
                        stmt.value,
                        result.at_entry(node),
                        function.module,
                        function,
                    )
            bits -= RNG_TAINT  # returning an rng is not itself evidence
            self._summaries[qname] = bits
            return bits
        finally:
            self._in_progress.discard(qname)


def _target_names(target: ast.AST) -> List[str]:
    names: List[str] = []
    if isinstance(target, ast.Name):
        names.append(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names.extend(_target_names(element))
    elif isinstance(target, ast.Starred):
        names.extend(_target_names(target.value))
    return names


def _verdict_constant(expr: ast.AST) -> Optional[str]:
    """``Equivalence.X`` (or bare imported ``X``) for a proven verdict."""
    if isinstance(expr, ast.Attribute):
        base = expr.value
        if isinstance(base, ast.Name) and base.id == "Equivalence":
            if expr.attr in PROVEN_POSITIVE | PROVEN_NEGATIVE:
                return expr.attr
    return None


class SoundnessTaintRule(Rule):
    """Probabilistic values must not decide proven verdicts."""

    id = "soundness-taint"

    def run(self, project: Project) -> List[Finding]:
        analysis = _Analysis(project)
        findings: List[Finding] = []
        for module in project.iter_modules():
            package = module.relpath.split("/", 1)[0]
            if package not in SCOPE_PACKAGES:
                continue
            for _name, function in sorted(module.functions.items()):
                findings.extend(
                    self._check_function(analysis, module, function)
                )
        return findings

    def _check_function(
        self,
        analysis: _Analysis,
        module: ModuleInfo,
        function: FunctionInfo,
    ) -> List[Finding]:
        cfg = function.cfg
        sinks = list(self._sinks(cfg))
        if not sinks:
            return []
        result = analysis.solve(cfg, module, function)
        governing = control_dependence(cfg)
        by_index = {node.index: node for node in cfg.nodes}
        findings: List[Finding] = []
        for node, verdict, args in sinks:
            data = EMPTY
            for arg in args:
                data |= analysis.eval_taint(
                    arg, result.at_entry(node), module, function
                )
            control = EMPTY
            for branch_index in governing.get(node.index, ()):
                branch = by_index[branch_index]
                control |= self._condition_taint(
                    analysis, branch, result, module, function
                )
            combined = data | control
            if PROB not in combined:
                continue
            if verdict in PROVEN_NEGATIVE and WITNESS in combined:
                # Refutation through a witness extractor: sound.
                continue
            kind = "positively proven" if verdict in PROVEN_POSITIVE else (
                "refuting"
            )
            via = []
            if PROB in data:
                via.append("data flow")
            if PROB in control:
                via.append("a probabilistic branch condition")
            findings.append(
                self.finding(
                    module,
                    node.line,
                    f"probabilistic evidence reaches the {kind} verdict "
                    f"Equivalence.{verdict} via {' and '.join(via)} without "
                    "a sound-witness guard; report PROBABLY_EQUIVALENT "
                    "instead (the verdict ladder is the soundness contract)",
                    function,
                )
            )
        return findings

    def _condition_taint(
        self,
        analysis: _Analysis,
        branch: CFGNode,
        result,
        module: ModuleInfo,
        function: FunctionInfo,
    ) -> Taint:
        stmt = branch.stmt
        expr: Optional[ast.AST] = None
        if isinstance(stmt, (ast.If, ast.While)):
            expr = stmt.test
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            expr = stmt.iter
        if expr is None:
            return EMPTY
        return analysis.eval_taint(
            expr, result.at_entry(branch), module, function
        )

    def _sinks(
        self, cfg: CFG
    ) -> List[Tuple[CFGNode, str, List[ast.AST]]]:
        """Proven-verdict constructions and returns in this function."""
        sinks: List[Tuple[CFGNode, str, List[ast.AST]]] = []
        for node in cfg.statements():
            for call in node.calls():
                name = None
                if isinstance(call.func, ast.Name):
                    name = call.func.id
                elif isinstance(call.func, ast.Attribute):
                    name = call.func.attr
                if name != "EquivalenceCheckingResult":
                    continue
                verdict_expr: Optional[ast.AST] = None
                if call.args:
                    verdict_expr = call.args[0]
                for keyword in call.keywords:
                    if keyword.arg == "equivalence":
                        verdict_expr = keyword.value
                if verdict_expr is None:
                    continue
                verdict = _verdict_constant(verdict_expr)
                if verdict is None:
                    continue
                args = [
                    a for a in call.args if a is not verdict_expr
                ] + [
                    k.value
                    for k in call.keywords
                    if k.value is not verdict_expr
                ]
                sinks.append((node, verdict, args))
            stmt = node.stmt
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                verdict = _verdict_constant(stmt.value)
                if verdict is not None:
                    sinks.append((node, verdict, []))
        return sinks
