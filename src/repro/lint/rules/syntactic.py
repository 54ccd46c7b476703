"""The call-pattern rules, re-hosted on the CFG/project substrate.

These four rules (``seeded-rng``, ``counter-namespace``,
``no-wallclock``, ``no-fork``) predate the dataflow
engine; their semantics are unchanged from the original single-pass AST
lint, but they now iterate CFG call sites, so every finding carries its
enclosing function and the same precise line attribution as the
dataflow rules.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.findings import Finding
from repro.lint.project import Project, dotted_name
from repro.lint.rules.base import Rule, iter_call_sites

#: Algorithmic packages where wall-clock reads are banned.
PURE_PACKAGES = ("circuit", "dd", "zx", "stab", "analysis")

#: Receiver names treated as PerfCounters instances.
COUNTER_RECEIVERS = {"counters", "perf", "perf_counters"}

#: Module-level ``random.*`` draws that consume the global (unseeded) RNG.
GLOBAL_RANDOM_FUNCS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "getrandbits",
    "betavariate",
}

#: Call chains that create a child process.
FORK_CALLS = {
    "os.fork",
    "os.forkpty",
    "os.posix_spawn",
    "os.system",
    "subprocess.Popen",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "multiprocessing.Process",
    "multiprocessing.Pool",
    "multiprocessing.get_context",
}

#: Bare-name process constructors (``from multiprocessing import Process``).
FORK_NAMES = {"Process", "Pool", "get_context"}


class SeededRngRule(Rule):
    """No unseeded randomness outside ``fuzz/generator.py``."""

    id = "seeded-rng"

    def run(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.iter_modules():
            if module.relpath == "fuzz/generator.py":
                continue
            for node, call, info in iter_call_sites(module):
                dotted = dotted_name(call.func)
                if dotted is None:
                    continue
                message = None
                if (
                    dotted == "random.Random"
                    and not call.args
                    and not call.keywords
                ):
                    message = "random.Random() without a seed"
                elif dotted.startswith(("np.random.", "numpy.random.")):
                    message = (
                        f"{dotted}: use a seeded np.random.Generator instead"
                    )
                elif (
                    dotted.startswith("random.")
                    and dotted.split(".", 1)[1] in GLOBAL_RANDOM_FUNCS
                ):
                    message = f"{dotted}: draws from the global unseeded RNG"
                if message is not None:
                    findings.append(
                        self.finding(module, call.lineno, message, info)
                    )
        return findings


class CounterNamespaceRule(Rule):
    """Counter names must use a registered dotted namespace."""

    id = "counter-namespace"

    def run(self, project: Project) -> List[Finding]:
        namespaces = project.counter_namespaces()
        findings: List[Finding] = []
        for module in project.iter_modules():
            for node, call, info in iter_call_sites(module):
                func = call.func
                if not (
                    isinstance(func, ast.Attribute) and func.attr == "count"
                ):
                    continue
                receiver = func.value
                receiver_name = None
                if isinstance(receiver, ast.Name):
                    receiver_name = receiver.id
                elif isinstance(receiver, ast.Attribute):
                    receiver_name = receiver.attr
                if receiver_name not in COUNTER_RECEIVERS:
                    continue
                if not call.args or not isinstance(call.args[0], ast.Constant):
                    continue
                name = call.args[0].value
                if not isinstance(name, str):
                    continue
                namespace = name.split(".", 1)[0]
                if namespace in namespaces:
                    continue
                findings.append(
                    self.finding(
                        module,
                        call.lineno,
                        f"counter {name!r} uses unregistered namespace "
                        f"{namespace!r} (register it in "
                        "repro.perf.counters.COUNTER_NAMESPACES)",
                        info,
                    )
                )
        return findings


class NoWallclockRule(Rule):
    """``time.time()`` is banned in the pure algorithmic layers."""

    id = "no-wallclock"

    def run(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.iter_modules():
            package = module.relpath.split("/", 1)[0]
            if package not in PURE_PACKAGES:
                continue
            for node, call, info in iter_call_sites(module):
                if dotted_name(call.func) != "time.time":
                    continue
                findings.append(
                    self.finding(
                        module,
                        call.lineno,
                        "time.time() in a pure algorithmic module; take a "
                        "deadline parameter instead",
                        info,
                    )
                )
        return findings


class NoForkRule(Rule):
    """Process creation is banned outside the harness."""

    id = "no-fork"

    def run(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.iter_modules():
            # repro.harness.child forks for the sandbox, the racer and
            # the service pool alike.
            if module.relpath.split("/", 1)[0] == "harness":
                continue
            for node, call, info in iter_call_sites(module):
                dotted = dotted_name(call.func)
                message = None
                if dotted in FORK_CALLS:
                    message = f"{dotted}() outside repro.harness"
                elif (
                    dotted is not None
                    and dotted.split(".")[-1] in FORK_NAMES
                    and len(dotted.split(".")) <= 2
                    and (
                        dotted in FORK_NAMES
                        or dotted.split(".")[0]
                        in ("mp", "multiprocessing", "ctx")
                    )
                ):
                    message = (
                        f"{dotted}() spawns a process outside repro.harness"
                    )
                if message is not None:
                    findings.append(
                        self.finding(
                            module,
                            call.lineno,
                            message
                            + " (route child processes through "
                            "repro.harness.child)",
                            info,
                        )
                    )
        return findings

