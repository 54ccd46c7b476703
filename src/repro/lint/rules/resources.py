"""``resource-leak``: acquired OS resources must reach release on every path.

The supervised harness and service layer juggle raw file descriptors
(``os.pipe``), ``multiprocessing`` connections, forked children, and
temporary files.  A descriptor leaked on the *exceptional* path is the
classic bug class here: the happy path closes everything, then one
``pickle.loads`` raise mid-handshake strands both pipe ends until the
supervisor hits ``EMFILE`` hours later.

Two phases per function:

1. **Escape analysis** (AST): an acquisition whose handle is returned,
   yielded, stored into ``self``/a container, aliased, or passed to a
   non-release call *escapes* — its lifetime is someone else's problem
   and the rule stays quiet about it.
2. **May-open dataflow** (CFG): forward analysis tracking, per variable,
   the set of acquisition sites that may still be open.  ``with``
   acquisitions release at the ``with_exit`` node (normal *and*
   exceptional continuations both pass through it in our CFG).  Release
   calls are ``x.close()``, ``os.close(x)``, and ``os.waitpid(x, ...)``
   (reaping a forked child).  Exception edges *out of the acquisition
   statement itself* propagate the pre-state: if ``open()`` raises, no
   resource was acquired.

A finding is reported at the acquisition line when any still-open site
reaches the normal exit or the raise exit, and says which kind of path
leaks it.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.cfg import CFG, CFGNode, EXC
from repro.lint.findings import Finding
from repro.lint.project import FunctionInfo, ModuleInfo, Project, dotted_name
from repro.lint.rules.base import Rule

#: variable name -> frozenset of acquisition-site node indices
State = Dict[str, FrozenSet[int]]

#: Full dotted calls that acquire a releasable resource.
ACQUIRE_DOTTED = {
    "os.pipe": "pipe file descriptors",
    "os.open": "a file descriptor",
    "os.dup": "a duplicated file descriptor",
    "os.fork": "a child process",
    "tempfile.mkstemp": "a temp-file descriptor",
}

#: Bare / last-component call names that acquire a resource.
ACQUIRE_NAMES = {
    "open": "a file handle",
    "Pipe": "a connection pair",
    "NamedTemporaryFile": "a temporary file",
    "TemporaryFile": "a temporary file",
    "accept": "an accepted connection",
    "Client": "a client connection",
    "Listener": "a listener socket",
    "socket": "a socket",
}

#: Method names whose receiver is released.
RELEASE_METHODS = {"close", "terminate", "kill", "cleanup"}

#: ``os.<fn>(handle, ...)`` calls that release their first argument.
RELEASE_FUNCS = {"os.close", "os.closerange", "os.waitpid"}

#: Packages in scope: where raw OS resources are legitimately handled.
SCOPE_PACKAGES = ("harness", "service", "fuzz")


def _acquisition(call: ast.Call) -> Optional[str]:
    """Resource description if this call acquires one, else None."""
    dotted = dotted_name(call.func)
    if dotted in ACQUIRE_DOTTED:
        return ACQUIRE_DOTTED[dotted]
    name = None
    if isinstance(call.func, ast.Name):
        name = call.func.id
    elif isinstance(call.func, ast.Attribute):
        name = call.func.attr
    if name in ACQUIRE_NAMES:
        return ACQUIRE_NAMES[name]
    return None


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


class _Site:
    """One acquisition site inside a function."""

    __slots__ = ("index", "line", "names", "what", "managed", "stmt")

    def __init__(
        self, index: int, line: int, names: Tuple[str, ...], what: str,
        managed: bool, stmt: ast.stmt,
    ) -> None:
        self.index = index
        self.line = line
        self.names = names
        self.what = what
        #: acquired by a ``with`` item — released at with_exit.
        self.managed = managed
        #: the acquiring statement (to match with_exit back to its With).
        self.stmt = stmt


def _collect_sites(cfg: CFG) -> Dict[int, List[_Site]]:
    """Acquisition sites keyed by CFG node index.

    Only *bound* acquisitions participate: a call whose handle is not
    assigned to plain names (``conn = Client(...)``,
    ``r, w = os.pipe()``) either escapes immediately (argument,
    attribute store) or is dropped — both out of this rule's scope
    (an unbound ``open(...)`` with no use is dead code, not a tracked
    handle).
    """
    sites: Dict[int, List[_Site]] = {}
    for node in cfg.statements():
        stmt = node.stmt
        # Synthetic nodes (with_exit, dispatch, finally) borrow their
        # statement for location only — the acquisition happens at the
        # real "stmt" node, and registering it twice would make the
        # with_exit's exception edge carry a spurious pre-state.
        if stmt is None or node.kind != "stmt":
            continue
        found: List[_Site] = []
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            what = _acquisition(stmt.value)
            if what is not None:
                names: List[str] = []
                for target in stmt.targets:
                    names.extend(_target_names(target))
                if names:
                    found.append(
                        _Site(node.index, stmt.lineno, tuple(names), what,
                              managed=False, stmt=stmt)
                    )
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if not isinstance(item.context_expr, ast.Call):
                    continue
                what = _acquisition(item.context_expr)
                if what is None:
                    continue
                names = (
                    _target_names(item.optional_vars)
                    if item.optional_vars is not None
                    else []
                )
                found.append(
                    _Site(node.index, stmt.lineno, tuple(names), what,
                          managed=True, stmt=stmt)
                )
        if found:
            sites[node.index] = found
    return sites


def _escaped_names(cfg: CFG, tracked: Set[str]) -> Set[str]:
    """Names whose resource lifetime leaves the function.

    Conservative per-name escape: returned, yielded, aliased to another
    name, stored into an attribute/subscript/container, or passed as an
    argument to anything that is not a release call.
    """
    escaped: Set[str] = set()

    def is_release_call(call: ast.Call) -> bool:
        dotted = dotted_name(call.func)
        if dotted in RELEASE_FUNCS:
            return True
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in RELEASE_METHODS
        )

    for node in cfg.statements():
        stmt = node.stmt
        if stmt is None:
            continue
        for expr in ast.walk(stmt):
            if isinstance(expr, (ast.Nonlocal, ast.Global)):
                # The binding outlives this scope; the enclosing scope
                # (or module teardown) owns the release.
                escaped.update(set(expr.names) & tracked)
            elif isinstance(expr, ast.Return) and expr.value is not None:
                for child in ast.walk(expr.value):
                    if isinstance(child, ast.Name) and child.id in tracked:
                        escaped.add(child.id)
            elif isinstance(expr, (ast.Yield, ast.YieldFrom)):
                for child in ast.walk(expr):
                    if isinstance(child, ast.Name) and child.id in tracked:
                        escaped.add(child.id)
            elif isinstance(expr, ast.Call) and not is_release_call(expr):
                args = list(expr.args) + [kw.value for kw in expr.keywords]
                for arg in args:
                    for child in ast.walk(arg):
                        if (
                            isinstance(child, ast.Name)
                            and child.id in tracked
                        ):
                            escaped.add(child.id)
            elif isinstance(expr, ast.Assign):
                value_names = {
                    child.id
                    for child in ast.walk(expr.value)
                    if isinstance(child, ast.Name)
                }
                stores_outward = any(
                    not isinstance(t, (ast.Name, ast.Tuple, ast.List))
                    for t in expr.targets
                )
                aliases = (
                    isinstance(expr.value, (ast.Name, ast.Tuple, ast.List))
                    and not isinstance(expr.value, ast.Call)
                )
                if stores_outward or aliases:
                    escaped.update(value_names & tracked)
            elif isinstance(expr, (ast.Tuple, ast.List, ast.Dict, ast.Set)):
                # Handle packed into a container literal (outside an
                # unpacking assignment target): treat as escaped.
                parent_is_store = isinstance(
                    getattr(expr, "ctx", None), ast.Store
                )
                if not parent_is_store:
                    for child in ast.walk(expr):
                        if (
                            isinstance(child, ast.Name)
                            and isinstance(child.ctx, ast.Load)
                            and child.id in tracked
                        ):
                            escaped.add(child.id)
    return escaped


class ResourceLeakRule(Rule):
    """Every acquisition must reach a release on all CFG paths."""

    id = "resource-leak"

    def run(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.iter_modules():
            package = module.relpath.split("/", 1)[0]
            if package not in SCOPE_PACKAGES:
                continue
            for _name, function in sorted(module.functions.items()):
                findings.extend(self._check_function(module, function))
        return findings

    def _check_function(
        self, module: ModuleInfo, function: FunctionInfo
    ) -> List[Finding]:
        cfg = function.cfg
        sites = _collect_sites(cfg)
        if not sites:
            return []
        tracked: Set[str] = set()
        for site_list in sites.values():
            for site in site_list:
                tracked.update(site.names)
        escaped = _escaped_names(cfg, tracked)

        site_by_index: Dict[int, _Site] = {}
        live_sites: Dict[int, List[_Site]] = {}
        for index, site_list in sites.items():
            kept = []
            for site in site_list:
                if site.names and all(n in escaped for n in site.names):
                    continue
                site_by_index[site.index] = site
                kept.append(site)
            if kept:
                live_sites[index] = kept
        if not live_sites:
            return []

        leaks = self._solve_leaks(cfg, live_sites, escaped)
        findings: List[Finding] = []
        for site_index in sorted(leaks):
            site = site_by_index[site_index]
            paths = leaks[site_index]
            kinds = " and ".join(sorted(paths))
            handle = ", ".join(site.names) or "the handle"
            findings.append(
                self.finding(
                    module,
                    site.line,
                    f"{handle} ({site.what}) may never be released on "
                    f"{kinds} paths out of {function.local_name}(); close "
                    "it in a finally block or use a with statement",
                    function,
                )
            )
        return findings

    def _solve_leaks(
        self,
        cfg: CFG,
        sites: Dict[int, List[_Site]],
        escaped: Set[str],
    ) -> Dict[int, Set[str]]:
        """Fixpoint over may-open states; returns site -> leaking path kinds."""
        bottom: State = {}
        entry: Dict[int, State] = {node.index: {} for node in cfg.nodes}
        entry[cfg.entry.index] = {}
        # Manual worklist: this analysis needs edge-sensitive transfer
        # (EXC edges out of an acquisition node carry the PRE-state) and
        # per-terminal-state inspection, which the generic solver's
        # node-state interface does not expose cleanly.
        exit_open: Dict[str, Set[int]] = {"normal": set(), "exceptional": set()}
        states: Dict[int, State] = {cfg.entry.index: {}}
        worklist: List[CFGNode] = [cfg.entry]
        iterations = 0
        while worklist:
            iterations += 1
            if iterations > 100_000:  # pragma: no cover - divergence guard
                break
            node = worklist.pop()
            in_state = states.get(node.index, bottom)
            post = self._transfer(node, in_state, sites, escaped)
            for succ, label in node.succs:
                # If the acquiring statement itself raises, the resource
                # was never acquired: EXC edges out of an acquisition
                # node carry the PRE-state.
                carried = (
                    in_state
                    if label == EXC and node.index in sites
                    else post
                )
                # with_exit releases managed sites on every outgoing edge
                # (its very kind models __exit__ having run).
                if succ.index in (cfg.exit.index, cfg.raise_exit.index):
                    kind = (
                        "normal"
                        if succ.index == cfg.exit.index
                        else "exceptional"
                    )
                    for open_sites in carried.values():
                        exit_open[kind].update(open_sites)
                    continue
                old = states.get(succ.index)
                merged = self._join(old, carried)
                if old is None or merged != old:
                    states[succ.index] = merged
                    worklist.append(succ)

        leaks: Dict[int, Set[str]] = {}
        for kind, open_sites in exit_open.items():
            for index in open_sites:
                leaks.setdefault(index, set()).add(kind)
        return leaks

    @staticmethod
    def _join(left: Optional[State], right: State) -> State:
        if left is None:
            return dict(right)
        merged = dict(left)
        for name, open_sites in right.items():
            merged[name] = merged.get(name, frozenset()) | open_sites
        return merged

    def _transfer(
        self,
        node: CFGNode,
        state: State,
        sites: Dict[int, List[_Site]],
        escaped: Set[str],
    ) -> State:
        post = dict(state)
        stmt = node.stmt

        # with_exit: the context managers of this With have run __exit__.
        if node.kind == "with_exit" and isinstance(
            stmt, (ast.With, ast.AsyncWith)
        ):
            managed_names: Set[str] = set()
            for site_list in sites.values():
                for site in site_list:
                    if site.managed and site.stmt is stmt:
                        managed_names.update(site.names)
            for name in managed_names:
                post.pop(name, None)
            return post

        if stmt is None or node.kind != "stmt":
            return post

        # Releases first (so ``x = open(); x.close()`` in one stmt — not
        # expressible anyway — cannot mask an acquisition).
        for call in node.calls():
            dotted = dotted_name(call.func)
            if dotted in RELEASE_FUNCS and call.args:
                for child in ast.walk(call.args[0]):
                    if isinstance(child, ast.Name):
                        post.pop(child.id, None)
            elif (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in RELEASE_METHODS
                and isinstance(call.func.value, ast.Name)
            ):
                post.pop(call.func.value.id, None)

        # Acquisitions at this node.
        for site in sites.get(node.index, ()):
            if site.managed:
                # Tracked until with_exit; the with body may still leak
                # via an alias, but the manager itself releases.
                for name in site.names:
                    if name not in escaped:
                        post[name] = frozenset({site.index})
                continue
            for name in site.names:
                if name not in escaped:
                    post[name] = frozenset({site.index})

        return post
