"""Interprocedural sanitizer-counterpart rules (SAN/RACE families).

The runtime sanitizer (:mod:`repro.sanitize`) checks invariants while a
run executes; these rules enforce the *conventions that make those
checks sound* at lint time, riding the PR 5 call-graph
(:class:`~repro.lint.graph.ProjectGraph`) and dataflow
(:class:`~repro.lint.dataflow.ForwardFlow`) layers:

* **SAN001** — kernel-seam state ownership: only the kernel package may
  mutate a :class:`~repro.kernel.state.SwitchState`. Scheduler code
  receives the state at its array entry point (``schedule_state``)
  strictly read-only — a scheduler that writes
  ``occupancy``/``p_hol``/``hol_pids``/... directly bypasses the
  admit/serve bookkeeping the sanitizer's cross-checks certify, so the
  two backends silently diverge.
* **SAN002** — invariant coverage: every switch class the registry can
  build must override ``check_invariants()`` somewhere below
  ``BaseSwitch`` (the base method is a no-op, so inheriting only it
  means the sanitizer's deep passes certify nothing), and the override
  must actually be reachable — some non-test module must call
  ``.check_invariants()``.
* **RACE001** — publish-then-mutate: an object submitted to a
  ``ProcessPoolExecutor`` must not be mutated afterwards in the same
  scope. ``submit()`` serializes its arguments *lazily* (when a worker
  picks the task up), so a post-submit mutation races the pickler and
  different workers can observe different argument states — the
  classic nondeterministic-sweep bug the sanitizer cannot see from
  inside any single run.

Like every flow rule here, the analyses under-approximate (single
forward pass, no aliasing through locals) — they exist to catch the
idioms that actually appear, not to prove absence.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.base import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    Severity,
    dotted_name,
)
from repro.lint.dataflow import Env, ForwardFlow, Tags, iter_scopes
from repro.lint.graph import ClassSymbol, ProjectGraph, project_graph
from repro.lint.rules_kernel import _derives_from_switch, _factory_calls

__all__ = [
    "StateSeamOwnershipRule",
    "InvariantCoverageRule",
    "SubmitThenMutateRule",
]

_EMPTY: Tags = frozenset()

#: SwitchState bookkeeping fields only the kernel may write. Writing one
#: outside repro.kernel bypasses admit()/serve() and breaks the ledgers
#: the sanitizer's state cross-checks rely on.
_PROTECTED_FIELDS = frozenset(
    {
        "occupancy",
        "voq_pids",
        "hol_pids",
        "live",
        "peak_live",
        "allocated_total",
        "released_total",
        "dropped_total",
        "backlog",
        "residue",
        "packets",
        "p_fanout",
        "p_ts",
        "p_hol",
        "free_pids",
    }
)

#: State methods that mutate (the kernel backend's admission/service
#: bookkeeping) — calling them from scheduler code is a seam breach.
_STATE_MUTATORS = frozenset({"admit", "serve", "drop", "reset"})

#: ndarray methods that write through the receiver (list / deque / dict
#: ones are ``_CONTAINER_MUTATORS``, shared with RACE001 below).
_ARRAY_MUTATORS = frozenset({"fill", "sort", "partition", "put", "resize"})


def _mutation_root(target: ast.expr) -> ast.expr:
    """Strip subscripts: the object actually written through."""
    while isinstance(target, ast.Subscript):
        target = target.value
    return target


class _StateFlow(ForwardFlow):
    """Dataflow pass behind SAN001 (one module at a time)."""

    STATE = "switch-state"

    def __init__(
        self,
        rule: "StateSeamOwnershipRule",
        module: ModuleInfo,
        exempt_funcs: frozenset[int],
    ) -> None:
        super().__init__()
        self.rule = rule
        self.module = module
        #: ids of FunctionDef nodes inside kernel-exempt classes.
        self.exempt_funcs = exempt_funcs
        self.findings: list[Finding] = []

    # -- origins ------------------------------------------------------- #
    def call_tags(self, call: ast.Call, env: Env) -> Tags:
        name = dotted_name(call.func)
        if name is not None and name.rsplit(".", 1)[-1] == "SwitchState":
            return frozenset({self.STATE})
        return _EMPTY

    def _bind_params(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, env: Env
    ) -> None:
        super()._bind_params(func, env)
        for arg in func.args.posonlyargs + func.args.args + func.args.kwonlyargs:
            if self._is_state_param(arg):
                env[arg.arg] = frozenset({self.STATE})

    @staticmethod
    def _is_state_param(arg: ast.arg) -> bool:
        ann = arg.annotation
        if ann is not None:
            text = (
                ann.value
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str)
                else dotted_name(ann)
            )
            if text is not None:
                return text.rsplit(".", 1)[-1] == "SwitchState"
            return False
        # Unannotated: the codebase convention names the seam parameter
        # ``state`` (other "state" params are annotated with their type).
        return arg.arg == "state"

    # -- context ------------------------------------------------------- #
    def _in_exempt_scope(self) -> bool:
        return id(self.scope) in self.exempt_funcs

    # -- sinks: writes ------------------------------------------------- #
    def _exec(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._check_write(target, env)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            self._check_write(stmt.target, env)
        super()._exec(stmt, env)

    def _check_write(self, target: ast.expr, env: Env) -> None:
        if self._in_exempt_scope():
            return
        root = _mutation_root(target)
        if not isinstance(root, ast.Attribute):
            return
        field = root.attr
        if field not in _PROTECTED_FIELDS:
            return
        base = dotted_name(root.value)
        if base is None or self.STATE not in env.get(base, _EMPTY):
            return
        self.findings.append(
            self.rule.finding(
                self.module,
                root,
                f"{base}.{field} written outside the kernel package; "
                "SwitchState bookkeeping is owned by admit()/serve() — a "
                "direct write desynchronizes the ledgers the sanitizer "
                "cross-checks (and the two backends with each other)",
            )
        )

    # -- sinks: mutating calls ----------------------------------------- #
    def on_call(self, call: ast.Call, env: Env) -> None:
        if self._in_exempt_scope():
            return
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        # state.admit(...) / state.serve(...): kernel bookkeeping.
        base = dotted_name(func.value)
        if (
            func.attr in _STATE_MUTATORS
            and base is not None
            and self.STATE in env.get(base, _EMPTY)
        ):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    call,
                    f"{base}.{func.attr}() called outside the kernel "
                    "package; admission/service bookkeeping belongs to "
                    "the kernel backend, not scheduler code",
                )
            )
            return
        # state.occupancy.fill(...), state.hol_pids[i].pop() etc.:
        # in-place container writes.
        receiver = _mutation_root(func.value)
        if (
            func.attr in _ARRAY_MUTATORS or func.attr in _CONTAINER_MUTATORS
        ) and isinstance(receiver, ast.Attribute):
            field = receiver.attr
            inner = dotted_name(receiver.value)
            if (
                inner is not None
                and self.STATE in env.get(inner, _EMPTY)
                and field in _PROTECTED_FIELDS
            ):
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        call,
                        f"{inner}.{field}.{func.attr}() mutates SwitchState "
                        "bookkeeping in place outside the kernel package",
                    )
                )


class StateSeamOwnershipRule(Rule):
    """SAN001 — SwitchState mutated outside the kernel seam."""

    rule_id = "SAN001"
    title = "SwitchState mutated outside kernel-seam entry points"
    rationale = (
        "The vectorized backend certifies bit-exactness by funnelling "
        "every state change through SwitchState.admit()/serve(), which "
        "keep the occupancy/live/HOL ledgers the runtime sanitizer "
        "cross-checks. Scheduler code sees the state read-only, inside "
        "its schedule_state() entry point as "
        "well as outside it: the HOL-packet index (hol_pids, p_hol) the "
        "rounds read is maintained by admit()/serve() alone. A direct "
        "field write desynchronizes the ledgers — the backends then "
        "diverge in ways the equivalence harness only catches per grid "
        "point, and the sanitizer flags as corruption."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = project_graph(project)
        for module in project.modules:
            if module.is_test_module:
                continue
            if "repro/kernel/" in module.abspath:
                continue  # the kernel owns the state
            yield from self._check_one(graph, module)

    def _check_one(
        self, graph: ProjectGraph, module: ModuleInfo
    ) -> Iterator[Finding]:
        exempt = self._exempt_function_ids(graph, module)
        flow = _StateFlow(self, module, exempt)
        flow.analyze_module(module.tree)
        yield from flow.findings

    @staticmethod
    def _exempt_function_ids(
        graph: ProjectGraph, module: ModuleInfo
    ) -> frozenset[int]:
        """ids of methods belonging to kernel-backend classes.

        A KernelBackend subclass outside ``repro/kernel/`` (a test
        double promoted to source, an experiment backend) is still the
        state's owner — exempt its methods rather than its whole file.
        """
        exempt: set[int] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            sym = graph.resolve_class(node.name)
            if sym is None or not _derives_from_backend(graph, sym):
                continue
            for stmt in ast.walk(node):
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    exempt.add(id(stmt))
        return frozenset(exempt)


def _derives_from_backend(graph: ProjectGraph, sym: ClassSymbol) -> bool:
    """Is ``sym`` in the KernelBackend lineage (state owners)?"""
    seen: set[str] = set()
    stack = [sym]
    while stack:
        cur = stack.pop()
        if cur.name in seen:
            continue
        seen.add(cur.name)
        if cur.name == "KernelBackend":
            return True
        for base in cur.bases:
            if base.rsplit(".", 1)[-1] == "KernelBackend":
                return True
            parent = graph.resolve_class(base)
            if parent is not None:
                stack.append(parent)
    return False


class InvariantCoverageRule(Rule):
    """SAN002 — registered switch without live invariant coverage."""

    rule_id = "SAN002"
    title = "registered switch class lacks reachable check_invariants()"
    rationale = (
        "BaseSwitch.check_invariants() is a deliberate no-op, so a "
        "registered switch that never overrides it sails through the "
        "engine's periodic checks, the exhaustive verifier and the "
        "sanitizer's deep passes while certifying nothing. And an "
        "override nobody calls is the same hole one refactor later — "
        "some non-test module must still invoke .check_invariants()."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        registry = project.find("repro/schedulers/registry.py")
        if registry is None:
            return
        graph = project_graph(project)
        call_sites = _invariant_call_sites(project)
        seen: set[int] = set()
        for func in ast.walk(registry.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in _factory_calls(func):
                fname = dotted_name(call.func)
                if fname is None:
                    continue
                sym = graph.resolve_class(fname.rsplit(".", 1)[-1])
                if sym is None or id(sym) in seen:
                    continue
                if not _derives_from_switch(graph, sym):
                    continue
                seen.add(id(sym))
                if not _overrides_check_invariants(graph, sym):
                    yield self.finding(
                        sym.info,
                        sym.lineno,
                        f"{sym.name} is registered (factory {func.name}()) "
                        "but inherits only BaseSwitch's no-op "
                        "check_invariants(); the sanitizer's deep passes "
                        "certify nothing for it — implement the override",
                    )
                elif not call_sites:
                    yield self.finding(
                        sym.info,
                        sym.lineno,
                        f"{sym.name} overrides check_invariants() but no "
                        "non-test module ever calls .check_invariants(); "
                        "the declared invariants are dead code",
                    )


def _overrides_check_invariants(graph: ProjectGraph, sym: ClassSymbol) -> bool:
    """Does ``sym`` define check_invariants below BaseSwitch?

    ``class_defines`` would always answer yes (BaseSwitch carries the
    no-op), so this walk deliberately stops at BaseSwitch.
    """
    seen: set[str] = set()
    stack = [sym]
    while stack:
        cur = stack.pop()
        if cur.name in seen or cur.name == "BaseSwitch":
            continue
        seen.add(cur.name)
        if "check_invariants" in cur.methods:
            return True
        for base in cur.bases:
            parent = graph.resolve_class(base)
            if parent is not None:
                stack.append(parent)
    return False


def _invariant_call_sites(project: Project) -> list[tuple[str, int]]:
    """Every ``<expr>.check_invariants()`` call in non-test modules."""
    sites: list[tuple[str, int]] = []
    for module in project.modules:
        if module.is_test_module:
            continue
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "check_invariants"
            ):
                sites.append((module.path, node.lineno))
    return sites


#: Receiver methods that mutate common containers in place.
_CONTAINER_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "remove",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "update",
        "add",
        "discard",
        "setdefault",
        "sort",
        "reverse",
    }
)


class _RaceFlow(ForwardFlow):
    """Dataflow pass behind RACE001 (one scope at a time)."""

    EXECUTOR = "process-pool"

    def __init__(self, rule: "SubmitThenMutateRule", module: ModuleInfo) -> None:
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []
        #: Dotted names captured into pending submissions -> submit line.
        self.submitted: dict[str, int] = {}

    def analyze_module(self, tree: ast.Module) -> None:
        # Replicates the base driver so ``submitted`` resets per scope —
        # a submission in one function cannot taint its neighbours.
        for scope, body in iter_scopes(tree):
            self.scope = scope
            self.submitted = {}
            env: Env = {}
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._bind_params(scope, env)
            for stmt in body:
                self._exec(stmt, env)

    # -- origins ------------------------------------------------------- #
    def call_tags(self, call: ast.Call, env: Env) -> Tags:
        name = dotted_name(call.func)
        if name is not None and name.rsplit(".", 1)[-1] == "ProcessPoolExecutor":
            return frozenset({self.EXECUTOR})
        return _EMPTY

    # -- the submit sink ------------------------------------------------ #
    def on_call(self, call: ast.Call, env: Env) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in ("submit", "map"):
            if self.EXECUTOR in self.receiver_tags(call, env):
                payload = call.args[1:] if func.attr == "submit" else call.args
                for expr in list(payload) + [kw.value for kw in call.keywords]:
                    self._capture(expr, call.lineno)
                return
        # A mutator method on a captured object races the lazy pickler.
        if isinstance(func, ast.Attribute) and func.attr in _CONTAINER_MUTATORS:
            base = dotted_name(func.value)
            captured = self._captured_name(base)
            if captured is not None:
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        call,
                        f"{base}.{func.attr}() mutates {captured!r} after it "
                        f"was submitted to a process pool (line "
                        f"{self.submitted[captured]}); submit() pickles "
                        "arguments lazily, so workers race this write — "
                        "submit an immutable copy instead",
                    )
                )

    def _capture(self, expr: ast.expr, lineno: int) -> None:
        """Record the names an argument expression captures by reference."""
        if isinstance(expr, ast.Constant):
            return
        name = dotted_name(expr)
        if name is not None:
            self.submitted.setdefault(name, lineno)
            return
        if isinstance(expr, (ast.Tuple, ast.List, ast.Starred)):
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._capture(child, lineno)
        elif isinstance(expr, ast.Call):
            # dict(cfg) / list(xs) copy at call time: breaks the capture.
            return

    def _captured_name(self, target: str | None) -> str | None:
        """The submitted name ``target`` writes through, if any."""
        if target is None:
            return None
        for name in self.submitted:
            if target == name or target.startswith(name + "."):
                return name
        return None

    # -- later writes ---------------------------------------------------- #
    def _exec(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._check_write(target, aug=False)
        elif isinstance(stmt, ast.AugAssign):
            self._check_write(stmt.target, aug=True)
        super()._exec(stmt, env)

    def _check_write(self, target: ast.expr, *, aug: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self._check_write(el, aug=aug)
            return
        root = _mutation_root(target)
        name = dotted_name(root)
        if name is None:
            return
        # A plain rebind points the local at a new object; the submitted
        # one is unreachable from here, so the capture ends (augmented
        # assignment on the bare name still mutates in place for lists).
        if root is target and not aug:
            self.submitted.pop(name, None)
            return
        captured = self._captured_name(name)
        if captured is not None:
            self.findings.append(
                self.rule.finding(
                    self.module,
                    target,
                    f"{captured!r} is written after being submitted to a "
                    f"process pool (line {self.submitted[captured]}); "
                    "submit() pickles arguments lazily, so workers race "
                    "this write — finish mutating before submitting, or "
                    "submit a copy",
                )
            )


class SubmitThenMutateRule(Rule):
    """RACE001 — object mutated after ProcessPoolExecutor submission."""

    rule_id = "RACE001"
    title = "object mutated after ProcessPoolExecutor submission"
    rationale = (
        "ProcessPoolExecutor.submit() does not serialize its arguments "
        "at call time — the pickler runs when a worker dequeues the "
        "task. Mutating a submitted object afterwards therefore races "
        "the serialization: some workers see the pre-write state, "
        "others the post-write state, and the sweep's results stop "
        "being a function of the seed. The runtime sanitizer cannot "
        "catch this (each worker's run is individually consistent); "
        "only the submitting scope shows the bug."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.is_test_module:
            return
        flow = _RaceFlow(self, module)
        flow.analyze_module(module.tree)
        yield from flow.findings
