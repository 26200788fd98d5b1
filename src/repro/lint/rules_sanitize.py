"""RACE001, the runtime sanitizer's static counterpart for sweeps.

An object submitted to a ``ProcessPoolExecutor`` must not be mutated
afterwards in the same scope. ``submit()`` serializes its arguments
*lazily* (when a worker picks the task up), so a post-submit mutation
races the pickler and different workers can observe different argument
states — the classic nondeterministic-sweep bug the sanitizer cannot
see from inside any single run.

Like every flow rule here, the analysis under-approximates (single
forward pass, no aliasing through locals): it exists to catch the idioms
that actually appear, not to prove absence.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.base import Finding, ModuleInfo, Rule, dotted_name
from repro.lint.dataflow import Env, ForwardFlow, Tags, iter_scopes

__all__ = ["SubmitThenMutateRule"]

_EMPTY: Tags = frozenset()


def _mutation_root(target: ast.expr) -> ast.expr:
    """Strip subscripts: the object actually written through."""
    while isinstance(target, ast.Subscript):
        target = target.value
    return target


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
