"""Intra-procedural def-use dataflow for flow-aware lint rules.

:class:`ForwardFlow` is a small abstract-interpretation engine over one
lexical scope (the module body, or one function body): it walks the
statements in textual order, maintaining an environment mapping names —
including ``self.x``-style dotted attribute chains — to sets of string
*tags*. Rules subclass it and define what creates a tag
(:meth:`ForwardFlow.call_tags`, :meth:`ForwardFlow.expr_origin_tags`)
and what to do at interesting program points
(:meth:`ForwardFlow.on_call`, :meth:`ForwardFlow.on_return`,
:meth:`ForwardFlow.on_store`).

The analysis is deliberately modest, matching what the RNG-provenance
and order-flow rules need:

* **Single forward pass, no fixpoint.** Loop bodies are visited once;
  a tag that only becomes true on the second iteration is missed. This
  under-approximates, never crashes, and is deterministic — the right
  trade for a linter that must not false-positive its own tree into
  noise.
* **Branch union.** Both arms of ``if``/``try`` execute against the same
  environment and their bindings merge (a tag set in either arm
  survives), over-approximating the join without path sensitivity.
* **Scopes are independent.** Nested functions start from an empty
  environment (closure captures are not modeled); class bodies
  contribute their methods as separate scopes.

Propagation is structural: tags flow through assignment, tuple
unpacking, subscripts, ``for`` targets, comprehensions, conditional
expressions and arithmetic/boolean operators. Calls are rule-territory,
with two convenience sets: :attr:`ForwardFlow.transparent_calls`
(``list``/``tuple``/... — the result carries its first argument's tags)
and :attr:`ForwardFlow.clearing_calls` (``sorted``/``min``/... — the
result is tag-free, which is how an order-taint is laundered).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.base import dotted_name

__all__ = ["ForwardFlow", "iter_scopes"]

Tags = frozenset[str]
Env = dict[str, Tags]

_EMPTY: Tags = frozenset()

#: Scope-introducing statements (analyzed separately, not descended into).
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def iter_scopes(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield ``(scope_node, body)`` for the module and every function.

    The module body comes first; functions (including methods and nested
    functions) follow in source order. Class bodies are not scopes of
    their own — their statements execute at module level semantically,
    but for tag purposes treating each method independently is enough.
    """
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


class ForwardFlow:
    """One forward tag-propagation pass per scope. Subclass per rule."""

    #: Calls whose result carries the first argument's tags.
    transparent_calls = frozenset(
        {"list", "tuple", "iter", "reversed", "enumerate", "copy", "deepcopy"}
    )
    #: Calls whose result drops all tags (order laundering / reductions).
    clearing_calls = frozenset(
        {"sorted", "min", "max", "sum", "len", "any", "all", "bool", "int", "str"}
    )

    def __init__(self) -> None:
        self.scope: ast.AST | None = None

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    def call_tags(self, call: ast.Call, env: Env) -> Tags:
        """Tags originated by ``call`` itself (creation sites)."""
        return _EMPTY

    def expr_origin_tags(self, expr: ast.expr, env: Env) -> Tags:
        """Tags originated by a non-call expression (literals etc.)."""
        return _EMPTY

    def element_tags(self, container_tags: Tags) -> Tags:
        """Tags of one element drawn from a container with ``container_tags``
        (``for x in c`` / comprehension targets). Default: inherit."""
        return container_tags

    def on_call(self, call: ast.Call, env: Env) -> None:
        """Sink hook: inspect a call with the environment as of that point."""

    def on_return(self, node: ast.Return, tags: Tags, env: Env) -> None:
        """Sink hook: inspect a return value's tags."""

    def on_store(self, target: ast.Subscript, tags: Tags, env: Env) -> None:
        """Sink hook: a value with ``tags`` is stored into ``target``
        (``x[k] = v`` or ``x[k] op= v``)."""

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def analyze_module(self, tree: ast.Module) -> None:
        """Run the pass over every scope of ``tree``."""
        for scope, body in iter_scopes(tree):
            self.scope = scope
            env: Env = {}
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._bind_params(scope, env)
            for stmt in body:
                self._exec(stmt, env)

    def _bind_params(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, env: Env
    ) -> None:
        """Evaluate default expressions (they run in the enclosing scope,
        but visiting them here keeps creation sites observable)."""
        for default in list(func.args.defaults) + [
            d for d in func.args.kw_defaults if d is not None
        ]:
            self._eval(default, env)

    # ------------------------------------------------------------------ #
    def _exec(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, _SCOPE_NODES):
            for deco in getattr(stmt, "decorator_list", []):
                self._eval(deco, env)
            return  # analyzed as its own scope
        if isinstance(stmt, ast.Assign):
            tags = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, tags, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            tags = self._eval(stmt.value, env)
            if isinstance(stmt.target, ast.Subscript):
                self.on_store(stmt.target, tags, env)
            key = dotted_name(stmt.target)
            if key is not None:
                env[key] = env.get(key, _EMPTY) | tags
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            it_tags = self._eval(stmt.iter, env)
            self._bind(stmt.target, self.element_tags(it_tags), env)
            for s in stmt.body:
                self._exec(s, env)
            for s in stmt.orelse:
                self._exec(s, env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            for s in stmt.body + stmt.orelse:
                self._exec(s, env)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            for s in stmt.body + stmt.orelse:
                self._exec(s, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tags = self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, tags, env)
            for s in stmt.body:
                self._exec(s, env)
        elif isinstance(stmt, ast.Try):
            for s in stmt.body:
                self._exec(s, env)
            for handler in stmt.handlers:
                for s in handler.body:
                    self._exec(s, env)
            for s in stmt.orelse + stmt.finalbody:
                self._exec(s, env)
        elif isinstance(stmt, ast.Return):
            tags = self._eval(stmt.value, env) if stmt.value is not None else _EMPTY
            self.on_return(stmt, tags, env)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                key = dotted_name(target)
                if key is not None:
                    env.pop(key, None)
        # Import/Global/Nonlocal/Pass/Break/Continue: no tag traffic.

    # ------------------------------------------------------------------ #
    def _bind(self, target: ast.expr, tags: Tags, env: Env) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self._bind(el, self.element_tags(tags), env)
            return
        if isinstance(target, ast.Starred):
            self._bind(target.value, tags, env)
            return
        if isinstance(target, ast.Subscript):
            self.on_store(target, tags, env)
            return
        key = dotted_name(target)
        if key is not None:
            env[key] = tags

    # ------------------------------------------------------------------ #
    def _eval(self, expr: ast.expr, env: Env) -> Tags:
        tags = self._eval_inner(expr, env)
        return tags | self.expr_origin_tags(expr, env)

    def _eval_inner(self, expr: ast.expr, env: Env) -> Tags:
        if isinstance(expr, (ast.Name, ast.Attribute)):
            key = dotted_name(expr)
            if key is not None and key in env:
                return env[key]
            if isinstance(expr, ast.Attribute):
                # Unknown attribute of a tagged value keeps the tags
                # (e.g. ``streams._cache`` stays stream-tagged).
                return self._eval(expr.value, env)
            return _EMPTY
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Subscript):
            self._eval(expr.slice, env)
            return self.element_tags(self._eval(expr.value, env))
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, env)
        if isinstance(expr, (ast.Tuple, ast.List)):
            out = _EMPTY
            for el in expr.elts:
                out |= self._eval(el, env)
            return out
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, env)
            return self._eval(expr.body, env) | self._eval(expr.orelse, env)
        if isinstance(expr, ast.BinOp):
            return self._eval(expr.left, env) | self._eval(expr.right, env)
        if isinstance(expr, ast.BoolOp):
            out = _EMPTY
            for v in expr.values:
                out |= self._eval(v, env)
            return out
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand, env)
        if isinstance(expr, ast.Compare):
            self._eval(expr.left, env)
            for c in expr.comparators:
                self._eval(c, env)
            return _EMPTY
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comp(expr, [expr.elt], env)
        if isinstance(expr, ast.DictComp):
            return self._eval_comp(expr, [expr.key, expr.value], env)
        if isinstance(expr, (ast.JoinedStr, ast.FormattedValue)):
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._eval(child, env)
            return _EMPTY
        if isinstance(expr, (ast.Dict, ast.Set)):
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._eval(child, env)
            return _EMPTY  # displays originate via expr_origin_tags
        if isinstance(expr, (ast.Lambda, ast.NamedExpr)):
            if isinstance(expr, ast.NamedExpr):
                tags = self._eval(expr.value, env)
                self._bind(expr.target, tags, env)
                return tags
            return _EMPTY
        if isinstance(expr, (ast.Await, ast.YieldFrom)):
            return self._eval(expr.value, env)
        if isinstance(expr, ast.Yield):
            return self._eval(expr.value, env) if expr.value is not None else _EMPTY
        if isinstance(expr, ast.Slice):
            for part in (expr.lower, expr.upper, expr.step):
                if part is not None:
                    self._eval(part, env)
            return _EMPTY
        return _EMPTY  # Constant and anything exotic

    def _eval_comp(
        self,
        comp: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
        elements: list[ast.expr],
        env: Env,
    ) -> Tags:
        # Comprehension targets live in a child env seeded from ours.
        inner: Env = dict(env)
        for gen in comp.generators:
            it_tags = self._eval(gen.iter, inner)
            self._bind(gen.target, self.element_tags(it_tags), inner)
            for cond in gen.ifs:
                self._eval(cond, inner)
        out = _EMPTY
        for el in elements:
            out |= self._eval(el, inner)
        return out

    def _eval_call(self, call: ast.Call, env: Env) -> Tags:
        first_tags = _EMPTY
        for i, arg in enumerate(call.args):
            t = self._eval(arg, env)
            if i == 0:
                first_tags = t
        for kw in call.keywords:
            self._eval(kw.value, env)
        # Evaluate the callee once (a tagged receiver stays visible).
        recv_tags = _EMPTY
        if isinstance(call.func, ast.Attribute):
            recv_tags = self._eval(call.func.value, env)
        elif not isinstance(call.func, ast.Name):
            self._eval(call.func, env)
        origin = self.call_tags(call, env)
        self.on_call(call, env)
        fname = dotted_name(call.func)
        last = fname.rsplit(".", 1)[-1] if fname else None
        if last in self.clearing_calls:
            return origin
        if last in self.transparent_calls:
            return origin | first_tags
        # Method call on a tagged receiver: keep the receiver's tags by
        # default (``rng.spawn()`` is still RNG-ish); rules can refine
        # via call_tags/clearing_calls.
        return origin | recv_tags

    # ------------------------------------------------------------------ #
    @staticmethod
    def receiver_tags(call: ast.Call, env: Env) -> Tags:
        """Tags of ``obj`` in an ``obj.method(...)`` call (else empty)."""
        if isinstance(call.func, ast.Attribute):
            key = dotted_name(call.func.value)
            if key is not None:
                return env.get(key, _EMPTY)
        return _EMPTY

    def scope_name(self) -> str:
        """Name of the current scope ("<module>" for the module body)."""
        if isinstance(self.scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return self.scope.name
        return "<module>"
