"""Flow-aware RNG-provenance and determinism rules.

These rules ride the :class:`~repro.lint.dataflow.ForwardFlow` engine:
instead of pattern-matching single expressions they track *values* —
generators, executors, unordered containers — from their creation sites
through assignments, attributes and call arguments within each scope.

* **RNG005** — generator provenance: library code must obtain every
  :class:`numpy.random.Generator` from the seeded factory / named-stream
  API (``repro.utils.rng``), never by constructing one from numpy
  directly — even a *seeded* ``default_rng(123)`` in library code forks
  the reproduction's single-root-seed discipline into a second root.
* **RNG006** — process-boundary crossing: a generator object must not be
  pickled into a ``ProcessPoolExecutor`` submission. Pickling copies the
  bit-generator state, so every worker replays the *same* stream — the
  classic silently-correlated-replicas bug. Workers receive seeds /
  ``SeedSequence`` children and respawn locally.
* **DET003** — order flow: a sequence materialized from unordered
  iteration (sets; dict views) must not flow into grant/accept decisions
  or queue ordering. DET002 flags ``for x in {...}`` syntactically;
  DET003 follows the taint through ``order = list(pending)`` and loop
  variables until it reaches a decision sink — a ``grant``/``add``-style
  call, or a key stored into a decision's ``masks`` (directly or through
  a local bound from ``<decision>.masks``) — and ``sorted()`` launders
  it on the way.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.base import Finding, ModuleInfo, Rule, Severity, dotted_name
from repro.lint.dataflow import Env, ForwardFlow, Tags

__all__ = [
    "GeneratorProvenanceRule",
    "GeneratorIntoWorkerRule",
    "OrderFlowRule",
]

_EMPTY: Tags = frozenset()

#: Spellings under which numpy generator construction appears.
_NUMPY_GENERATOR_CTORS = frozenset(
    {"default_rng", "Generator", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)

#: The sanctioned factory / named-stream API of repro.utils.rng.
_SANCTIONED_FACTORIES = frozenset({"make_rng", "spawn_rngs"})


class GeneratorProvenanceRule(Rule):
    """RNG005 — generators must come from the seeded factory API."""

    rule_id = "RNG005"
    title = "Generator constructed outside the repro.utils.rng factory"
    rationale = (
        "Bit-exact replay needs every stream to descend from one root "
        "seed through the SeedSequence tree repro.utils.rng manages. A "
        "Generator built directly from numpy — even with a literal seed — "
        "creates a second root the run seed does not control, so two "
        "experiments with the same --seed stop being comparable."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.is_rng_module or module.is_test_module:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[-1] not in _NUMPY_GENERATOR_CTORS:
                continue
            yield self.finding(
                module,
                node,
                f"{name}() constructs a generator outside repro.utils.rng; "
                "derive streams from the run seed via make_rng/spawn_rngs/"
                "RngStreams so provenance stays a single SeedSequence tree",
            )


class _WorkerFlow(ForwardFlow):
    """Dataflow pass behind RNG006."""

    GEN = "generator"
    EXECUTOR = "process-pool"

    def __init__(self, rule: "GeneratorIntoWorkerRule", module: ModuleInfo) -> None:
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []

    def call_tags(self, call: ast.Call, env: Env) -> Tags:
        name = dotted_name(call.func)
        last = name.rsplit(".", 1)[-1] if name else None
        if last in _SANCTIONED_FACTORIES or last in _NUMPY_GENERATOR_CTORS:
            return frozenset({self.GEN})
        # RngStreams.get() hands out a generator; detect via the receiver
        # being an RngStreams(...) value.
        if last == "get" and "rng-streams" in self.receiver_tags(call, env):
            return frozenset({self.GEN})
        if last == "RngStreams":
            return frozenset({"rng-streams"})
        if last == "ProcessPoolExecutor":
            return frozenset({self.EXECUTOR})
        return _EMPTY

    def on_call(self, call: ast.Call, env: Env) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        if call.func.attr not in ("submit", "map"):
            return
        if self.EXECUTOR not in self.receiver_tags(call, env):
            return
        payload = call.args[1:] if call.func.attr == "submit" else call.args
        exprs = list(payload) + [kw.value for kw in call.keywords]
        for expr in exprs:
            if self.GEN in self._peek(expr, env):
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        call,
                        f"a numpy Generator flows into {call.func.attr}() on "
                        "a ProcessPoolExecutor; pickling copies bit-generator "
                        "state so workers replay identical streams — pass a "
                        "seed/SeedSequence child and respawn in the worker",
                    )
                )
                return

    def _peek(self, expr: ast.expr, env: Env) -> Tags:
        """Tags of ``expr`` without re-firing sink hooks."""
        key = dotted_name(expr)
        if key is not None and key in env:
            return env[key]
        if isinstance(expr, (ast.Tuple, ast.List)):
            out = _EMPTY
            for el in expr.elts:
                out |= self._peek(el, env)
            return out
        if isinstance(expr, ast.Starred):
            return self._peek(expr.value, env)
        if isinstance(expr, ast.Subscript):
            return self._peek(expr.value, env)
        return _EMPTY


class GeneratorIntoWorkerRule(Rule):
    """RNG006 — no Generator object crosses into a process-pool worker."""

    rule_id = "RNG006"
    title = "Generator object submitted to a ProcessPoolExecutor"
    rationale = (
        "Generators pickle by value: each worker receives a *copy* of the "
        "bit-generator state, so parallel replicas draw identical streams "
        "and the sweep's statistics silently collapse to one sample. "
        "Worker submissions carry seeds or SeedSequence children; the "
        "worker respawns its own generator (see repro.experiments.sweep)."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.is_test_module:
            return
        flow = _WorkerFlow(self, module)
        flow.analyze_module(module.tree)
        yield from flow.findings


#: Call names that commit a scheduling/queueing decision.
_DECISION_SINKS = frozenset(
    {"add", "add_grant", "grant", "accept", "enqueue", "push", "appendleft"}
)

#: Function-name prefixes whose return value is an ordering decision.
_DECISION_SCOPES = ("schedule", "grant", "accept", "arbitrate", "pick_", "select_")

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)
_UNORDERED_CTORS = frozenset({"set", "frozenset", "dict", "defaultdict", "Counter"})
_VIEW_METHODS = frozenset({"keys", "values", "items"})


class _OrderFlow(ForwardFlow):
    """Dataflow pass behind DET003."""

    #: An unordered container (set/dict object) — harmless until iterated.
    U = "unordered"
    #: A sequence/element whose order came from unordered iteration.
    T = "order-tainted"
    #: A decision's grant dict (``<decision>.masks``): the order its keys
    #: are stored in is the order commit emits deliveries in.
    M = "decision-masks"

    clearing_calls = ForwardFlow.clearing_calls | {"sum", "len"}

    def __init__(self, rule: "OrderFlowRule", module: ModuleInfo) -> None:
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []

    # -- origins ------------------------------------------------------- #
    def expr_origin_tags(self, expr: ast.expr, env: Env) -> Tags:
        if isinstance(expr, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
            return frozenset({self.U})
        if isinstance(expr, ast.Attribute) and expr.attr == "masks":
            return frozenset({self.M})
        return _EMPTY

    def call_tags(self, call: ast.Call, env: Env) -> Tags:
        name = dotted_name(call.func)
        last = name.rsplit(".", 1)[-1] if name else None
        if last in _UNORDERED_CTORS:
            return frozenset({self.U})
        if isinstance(call.func, ast.Attribute):
            recv = self.receiver_tags(call, env)
            if call.func.attr in _SET_METHODS:
                return frozenset({self.U})
            if call.func.attr in _VIEW_METHODS and self.U in recv:
                return frozenset({self.U})
        return _EMPTY

    # -- propagation: iterating U yields T ------------------------------ #
    def element_tags(self, container_tags: Tags) -> Tags:
        out = set(container_tags - {self.U, self.M})
        if self.U in container_tags:
            out.add(self.T)
        return frozenset(out)

    # list(unordered) materializes an order-dependent sequence.
    def _eval_call(self, call: ast.Call, env: Env) -> Tags:
        tags = super()._eval_call(call, env)
        name = dotted_name(call.func)
        last = name.rsplit(".", 1)[-1] if name else None
        if last in ("list", "tuple", "iter", "reversed", "enumerate"):
            if self.U in tags:
                tags = (tags - {self.U}) | {self.T}
        return tags

    # -- sinks ---------------------------------------------------------- #
    def on_call(self, call: ast.Call, env: Env) -> None:
        name = dotted_name(call.func)
        last = name.rsplit(".", 1)[-1] if name else None
        if last not in _DECISION_SINKS:
            return
        # Adding a tainted element to a *set* is harmless — the container
        # is unordered anyway; only ordered sinks fix the iteration order.
        if self.U in self.receiver_tags(call, env):
            return
        for expr in list(call.args) + [kw.value for kw in call.keywords]:
            key = dotted_name(expr)
            tags = env.get(key, _EMPTY) if key is not None else _EMPTY
            if self.T in tags:
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        call,
                        f"argument {key!r} of {last}() carries an ordering "
                        "derived from set/dict iteration; the decision "
                        "sequence varies with hash/insertion order — "
                        "sort the iterable at its source",
                    )
                )
                return

    def on_store(self, target: ast.Subscript, tags: Tags, env: Env) -> None:
        # ``masks[i] = m``: the key's order is the grant order; the value
        # is an int mask, which carries none.
        if self.M not in self._eval(target.value, env):
            return
        if self.T in self._eval(target.slice, env):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    target,
                    f"key {ast.unparse(target.slice)!r} stored into a "
                    "decision's masks carries an ordering derived from "
                    "set/dict iteration; the grant order varies with "
                    "hash/insertion order — sort the iterable at its source",
                )
            )

    def on_return(self, node: ast.Return, tags: Tags, env: Env) -> None:
        # Returning a set/dict object is fine (still unordered at the
        # caller); only a *materialized order* (T) commits the decision.
        if self.T not in tags:
            return
        name = self.scope_name()
        if name.startswith(_DECISION_SCOPES):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    f"{name}() returns a value derived from set/dict "
                    "iteration; callers consume it as a scheduling order, "
                    "which then varies between runs of the same seed — "
                    "sort before returning",
                )
            )


class OrderFlowRule(Rule):
    """DET003 — unordered iteration flowing into decisions/queues."""

    rule_id = "DET003"
    title = "set/dict iteration order flows into a scheduling decision"
    rationale = (
        "DET002 catches `for x in {...}` at the loop header, but the "
        "taint survives `order = list(pending)` and loop variables: once "
        "a sequence whose order came from a set or dict reaches "
        "grant/accept/enqueue calls, keys a decision's masks or is "
        "returned from a schedule_* function, the same seed no longer "
        "reproduces the same matching. "
        "sorted() launders the taint at any point on the path."
    )
    severity = Severity.WARNING

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.is_test_module:
            return
        flow = _OrderFlow(self, module)
        flow.analyze_module(module.tree)
        yield from flow.findings
