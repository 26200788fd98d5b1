"""RNG-discipline rules.

The reproduction's headline property — bit-for-bit identical results from
one integer seed — requires that *every* random draw flow through the
seeded :class:`numpy.random.Generator` streams built by
:mod:`repro.utils.rng`. These rules reject two ways that discipline
erodes without moving a pinned digest: seeding global RNG state, and the
stdlib :mod:`random` module. A draw from global or unseeded state does
move every digest, so the pins catch it (docs/kill_matrix.md).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.base import Finding, ModuleInfo, Rule, dotted_name

__all__ = ["NoGlobalNumpySeedRule", "NoStdlibRandomRule"]


class NoGlobalNumpySeedRule(Rule):
    """RNG001 — never seed global RNG state."""

    rule_id = "RNG001"
    title = "global RNG seeding is forbidden"
    rationale = (
        "np.random.seed()/random.seed() mutate hidden global state, so any "
        "import-order or call-order change silently reshuffles every "
        "subsequent draw. All seeding goes through repro.utils.rng streams."
    )

    _BANNED = frozenset({"np.random.seed", "numpy.random.seed", "random.seed"})

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted in self._BANNED:
                    yield self.finding(
                        module,
                        node,
                        f"{dotted}() seeds global RNG state; derive a stream "
                        "via repro.utils.rng.make_rng/spawn_rngs instead",
                    )


class NoStdlibRandomRule(Rule):
    """RNG003 — the stdlib :mod:`random` module is off limits."""

    rule_id = "RNG003"
    title = "stdlib random module import"
    rationale = (
        "random.random() et al. share one process-global Mersenne Twister "
        "whose state no seed we control pins down across libraries. Only "
        "repro/utils/rng.py (and tests) may touch non-numpy randomness."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.is_rng_module or module.is_test_module:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module,
                            node,
                            "import random: stdlib RNG bypasses the seeded "
                            "numpy streams; use repro.utils.rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.finding(
                        module,
                        node,
                        "from random import ...: stdlib RNG bypasses the "
                        "seeded numpy streams; use repro.utils.rng",
                    )
