"""Structural-convention rule.

Every public module declares its surface with ``__all__`` (which the
docs meta-tests lean on), so new modules cannot grow accidental API.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.base import Finding, ModuleInfo, Rule

__all__ = ["PublicModuleAllRule"]


class PublicModuleAllRule(Rule):
    """STR003 — public modules declare ``__all__``."""

    rule_id = "STR003"
    title = "public module without __all__"
    rationale = (
        "__all__ is the package's declared surface: the docs meta-tests "
        "and `from module import *` hygiene both key off it, and an "
        "undeclared surface grows accidental API."
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.is_private_module or module.is_test_module:
            return
        for node in module.tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return
        yield self.finding(
            module,
            1,
            f"{module.name} defines no __all__; declare the module's public "
            "surface explicitly",
        )
