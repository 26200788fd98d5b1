"""Tests for the sanitizer-counterpart lint rule (RACE001) and for
deterministic finding order.

Same fixture discipline as tests/test_lint.py: every rule gets positive
(violation flagged), clean (not flagged) and suppression-comment cases on
small structured temp trees. The ordering tests pin that findings sort
canonically before any report is emitted, so reruns diff byte-stable.
"""

from __future__ import annotations

import random
import textwrap

import pytest

from repro.lint import Finding, finding_sort_key, format_text, run_lint
from repro.lint.engine import LintReport, default_rules
from repro.lint.rules_sanitize import SubmitThenMutateRule


def lint_tree(tmp_path, files: dict[str, str], rules) -> list[Finding]:
    """Write ``files`` (relpath -> source) under ``tmp_path`` and lint."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([tmp_path], rules=rules).findings


def only_ids(findings) -> list[str]:
    return [f.rule_id for f in findings]


# --------------------------------------------------------------------- #
# RACE001 — mutate-after-submit
# --------------------------------------------------------------------- #
class TestRACE001SubmitThenMutate:
    RULE = SubmitThenMutateRule

    def test_flags_write_after_submit(self, tmp_path):
        src = """
            from concurrent.futures import ProcessPoolExecutor

            def sweep(run_point, loads):
                pool = ProcessPoolExecutor()
                cfg = {"p": 0.1}
                fut = pool.submit(run_point, cfg)
                cfg["p"] = 0.9
                return fut
        """
        findings = lint_tree(tmp_path, {"repro/experiments/sweep.py": src}, [self.RULE()])
        assert only_ids(findings) == ["RACE001"]
        assert "pickles arguments lazily" in findings[0].message

    def test_flags_mutator_method_after_map(self, tmp_path):
        src = """
            from concurrent.futures import ProcessPoolExecutor

            def sweep(run_point, points):
                pool = ProcessPoolExecutor()
                results = pool.map(run_point, points)
                points.append(99)
                return list(results)
        """
        findings = lint_tree(tmp_path, {"repro/experiments/sweep.py": src}, [self.RULE()])
        assert only_ids(findings) == ["RACE001"]
        assert ".append()" in findings[0].message

    def test_clean_when_submitting_a_copy(self, tmp_path):
        src = """
            from concurrent.futures import ProcessPoolExecutor

            def sweep(run_point, loads):
                pool = ProcessPoolExecutor()
                cfg = {"p": 0.1}
                fut = pool.submit(run_point, dict(cfg))
                cfg["p"] = 0.9
                return fut
        """
        assert (
            lint_tree(tmp_path, {"repro/experiments/sweep.py": src}, [self.RULE()]) == []
        )

    def test_rebind_ends_the_capture(self, tmp_path):
        src = """
            from concurrent.futures import ProcessPoolExecutor

            def sweep(run_point):
                pool = ProcessPoolExecutor()
                cfg = {"p": 0.1}
                pool.submit(run_point, cfg)
                cfg = {"p": 0.9}
                cfg["b"] = 0.5
                return cfg
        """
        assert (
            lint_tree(tmp_path, {"repro/experiments/sweep.py": src}, [self.RULE()]) == []
        )

    def test_scopes_do_not_leak(self, tmp_path):
        src = """
            from concurrent.futures import ProcessPoolExecutor

            def submit_one(run_point, cfg):
                pool = ProcessPoolExecutor()
                return pool.submit(run_point, cfg)

            def unrelated(cfg):
                cfg["p"] = 0.9
        """
        assert (
            lint_tree(tmp_path, {"repro/experiments/sweep.py": src}, [self.RULE()]) == []
        )

    def test_suppression_comment(self, tmp_path):
        src = """
            # lint: disable=RACE001
            from concurrent.futures import ProcessPoolExecutor

            def sweep(run_point, loads):
                pool = ProcessPoolExecutor()
                cfg = {"p": 0.1}
                pool.submit(run_point, cfg)
                cfg["p"] = 0.9
        """
        assert (
            lint_tree(tmp_path, {"repro/experiments/sweep.py": src}, [self.RULE()]) == []
        )


# --------------------------------------------------------------------- #
# Deterministic finding order
# --------------------------------------------------------------------- #
def _shuffled_findings():
    findings = [
        Finding(rule_id=r, path=p, line=n, message=m)
        for p, n, r, m in [
            ("a/x.py", 3, "STR003", "bbb"),
            ("a/x.py", 3, "STR003", "aaa"),
            ("a/x.py", 3, "RACE001", "zzz"),
            ("a/x.py", 10, "STR003", "mmm"),
            ("b/y.py", 1, "RNG001", "nnn"),
        ]
    ]
    rng = random.Random(42)
    shuffled = list(findings)
    rng.shuffle(shuffled)
    return findings, shuffled


class TestDeterministicOrder:
    def test_sort_key_orders_path_line_rule_message(self):
        findings, shuffled = _shuffled_findings()
        expected = [
            ("a/x.py", 3, "RACE001", "zzz"),
            ("a/x.py", 3, "STR003", "aaa"),
            ("a/x.py", 3, "STR003", "bbb"),
            ("a/x.py", 10, "STR003", "mmm"),
            ("b/y.py", 1, "RNG001", "nnn"),
        ]
        out = sorted(shuffled, key=finding_sort_key)
        assert [(f.path, f.line, f.rule_id, f.message) for f in out] == expected

    def test_format_text_is_order_independent(self):
        findings, shuffled = _shuffled_findings()
        a = format_text(LintReport(findings=findings, files_scanned=2))
        b = format_text(LintReport(findings=shuffled, files_scanned=2))
        assert a == b

    def test_engine_emits_sorted_findings(self, tmp_path):
        """run_lint's report is already canonically ordered, whatever
        order the rules produced findings in."""
        files = {
            "repro/zeta/b.py": "import numpy as np\nnp.random.seed(1)\n",
            "repro/alpha/a.py": "import numpy as np\nnp.random.seed(1)\n",
        }
        findings = lint_tree(tmp_path, files, default_rules())
        assert findings == sorted(findings, key=finding_sort_key)
        assert len(findings) >= 2


# --------------------------------------------------------------------- #
# Catalog wiring + dogfood
# --------------------------------------------------------------------- #
class TestCatalog:
    def test_rules_registered_in_default_catalog(self):
        ids = [r.rule_id for r in default_rules()]
        for rule_id in ("RACE001",):
            assert rule_id in ids

    def test_own_source_tree_is_clean(self):
        """Dogfood: src/repro carries no seam breaches or
        mutate-after-submit races."""
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        report = run_lint(
            [src],
            rules=[SubmitThenMutateRule()],
        )
        assert report.findings == []
