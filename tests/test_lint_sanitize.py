"""Tests for the sanitizer-counterpart lint rules (SAN001/SAN002/RACE001)
and for deterministic finding order.

Same fixture discipline as tests/test_lint.py: every rule gets positive
(violation flagged), clean (not flagged) and suppression-comment cases on
small structured temp trees, plus a baseline round-trip. The ordering
tests pin satellite guarantee #2 — findings sort canonically before any
report or SARIF emission, so reruns diff byte-stable.
"""

from __future__ import annotations

import random
import textwrap

import pytest

from repro.lint import (
    Baseline,
    Finding,
    finding_sort_key,
    format_text,
    run_lint,
    sarif_document,
    write_baseline,
)
from repro.lint.engine import LintReport, default_rules
from repro.lint.rules_sanitize import (
    InvariantCoverageRule,
    StateSeamOwnershipRule,
    SubmitThenMutateRule,
)


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
# SAN001 — SwitchState seam ownership
# --------------------------------------------------------------------- #
class TestSAN001StateSeamOwnership:
    RULE = StateSeamOwnershipRule

    def test_flags_protected_field_write(self, tmp_path):
        src = """
            def schedule_state(state, input_free=None, output_free=None):
                state.backlog = 0
                return None
        """
        findings = lint_tree(tmp_path, {"repro/core/algo.py": src}, [self.RULE()])
        assert only_ids(findings) == ["SAN001"]
        assert "admit()/serve()" in findings[0].message

    def test_flags_scratch_write_outside_seam_entry(self, tmp_path):
        """SwitchState has no scheduler-writable scratch left: the
        HOL-packet index is kernel bookkeeping like any other field."""
        src = """
            def warm_caches(state):
                state.p_hol[0] = 0
                state.hol_pids[0].pop(0)
        """
        findings = lint_tree(tmp_path, {"repro/core/algo.py": src}, [self.RULE()])
        assert only_ids(findings) == ["SAN001", "SAN001"]
        assert "admit()/serve()" in findings[0].message
        assert "hol_pids.pop()" in findings[1].message

    def test_flags_state_mutator_call(self, tmp_path):
        src = """
            def schedule_state(state):
                state.serve(0, (1,))
        """
        findings = lint_tree(tmp_path, {"repro/core/algo.py": src}, [self.RULE()])
        assert only_ids(findings) == ["SAN001"]
        assert "serve()" in findings[0].message

    def test_flags_inplace_array_mutation(self, tmp_path):
        src = """
            def schedule_state(state):
                state.occupancy.fill(0)
        """
        findings = lint_tree(tmp_path, {"repro/core/algo.py": src}, [self.RULE()])
        assert only_ids(findings) == ["SAN001"]
        assert ".fill()" in findings[0].message

    def test_tracks_annotated_params_and_constructions(self, tmp_path):
        src = """
            from repro.kernel.state import SwitchState

            def rebuild(snapshot: SwitchState):
                snapshot.live = [0]

            def fresh():
                s = SwitchState(4)
                s.backlog = 1
        """
        findings = lint_tree(tmp_path, {"repro/core/algo.py": src}, [self.RULE()])
        assert only_ids(findings) == ["SAN001", "SAN001"]

    def test_clean_scratch_write_inside_seam_entry(self, tmp_path):
        """The entry point buys no exemption: writing the index there is
        flagged; reading it and keeping round state in locals is clean."""
        flagged = """
            def schedule_state(state, input_free=None, output_free=None):
                state.p_hol[3] |= 1
                state.hol_pids[0].append(3)
                return None
        """
        findings = lint_tree(
            tmp_path, {"repro/core/algo.py": flagged}, [self.RULE()]
        )
        assert only_ids(findings) == ["SAN001", "SAN001"]
        clean = """
            def schedule_state(state, input_free=None, output_free=None):
                free = (1 << state.num_ports) - 1
                requests = []
                for i, pids in enumerate(state.hol_pids):
                    if pids and state.p_hol[pids[0]] & free:
                        requests.append((state.p_ts[pids[0]], i))
                requests.sort()
                return requests
        """
        assert lint_tree(tmp_path, {"repro/core/algo.py": clean}, [self.RULE()]) == []

    def test_clean_reads_and_untracked_names(self, tmp_path):
        src = """
            def schedule_state(state):
                total = state.backlog + sum(state.live)
                other = object()
                other.backlog = 1  # not a SwitchState
                return total
        """
        assert lint_tree(tmp_path, {"repro/core/algo.py": src}, [self.RULE()]) == []

    def test_kernel_package_is_exempt(self, tmp_path):
        src = """
            def admit(state, packet):
                state.backlog += packet.fanout
        """
        assert lint_tree(tmp_path, {"repro/kernel/extra.py": src}, [self.RULE()]) == []

    def test_kernel_backend_subclass_is_exempt(self, tmp_path):
        src = """
            from repro.kernel.base import KernelBackend

            class BatchedBackend(KernelBackend):
                def commit(self, state):
                    state.backlog -= 1
        """
        assert lint_tree(tmp_path, {"repro/experiments/bk.py": src}, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = """
            # lint: disable=SAN001
            def schedule_state(state):
                state.backlog = 0
        """
        assert lint_tree(tmp_path, {"repro/core/algo.py": src}, [self.RULE()]) == []


# --------------------------------------------------------------------- #
# SAN002 — invariant coverage of registered switches
# --------------------------------------------------------------------- #
_REGISTRY = """
    from repro.switch.custom import GadgetSwitch

    def _make_gadget(num_ports, rng=None, **kwargs):
        return GadgetSwitch(num_ports, **kwargs)
"""


class TestSAN002InvariantCoverage:
    RULE = InvariantCoverageRule

    def test_flags_missing_override(self, tmp_path):
        files = {
            "repro/schedulers/registry.py": _REGISTRY,
            "repro/switch/custom.py": """
                class GadgetSwitch:
                    pass
            """,
        }
        findings = lint_tree(tmp_path, files, [self.RULE()])
        assert only_ids(findings) == ["SAN002"]
        assert "no-op" in findings[0].message
        assert findings[0].path.endswith("repro/switch/custom.py")

    def test_flags_unreachable_override(self, tmp_path):
        files = {
            "repro/schedulers/registry.py": _REGISTRY,
            "repro/switch/custom.py": """
                class GadgetSwitch:
                    def check_invariants(self):
                        pass
            """,
        }
        findings = lint_tree(tmp_path, files, [self.RULE()])
        assert only_ids(findings) == ["SAN002"]
        assert "dead code" in findings[0].message

    def test_clean_with_override_and_call_site(self, tmp_path):
        files = {
            "repro/schedulers/registry.py": _REGISTRY,
            "repro/switch/custom.py": """
                class GadgetSwitch:
                    def check_invariants(self):
                        pass
            """,
            "repro/sim/loop.py": """
                def drive(switch):
                    switch.check_invariants()
            """,
        }
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_inherited_override_counts(self, tmp_path):
        files = {
            "repro/schedulers/registry.py": _REGISTRY,
            "repro/switch/custom.py": """
                from repro.switch.base import CheckedSwitch

                class GadgetSwitch(CheckedSwitch):
                    pass
            """,
            "repro/switch/base.py": """
                class CheckedSwitch:
                    def check_invariants(self):
                        pass
            """,
            "repro/sim/loop.py": """
                def drive(switch):
                    switch.check_invariants()
            """,
        }
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_non_switch_factories_ignored(self, tmp_path):
        files = {
            "repro/schedulers/registry.py": """
                from repro.core.fifoms import FIFOMSScheduler

                def _make_sched(rng=None):
                    return FIFOMSScheduler(rng=rng)
            """,
            "repro/core/fifoms.py": """
                class FIFOMSScheduler:
                    pass
            """,
        }
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        files = {
            "repro/schedulers/registry.py": _REGISTRY,
            "repro/switch/custom.py": """
                # lint: disable=SAN002
                class GadgetSwitch:
                    pass
            """,
        }
        assert lint_tree(tmp_path, files, [self.RULE()]) == []


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

    def test_baseline_round_trip(self, tmp_path):
        src = """
            from concurrent.futures import ProcessPoolExecutor

            def sweep(run_point):
                pool = ProcessPoolExecutor()
                cfg = {"p": 0.1}
                pool.submit(run_point, cfg)
                cfg["p"] = 0.9
        """
        files = {"repro/experiments/sweep.py": src}
        first = lint_tree(tmp_path, files, [self.RULE()])
        assert first
        bpath = tmp_path / "lint-baseline.json"
        write_baseline(bpath, first)
        report = run_lint(
            [tmp_path], rules=[self.RULE()], baseline=Baseline.load(bpath)
        )
        assert report.findings == []
        assert report.baselined == len(first)


# --------------------------------------------------------------------- #
# Deterministic finding order
# --------------------------------------------------------------------- #
def _shuffled_findings():
    findings = [
        Finding(rule_id=r, path=p, line=n, message=m)
        for p, n, r, m in [
            ("a/x.py", 3, "SAN001", "bbb"),
            ("a/x.py", 3, "SAN001", "aaa"),
            ("a/x.py", 3, "RACE001", "zzz"),
            ("a/x.py", 10, "SAN001", "mmm"),
            ("b/y.py", 1, "SAN002", "nnn"),
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
            ("a/x.py", 3, "SAN001", "aaa"),
            ("a/x.py", 3, "SAN001", "bbb"),
            ("a/x.py", 10, "SAN001", "mmm"),
            ("b/y.py", 1, "SAN002", "nnn"),
        ]
        out = sorted(shuffled, key=finding_sort_key)
        assert [(f.path, f.line, f.rule_id, f.message) for f in out] == expected

    def test_format_text_is_order_independent(self):
        findings, shuffled = _shuffled_findings()
        a = format_text(LintReport(findings=findings, files_scanned=2))
        b = format_text(LintReport(findings=shuffled, files_scanned=2))
        assert a == b

    def test_sarif_results_are_order_independent(self):
        findings, shuffled = _shuffled_findings()
        rules = default_rules()
        a = sarif_document(LintReport(findings=findings, files_scanned=2), rules)
        b = sarif_document(LintReport(findings=shuffled, files_scanned=2), rules)
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
        for rule_id in ("SAN001", "SAN002", "RACE001"):
            assert rule_id in ids

    def test_own_source_tree_is_clean(self):
        """Dogfood: src/repro carries no seam breaches, uncovered
        switches, or mutate-after-submit races."""
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        report = run_lint(
            [src],
            rules=[
                StateSeamOwnershipRule(),
                InvariantCoverageRule(),
                SubmitThenMutateRule(),
            ],
        )
        assert report.findings == []
