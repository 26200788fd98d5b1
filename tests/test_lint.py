"""Tests for the repro.lint static analyzer.

Each rule gets positive (violation flagged), negative (clean code not
flagged) and suppression-comment cases on small fixture snippets written
into structured temp trees (so path-scoped exemptions like
``repro/utils/rng.py`` and ``repro/obs/`` are exercised for real). The
suite ends with the self-check the whole PR exists for: the project's
own ``src/repro`` tree must lint clean.
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    PARSE_RULE_ID,
    Finding,
    ModuleInfo,
    Severity,
    default_rules,
    format_json,
    format_text,
    iter_python_files,
    parse_suppressions,
    run_lint,
)
from repro.lint.rules_flow import (
    GeneratorIntoWorkerRule,
    GeneratorProvenanceRule,
    OrderFlowRule,
)
from repro.lint.rules_kernel import KernelClosurePurityRule
from repro.lint.rules_determinism import NoUnsortedSetIterationRule, NoWallClockRule
from repro.lint.rules_rng import NoGlobalNumpySeedRule, NoStdlibRandomRule
from repro.lint.rules_structure import PublicModuleAllRule

REPO = Path(__file__).resolve().parent.parent


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
# RNG discipline
# --------------------------------------------------------------------- #
class TestRNG001GlobalSeed:
    RULE = NoGlobalNumpySeedRule

    def test_flags_np_random_seed(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"repro/traffic/x.py": "import numpy as np\nnp.random.seed(7)\n"},
            [self.RULE()],
        )
        assert only_ids(findings) == ["RNG001"]
        assert findings[0].line == 2

    def test_clean_make_rng(self, tmp_path):
        src = """
            from repro.utils.rng import make_rng
            rng = make_rng(7)
        """
        assert lint_tree(tmp_path, {"repro/traffic/x.py": src}, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = """
            # lint: disable=RNG001
            import numpy as np
            np.random.seed(7)
        """
        assert lint_tree(tmp_path, {"repro/traffic/x.py": src}, [self.RULE()]) == []


class TestRNG003StdlibRandom:
    RULE = NoStdlibRandomRule

    def test_flags_import_and_importfrom(self, tmp_path):
        files = {
            "repro/core/a.py": "import random\n",
            "repro/core/b.py": "from random import shuffle\n",
        }
        findings = lint_tree(tmp_path, files, [self.RULE()])
        assert only_ids(findings) == ["RNG003", "RNG003"]

    def test_rng_module_and_tests_exempt(self, tmp_path):
        files = {
            "repro/utils/rng.py": "import random\n",
            "tests/test_thing.py": "import random\n",
        }
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_unrelated_import_clean(self, tmp_path):
        src = "from secrets import token_hex\nimport randomlib\n"
        assert lint_tree(tmp_path, {"repro/core/a.py": src}, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = "# lint: disable=RNG003\nimport random\n"
        assert lint_tree(tmp_path, {"repro/core/a.py": src}, [self.RULE()]) == []


# --------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------- #
class TestDET001WallClock:
    RULE = NoWallClockRule

    def test_flags_time_time_in_scheduler(self, tmp_path):
        src = """
            import time
            def tiebreak():
                return time.time()
        """
        findings = lint_tree(
            tmp_path, {"repro/schedulers/x.py": src}, [self.RULE()]
        )
        assert only_ids(findings) == ["DET001"]
        assert "time.time" in findings[0].message

    def test_flags_from_time_import(self, tmp_path):
        src = "from time import perf_counter_ns\n"
        for pkg in ("sim", "kernel"):
            findings = lint_tree(
                tmp_path / pkg, {f"repro/{pkg}/x.py": src}, [self.RULE()]
            )
            assert only_ids(findings) == ["DET001"], pkg

    def test_flags_datetime_now(self, tmp_path):
        src = "import datetime\nstamp = datetime.datetime.now()\n"
        findings = lint_tree(tmp_path, {"repro/report/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["DET001"]

    def test_obs_package_exempt(self, tmp_path):
        src = "import time\nt0 = time.perf_counter()\n"
        assert lint_tree(tmp_path, {"repro/obs/x.py": src}, [self.RULE()]) == []

    def test_only_tests_are_exempt(self, tmp_path):
        src = "import time\nt0 = time.perf_counter()\n"
        exempt = {"tests/x.py": src, "test_x.py": src, "conftest.py": src}
        assert lint_tree(tmp_path / "a", exempt, [self.RULE()]) == []
        checked = {"bench_x.py": src, "benchmarks/x.py": src}
        findings = lint_tree(tmp_path / "b", checked, [self.RULE()])
        assert only_ids(findings) == ["DET001", "DET001"]

    def test_clock_ns_alias_clean(self, tmp_path):
        src = """
            from repro.obs.profiler import clock_ns
            t0 = clock_ns()
        """
        assert lint_tree(tmp_path, {"repro/sim/x.py": src}, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = "# lint: disable=DET001\nimport time\nt = time.time()\n"
        assert lint_tree(tmp_path, {"repro/sim/x.py": src}, [self.RULE()]) == []


class TestDET002UnsortedSetIteration:
    RULE = NoUnsortedSetIterationRule

    def test_flags_for_over_set_call(self, tmp_path):
        src = """
            def pick(outputs):
                for j in set(outputs):
                    yield j
        """
        findings = lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["DET002"]
        assert findings[0].severity is Severity.WARNING

    def test_flags_comprehension_over_set_literal(self, tmp_path):
        src = "order = [v for v in {3, 1, 2}]\n"
        findings = lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["DET002"]

    def test_flags_set_method_result(self, tmp_path):
        src = """
            def free(a, b):
                for j in a.intersection(b):
                    yield j
        """
        findings = lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["DET002"]

    def test_sorted_wrapper_clean(self, tmp_path):
        src = """
            def pick(outputs):
                for j in sorted(set(outputs)):
                    yield j
            order = [v for v in sorted({3, 1, 2})]
        """
        assert lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()]) == []

    def test_list_iteration_clean(self, tmp_path):
        src = "for j in [1, 2, 3]:\n    pass\n"
        assert lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = "# lint: disable=DET002\nfor j in {1, 2}:\n    pass\n"
        assert lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()]) == []


# --------------------------------------------------------------------- #
# Structure
# --------------------------------------------------------------------- #
class TestSTR003PublicModuleAll:
    RULE = PublicModuleAllRule

    def test_flags_missing_all(self, tmp_path):
        src = '"""Public module."""\n\ndef helper():\n    pass\n'
        findings = lint_tree(tmp_path, {"repro/stats/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["STR003"]

    def test_declared_all_clean(self, tmp_path):
        src = '__all__ = ["helper"]\n\ndef helper():\n    pass\n'
        assert lint_tree(tmp_path, {"repro/stats/x.py": src}, [self.RULE()]) == []

    def test_private_modules_exempt(self, tmp_path):
        files = {
            "repro/_version.py": '__version__ = "1.0"\n',
            "repro/stats/__init__.py": "",
        }
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = "# lint: disable=STR003\ndef helper():\n    pass\n"
        assert lint_tree(tmp_path, {"repro/stats/x.py": src}, [self.RULE()]) == []


# --------------------------------------------------------------------- #
# Kernel hot-path purity (whole-project import graph)
# --------------------------------------------------------------------- #
KB003_TREE = {
    "repro/kernel/vectorized.py": """
        __all__ = []
        from repro.kernel.helper import pack
    """,
    "repro/kernel/helper.py": """
        __all__ = []
        from repro.verify.reference import DataCell

        def pack(cell):
            pass
    """,
    "repro/verify/reference.py": """
        __all__ = []

        class DataCell:
            pass
    """,
}


class TestKB003KernelClosurePurity:
    RULE = KernelClosurePurityRule

    def test_flags_indirect_reach(self, tmp_path):
        findings = lint_tree(tmp_path, dict(KB003_TREE), [self.RULE()])
        assert only_ids(findings) == ["KB003"]
        f = findings[0]
        assert "vectorized" in f.path
        assert "repro.kernel.helper -> repro.verify.reference" in f.message

    @pytest.mark.parametrize(
        "root, line",
        [
            ("state", "from repro.verify.reference import AddressCell"),
            ("vectorized", "import repro.verify.reference"),
            ("state", "from ..verify.reference import ReferenceFIFOMS"),
        ],
    )
    def test_flags_reference_import_in_root(self, tmp_path, root, line):
        src = f"__all__ = []\n{line}\n"
        findings = lint_tree(
            tmp_path, {f"repro/kernel/{root}.py": src}, [self.RULE()]
        )
        assert only_ids(findings) == ["KB003"]
        assert findings[0].line == 2
        assert "repro.verify.reference" in findings[0].message

    def test_flags_relative_import_of_helper(self, tmp_path):
        files = {
            "repro/kernel/vectorized.py": "__all__ = []\nfrom . import helper\n",
            "repro/kernel/helper.py": (
                "__all__ = []\nfrom repro.verify.reference import DataCell\n"
            ),
        }
        findings = lint_tree(tmp_path, files, [self.RULE()])
        assert only_ids(findings) == ["KB003"]
        assert findings[0].path.endswith("repro/kernel/vectorized.py")
        assert findings[0].line == 2
        assert "repro.kernel.helper -> repro.verify.reference" in findings[0].message

    def test_object_backend_outside_closure_clean(self, tmp_path):
        """The 'object' kernel adapter is the one kernel module that may
        import the reference: it is outside the hot-path closure."""
        files = dict(KB003_TREE)
        files["repro/kernel/helper.py"] = "__all__ = []\n"
        files["repro/kernel/reference_backend.py"] = (
            "__all__ = []\nfrom repro.verify.reference import DataCell\n"
        )
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_type_checking_import_exempt(self, tmp_path):
        files = dict(KB003_TREE)
        files["repro/kernel/helper.py"] = """
            __all__ = []
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.verify.reference import DataCell

            def pack(cell):
                pass
        """
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_clean_closure(self, tmp_path):
        files = dict(KB003_TREE)
        files["repro/kernel/helper.py"] = """
            __all__ = []

            def pack(cell):
                pass
        """
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        files = dict(KB003_TREE)
        files["repro/kernel/vectorized.py"] = (
            "# lint: disable=KB003\n"
            + textwrap.dedent(files["repro/kernel/vectorized.py"])
        )
        assert lint_tree(tmp_path, files, [self.RULE()]) == []


# --------------------------------------------------------------------- #
# Flow-aware RNG provenance
# --------------------------------------------------------------------- #
class TestRNG005GeneratorProvenance:
    RULE = GeneratorProvenanceRule

    def test_flags_seeded_default_rng(self, tmp_path):
        src = """
            from numpy.random import default_rng
            g = default_rng(123)
        """
        findings = lint_tree(tmp_path, {"repro/traffic/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["RNG005"]

    def test_flags_bitgenerator_construction(self, tmp_path):
        src = """
            import numpy as np
            g = np.random.Generator(np.random.PCG64(7))
        """
        findings = lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()])
        # Both Generator(...) and PCG64(...) are direct constructions.
        assert only_ids(findings) == ["RNG005", "RNG005"]

    def test_flags_unseeded_default_rng(self, tmp_path):
        src = "from numpy.random import default_rng\ng = default_rng()\nh = default_rng(None)\n"
        findings = lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["RNG005", "RNG005"]

    def test_factory_api_clean(self, tmp_path):
        src = """
            from repro.utils.rng import make_rng, spawn_rngs
            g = make_rng(7)
            children = spawn_rngs(7, 4)
        """
        assert lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()]) == []

    def test_rng_module_and_tests_exempt(self, tmp_path):
        files = {
            "repro/utils/rng.py": (
                "from numpy.random import default_rng\ng = default_rng(1)\n"
            ),
            "tests/test_x.py": (
                "from numpy.random import default_rng\ng = default_rng(1)\n"
            ),
        }
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = (
            "# lint: disable=RNG005\n"
            "from numpy.random import default_rng\ng = default_rng(3)\n"
        )
        assert lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()]) == []


RNG006_BAD = """
    from concurrent.futures import ProcessPoolExecutor
    from repro.utils.rng import make_rng

    def run_point(point, rng):
        pass

    def sweep(points, seed):
        gen = make_rng(seed)
        with ProcessPoolExecutor() as pool:
            for point in points:
                pool.submit(run_point, point, gen)
"""


class TestRNG006GeneratorIntoWorker:
    RULE = GeneratorIntoWorkerRule

    def test_flags_generator_in_submit(self, tmp_path):
        findings = lint_tree(
            tmp_path, {"repro/experiments/x.py": RNG006_BAD}, [self.RULE()]
        )
        assert only_ids(findings) == ["RNG006"]
        assert "submit" in findings[0].message

    def test_flags_generators_in_map(self, tmp_path):
        src = """
            from concurrent.futures import ProcessPoolExecutor
            from repro.utils.rng import spawn_rngs

            def run_point(rng):
                pass

            def sweep(seed, n):
                gens = spawn_rngs(seed, n)
                pool = ProcessPoolExecutor()
                pool.map(run_point, gens)
        """
        findings = lint_tree(
            tmp_path, {"repro/experiments/x.py": src}, [self.RULE()]
        )
        assert only_ids(findings) == ["RNG006"]

    def test_seed_payload_clean(self, tmp_path):
        src = """
            from concurrent.futures import ProcessPoolExecutor
            from repro.utils.rng import make_rng

            def run_point(point, seed):
                pass

            def sweep(points, seed):
                gen = make_rng(seed)
                draws = gen.integers(100, size=len(points))
                with ProcessPoolExecutor() as pool:
                    for i, point in enumerate(points):
                        pool.submit(run_point, point, seed + i)
        """
        files = {"repro/experiments/x.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_thread_like_local_use_clean(self, tmp_path):
        src = """
            from repro.utils.rng import make_rng

            def simulate(seed):
                gen = make_rng(seed)
                return gen.integers(10)
        """
        files = {"repro/sim/x.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = "# lint: disable=RNG006\n" + textwrap.dedent(RNG006_BAD)
        files = {"repro/experiments/x.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []


# --------------------------------------------------------------------- #
# Flow-aware order determinism
# --------------------------------------------------------------------- #
DET003_SINK = """
    def schedule(decision):
        pending = {3, 1, 2}
        order = list(pending)
        for i in order:
            decision.add(i, (0,))
"""


class TestDET003OrderFlow:
    RULE = OrderFlowRule

    def test_flags_materialized_set_order_into_sink(self, tmp_path):
        findings = lint_tree(
            tmp_path, {"repro/schedulers/x.py": DET003_SINK}, [self.RULE()]
        )
        assert only_ids(findings) == ["DET003"]
        assert findings[0].severity is Severity.WARNING

    def test_flags_dict_items_into_sink(self, tmp_path):
        src = """
            def schedule(decision, reqs):
                grants = {}
                for j, i in enumerate(reqs):
                    grants.setdefault(i, []).append(j)
                for i, outs in grants.items():
                    decision.add(i, tuple(outs))
        """
        findings = lint_tree(
            tmp_path, {"repro/schedulers/x.py": src}, [self.RULE()]
        )
        assert only_ids(findings) == ["DET003"]

    def test_flags_tainted_return_from_schedule(self, tmp_path):
        src = """
            def schedule_pick(reqs):
                chosen = list(set(reqs))
                return chosen
        """
        findings = lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["DET003"]

    def test_sorted_launders(self, tmp_path):
        src = """
            def schedule(decision):
                pending = {3, 1, 2}
                for i in sorted(pending):
                    decision.add(i, (0,))

            def schedule_pick(reqs):
                return sorted(set(reqs))
        """
        files = {"repro/schedulers/x.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_flags_set_order_stored_into_decision_masks(self, tmp_path):
        src = """
            def schedule(decision):
                for i in list({3, 1, 2}):
                    decision.masks[i] = 1
        """
        findings = lint_tree(
            tmp_path, {"repro/schedulers/x.py": src}, [self.RULE()]
        )
        assert only_ids(findings) == ["DET003"]
        assert "masks" in findings[0].message

    def test_flags_set_order_stored_through_masks_local(self, tmp_path):
        src = """
            def schedule(decision, granted):
                masks = decision.masks
                for i in list(set(granted)):
                    masks[i] |= granted[i]
        """
        findings = lint_tree(
            tmp_path, {"repro/schedulers/x.py": src}, [self.RULE()]
        )
        assert only_ids(findings) == ["DET003"]

    def test_sorted_keys_into_masks_clean(self, tmp_path):
        src = """
            def schedule(decision, granted):
                pending = {3, 1, 2}
                masks = decision.masks
                for i in sorted(pending):
                    masks[i] = 1
                for i in sorted(set(granted)):
                    decision.masks[i] |= granted[i]
        """
        files = {"repro/schedulers/x.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_adding_to_set_receiver_clean(self, tmp_path):
        # set.add() of a tainted element is harmless — the container has
        # no order to corrupt.
        src = """
            def schedule(reqs):
                pending = {3, 1, 2}
                acc = set()
                for i in list(pending):
                    acc.add(i)
                return acc
        """
        files = {"repro/schedulers/x.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_returning_raw_set_clean(self, tmp_path):
        # A set return stays unordered at the caller; only materialized
        # order commits the decision.
        src = """
            def schedule_free(reqs):
                return {r for r in reqs}
        """
        files = {"repro/core/x.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_non_decision_function_return_clean(self, tmp_path):
        src = """
            def summarize(reqs):
                return list(set(reqs))
        """
        files = {"repro/stats/x.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = "# lint: disable=DET003\n" + textwrap.dedent(DET003_SINK)
        files = {"repro/schedulers/x.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []


# --------------------------------------------------------------------- #
# Framework: suppressions, discovery, reports
# --------------------------------------------------------------------- #
class TestSuppressionParsing:
    def test_single_and_list(self):
        assert parse_suppressions("# lint: disable=RNG001") == {"RNG001"}
        got = parse_suppressions("x = 1  # lint: disable=RNG001, DET002")
        assert got == {"RNG001", "DET002"}

    def test_all_keyword(self, tmp_path):
        src = "# lint: disable=all\nimport random\nimport time\nt = time.time()\n"
        findings = lint_tree(
            tmp_path, {"repro/core/x.py": src}, list(default_rules())
        )
        assert findings == []

    def test_no_comment_no_suppression(self):
        assert parse_suppressions("x = 1\n") == frozenset()

    def test_docstring_text_is_not_a_suppression(self, tmp_path):
        src = '"""Say ``# lint: disable=all`` to opt out."""\nimport time\nt = time.time()\n'
        findings = lint_tree(
            tmp_path, {"repro/sim/x.py": src}, [NoWallClockRule()]
        )
        assert only_ids(findings) == ["DET001"]

    def test_prose_comment_is_not_a_suppression(self):
        src = "# Write ``# lint: disable=RNG001`` to opt out.\nx = 's # lint: disable=all'\n"
        assert parse_suppressions(src) == frozenset()

    def test_lint_package_suppresses_nothing(self):
        for path in sorted((REPO / "src" / "repro" / "lint").glob("*.py")):
            assert parse_suppressions(path.read_text()) == frozenset(), path


class TestEngine:
    def test_parse_error_becomes_finding(self, tmp_path):
        files = {
            "repro/core/bad.py": "def broken(:\n",
            "repro/core/ok.py": "__all__ = []\n",
        }
        report_findings = lint_tree(tmp_path, files, list(default_rules()))
        parse = [f for f in report_findings if f.rule_id == PARSE_RULE_ID]
        assert len(parse) == 1 and "bad.py" in parse[0].path

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint(["/nonexistent/nowhere"])

    def test_discovery_skips_pycache_and_non_python(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "x.py").write_text("")
        (tmp_path / "notes.txt").write_text("")
        (tmp_path / "a.py").write_text("")
        found = [p.name for p in iter_python_files([tmp_path])]
        assert found == ["a.py"]

    def test_discovery_skips_hidden_dirs(self, tmp_path):
        (tmp_path / ".venv" / "lib").mkdir(parents=True)
        (tmp_path / ".venv" / "lib" / "x.py").write_text("")
        (tmp_path / ".tox").mkdir()
        (tmp_path / ".tox" / "y.py").write_text("")
        (tmp_path / "a.py").write_text("")
        found = [p.name for p in iter_python_files([tmp_path])]
        assert found == ["a.py"]

    def test_explicit_hidden_dir_still_expands(self, tmp_path):
        hidden = tmp_path / ".cfg"
        hidden.mkdir()
        (hidden / "x.py").write_text("")
        assert [p.name for p in iter_python_files([hidden])] == ["x.py"]

    def test_overlapping_paths_dedupe(self, tmp_path):
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "a.py").write_text("")
        found = list(iter_python_files([tmp_path, sub, sub / "a.py"]))
        assert len(found) == 1

    def test_default_rule_ids_unique(self):
        ids = [r.rule_id for r in default_rules()]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 8
        for new in ("KB003", "RNG005", "RNG006", "DET003"):
            assert new in ids
        # The catalog and its documentation move together: a rule added
        # or deleted on one side only fails here.
        doc = (REPO / "docs" / "static_analysis.md").read_text()
        documented = re.findall(r"^### ([A-Z]+\d{3}) ", doc, flags=re.MULTILINE)
        assert sorted(documented) == sorted(ids)

    def test_exit_codes(self, tmp_path):
        (tmp_path / "warn.py").write_text("for j in {1, 2}:\n    pass\n")
        report = run_lint([tmp_path], rules=[NoUnsortedSetIterationRule()])
        assert report.warnings == 1 and report.errors == 0
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1


class TestReportFormats:
    def test_text_clean_and_dirty(self, tmp_path):
        (tmp_path / "x.py").write_text("import random\n")
        report = run_lint([tmp_path], rules=[NoStdlibRandomRule()])
        text = format_text(report)
        assert "RNG003" in text and "1 error(s)" in text
        clean = run_lint([tmp_path], rules=[])
        assert "clean" in format_text(clean)

    def test_json_round_trip(self, tmp_path):
        (tmp_path / "x.py").write_text("import random\n")
        report = run_lint([tmp_path], rules=[NoStdlibRandomRule()])
        data = json.loads(format_json(report))
        assert data["errors"] == 1
        assert data["findings"][0]["rule"] == "RNG003"
        assert data["findings"][0]["line"] == 1


# --------------------------------------------------------------------- #
# The point of it all: our own tree is clean
# --------------------------------------------------------------------- #
class TestSelfCheck:
    def test_src_repro_lints_clean(self):
        report = run_lint([REPO / "src" / "repro"])
        assert report.files_scanned > 100
        assert report.findings == [], format_text(report)
