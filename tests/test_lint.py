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

from repro.errors import ConfigurationError
from repro.lint import (
    PARSE_RULE_ID,
    Baseline,
    Finding,
    ModuleInfo,
    Severity,
    default_rules,
    format_json,
    format_sarif,
    format_text,
    iter_python_files,
    parse_suppressions,
    run_lint,
    sarif_document,
    write_baseline,
)
from repro.lint.rules_flow import (
    GeneratorIntoWorkerRule,
    GeneratorProvenanceRule,
    OrderFlowRule,
)
from repro.lint.rules_kernel import (
    KernelClosurePurityRule,
    RegistryBackendPairingRule,
    VectorizedEntryPointRule,
)
from repro.lint.rules_determinism import NoUnsortedSetIterationRule, NoWallClockRule
from repro.lint.rules_errors import ExceptHygieneRule
from repro.lint.rules_rng import (
    NoGlobalNumpySeedRule,
    NoLegacyNumpyRandomRule,
    NoStdlibRandomRule,
    NoUnseededGeneratorRule,
)
from repro.lint.rules_structure import (
    KernelHotPathImportRule,
    PublicModuleAllRule,
    SchedulerRegistryRule,
    SwitchInvariantsRule,
)

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


def lint_with_baseline(tmp_path, files: dict[str, str], rules):
    """Lint ``files``, baseline every finding, lint again with the baseline."""
    first = lint_tree(tmp_path, files, rules)
    assert first, "baseline fixture must produce at least one finding"
    bpath = tmp_path / "lint-baseline.json"
    write_baseline(bpath, first)
    return run_lint([tmp_path], rules=rules, baseline=Baseline.load(bpath))


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


class TestRNG002LegacyNumpyRandom:
    RULE = NoLegacyNumpyRandomRule

    def test_flags_module_level_draws(self, tmp_path):
        src = """
            import numpy as np
            x = np.random.randint(10)
            y = np.random.choice([1, 2])
        """
        findings = lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["RNG002", "RNG002"]

    def test_generator_construction_allowed(self, tmp_path):
        src = """
            import numpy as np
            g = np.random.default_rng(3)
            v = g.integers(10)
        """
        assert lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()]) == []

    def test_rng_module_exempt(self, tmp_path):
        src = "import numpy as np\nx = np.random.random()\n"
        assert lint_tree(tmp_path, {"repro/utils/rng.py": src}, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = """
            import numpy as np  # lint: disable=RNG002
            x = np.random.rand(4)
        """
        assert lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()]) == []


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


class TestRNG004UnseededGenerator:
    RULE = NoUnseededGeneratorRule

    def test_flags_unseeded_default_rng(self, tmp_path):
        src = """
            import numpy as np
            g = np.random.default_rng()
        """
        findings = lint_tree(tmp_path, {"repro/traffic/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["RNG004"]

    def test_flags_none_seed(self, tmp_path):
        src = "from numpy.random import default_rng\ng = default_rng(None)\n"
        findings = lint_tree(tmp_path, {"repro/traffic/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["RNG004"]

    def test_seeded_clean(self, tmp_path):
        src = """
            import numpy as np
            g = np.random.default_rng(42)
            h = np.random.default_rng(seed)
        """
        assert lint_tree(tmp_path, {"repro/traffic/x.py": src}, [self.RULE()]) == []

    def test_rng_module_exempt(self, tmp_path):
        src = "import numpy as np\ng = np.random.default_rng()\n"
        assert lint_tree(tmp_path, {"repro/utils/rng.py": src}, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = """
            # lint: disable=RNG004
            import numpy as np
            g = np.random.default_rng()
        """
        assert lint_tree(tmp_path, {"repro/traffic/x.py": src}, [self.RULE()]) == []


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
SWITCH_NO_INVARIANTS = """
    from repro.switch.base import BaseSwitch

    class BrokenSwitch(BaseSwitch):
        def _accept(self, packet, slot):
            pass
"""

SWITCH_WITH_INVARIANTS = """
    from repro.switch.base import BaseSwitch

    class GoodSwitch(BaseSwitch):
        def check_invariants(self):
            pass
"""


class TestSTR001SwitchInvariants:
    RULE = SwitchInvariantsRule

    def test_flags_missing_override(self, tmp_path):
        findings = lint_tree(
            tmp_path, {"repro/switch/x.py": SWITCH_NO_INVARIANTS}, [self.RULE()]
        )
        assert only_ids(findings) == ["STR001"]
        assert "BrokenSwitch" in findings[0].message

    def test_override_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path, {"repro/switch/x.py": SWITCH_WITH_INVARIANTS}, [self.RULE()]
        )
        assert findings == []

    def test_inherited_override_covers_subclass(self, tmp_path):
        src = SWITCH_WITH_INVARIANTS + """
            class DerivedSwitch(GoodSwitch):
                pass
        """
        assert lint_tree(tmp_path, {"repro/switch/x.py": src}, [self.RULE()]) == []

    def test_abstract_intermediate_exempt(self, tmp_path):
        src = """
            import abc
            from repro.switch.base import BaseSwitch

            class AbstractSwitch(BaseSwitch, abc.ABC):
                @abc.abstractmethod
                def flavour(self):
                    ...
        """
        assert lint_tree(tmp_path, {"repro/switch/x.py": src}, [self.RULE()]) == []

    def test_unrelated_class_ignored(self, tmp_path):
        src = "class Collector:\n    pass\n"
        assert lint_tree(tmp_path, {"repro/stats/x.py": src}, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = "# lint: disable=STR001\n" + textwrap.dedent(SWITCH_NO_INVARIANTS)
        assert lint_tree(tmp_path, {"repro/switch/x.py": src}, [self.RULE()]) == []


class TestSTR002SchedulerRegistry:
    RULE = SchedulerRegistryRule

    REGISTRY_EMPTY = '"""Registry."""\n__all__ = []\n'
    REGISTRY_WIRED = """
        from repro.schedulers.myalgo import MyScheduler
        __all__ = []
    """

    def test_flags_unregistered_module(self, tmp_path):
        files = {
            "repro/schedulers/myalgo.py": "class MyScheduler:\n    pass\n",
            "repro/schedulers/registry.py": self.REGISTRY_EMPTY,
        }
        findings = lint_tree(tmp_path, files, [self.RULE()])
        assert only_ids(findings) == ["STR002"]
        assert "myalgo" in findings[0].message

    def test_imported_module_clean(self, tmp_path):
        files = {
            "repro/schedulers/myalgo.py": "class MyScheduler:\n    pass\n",
            "repro/schedulers/registry.py": self.REGISTRY_WIRED,
        }
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_no_registry_in_tree_skips(self, tmp_path):
        files = {"repro/schedulers/myalgo.py": "class MyScheduler:\n    pass\n"}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_base_and_init_exempt(self, tmp_path):
        files = {
            "repro/schedulers/base.py": "class SchedulerBase:\n    pass\n",
            "repro/schedulers/__init__.py": "",
            "repro/schedulers/registry.py": self.REGISTRY_EMPTY,
        }
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        files = {
            "repro/schedulers/myalgo.py": (
                "# lint: disable=STR002\nclass MyScheduler:\n    pass\n"
            ),
            "repro/schedulers/registry.py": self.REGISTRY_EMPTY,
        }
        assert lint_tree(tmp_path, files, [self.RULE()]) == []


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


class TestSTR004KernelHotPathImport:
    RULE = KernelHotPathImportRule

    def test_flags_per_cell_import_in_kernel(self, tmp_path):
        src = (
            '"""Kernel module."""\n'
            "from repro.core.cells import AddressCell\n"
            "__all__ = []\n"
        )
        findings = lint_tree(
            tmp_path, {"repro/kernel/fastpath.py": src}, [self.RULE()]
        )
        assert only_ids(findings) == ["STR004"]
        assert "repro.core.cells" in findings[0].message

    def test_flags_plain_import_form(self, tmp_path):
        src = "import repro.core.voq\n__all__ = []\n"
        findings = lint_tree(
            tmp_path, {"repro/kernel/fastpath.py": src}, [self.RULE()]
        )
        assert only_ids(findings) == ["STR004"]

    def test_object_backend_is_exempt(self, tmp_path):
        src = (
            "from repro.core.cells import AddressCell\n"
            "from repro.core.voq import MulticastVOQInputPort\n"
            "from repro.core.preprocess import preprocess_packet\n"
            "__all__ = []\n"
        )
        assert (
            lint_tree(
                tmp_path, {"repro/kernel/object_backend.py": src}, [self.RULE()]
            )
            == []
        )

    def test_non_kernel_modules_not_flagged(self, tmp_path):
        src = "from repro.core.cells import AddressCell\n__all__ = []\n"
        assert (
            lint_tree(tmp_path, {"repro/switch/x.py": src}, [self.RULE()]) == []
        )

    def test_clean_kernel_module(self, tmp_path):
        src = "from repro.core.matching import ScheduleDecision\n__all__ = []\n"
        assert (
            lint_tree(tmp_path, {"repro/kernel/state.py": src}, [self.RULE()])
            == []
        )

    def test_suppression_comment(self, tmp_path):
        src = (
            "# lint: disable=STR004\n"
            "from repro.core.buffers import DataCellBuffer\n"
            "__all__ = []\n"
        )
        assert (
            lint_tree(
                tmp_path, {"repro/kernel/fastpath.py": src}, [self.RULE()]
            )
            == []
        )


# --------------------------------------------------------------------- #
# Error hygiene
# --------------------------------------------------------------------- #
class TestERR001ExceptHygiene:
    RULE = ExceptHygieneRule

    def test_flags_bare_except(self, tmp_path):
        src = """
            try:
                risky()
            except:
                pass
        """
        findings = lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["ERR001"]

    def test_flags_swallowed_exception(self, tmp_path):
        src = """
            try:
                risky()
            except Exception:
                pass
        """
        findings = lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()])
        assert only_ids(findings) == ["ERR001"]

    def test_handled_broad_exception_clean(self, tmp_path):
        src = """
            import logging
            try:
                risky()
            except Exception as exc:
                logging.exception("boom")
                raise
        """
        assert lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()]) == []

    def test_narrow_handler_clean(self, tmp_path):
        src = """
            try:
                risky()
            except ValueError:
                pass
        """
        assert lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = """
            # lint: disable=ERR001
            try:
                risky()
            except:
                pass
        """
        assert lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()]) == []


# --------------------------------------------------------------------- #
# Kernel-backend contracts (flow-aware, whole-project)
# --------------------------------------------------------------------- #
KB001_BAD = """
    __all__ = []

    class FancyScheduler:
        supported_backends = ("object", "vectorized")

        def schedule(self, views, slot):
            pass
"""


class TestKB001VectorizedEntryPoint:
    RULE = VectorizedEntryPointRule

    def test_flags_missing_entry_point(self, tmp_path):
        findings = lint_tree(
            tmp_path, {"repro/schedulers/fancy.py": KB001_BAD}, [self.RULE()]
        )
        assert only_ids(findings) == ["KB001"]
        assert "FancyScheduler" in findings[0].message

    def test_schedule_vectorized_clean(self, tmp_path):
        # ``schedule_state`` is the one array entry point; the retired
        # ``schedule_vectorized`` name no longer satisfies the rule.
        src = """
            class FancyScheduler:
                supported_backends = ("object", "vectorized")

                def {entry}(self, state, slot):
                    pass
        """
        clean = {"repro/schedulers/fancy.py": src.format(entry="schedule_state")}
        assert lint_tree(tmp_path / "clean", clean, [self.RULE()]) == []
        retired = {
            "repro/schedulers/fancy.py": src.format(entry="schedule_vectorized")
        }
        findings = lint_tree(tmp_path / "retired", retired, [self.RULE()])
        assert only_ids(findings) == ["KB001"]

    def test_property_form_and_schedule_state_clean(self, tmp_path):
        # The FIFOMS shape: conditional property + schedule_state entry.
        src = """
            class CondScheduler:
                @property
                def supported_backends(self):
                    if self.fanout_splitting:
                        return ("object", "vectorized")
                    return ("object",)

                def schedule_state(self, state, slot):
                    pass
        """
        files = {"repro/core/cond.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_property_form_flagged_without_entry(self, tmp_path):
        src = """
            class CondScheduler:
                @property
                def supported_backends(self):
                    return ("object", "vectorized")
        """
        files = {"repro/core/cond.py": src}
        assert only_ids(lint_tree(tmp_path, files, [self.RULE()])) == ["KB001"]

    def test_entry_point_on_ancestor_clean(self, tmp_path):
        files = {
            "repro/schedulers/base2.py": """
                class ArrayBase:
                    def schedule_state(self, state, slot):
                        pass
            """,
            "repro/schedulers/fancy.py": """
                from repro.schedulers.base2 import ArrayBase

                class FancyScheduler(ArrayBase):
                    supported_backends = ("object", "vectorized")
            """,
        }
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_object_only_clean(self, tmp_path):
        src = """
            class PlainScheduler:
                supported_backends = ("object",)
        """
        files = {"repro/schedulers/plain.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = "# lint: disable=KB001\n" + textwrap.dedent(KB001_BAD)
        files = {"repro/schedulers/fancy.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_baseline_suppression(self, tmp_path):
        report = lint_with_baseline(
            tmp_path, {"repro/schedulers/fancy.py": KB001_BAD}, [self.RULE()]
        )
        assert report.findings == []
        assert report.baselined == 1


KB002_REGISTRY = """
    __all__ = []

    def _discard_backend(kw, name):
        pass

    class SeamedSwitch:
        def __init__(self, num_ports, scheduler, backend="object"):
            pass

    class SeamlessSwitch:
        def __init__(self, num_ports, scheduler):
            pass

    def _guarded_seam(num_ports, **kw):
        _discard_backend(kw, "guarded-seam")
        return SeamedSwitch(num_ports, None, **kw)

    def _unguarded_seamless(num_ports, **kw):
        return SeamlessSwitch(num_ports, None, **kw)

    def _guarded_seamless(num_ports, **kw):
        _discard_backend(kw, "ok-guard")
        return SeamlessSwitch(num_ports, None, **kw)

    def _unguarded_seam(num_ports, **kw):
        return SeamedSwitch(num_ports, None, **kw)
"""


class TestKB002RegistryBackendPairing:
    RULE = RegistryBackendPairingRule

    def test_flags_both_mismatch_directions(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"repro/schedulers/registry.py": KB002_REGISTRY},
            [self.RULE()],
        )
        assert only_ids(findings) == ["KB002", "KB002"]
        messages = " | ".join(f.message for f in findings)
        assert "_guarded_seam()" in messages
        assert "_unguarded_seamless()" in messages
        assert "_guarded_seamless()" not in messages
        assert "_unguarded_seam()" not in messages

    def test_consistent_registry_clean(self, tmp_path):
        src = """
            __all__ = []

            def _discard_backend(kw, name):
                pass

            class SeamlessSwitch:
                def __init__(self, num_ports):
                    pass

            def _factory(num_ports, **kw):
                _discard_backend(kw, "x")
                return SeamlessSwitch(num_ports)
        """
        files = {"repro/schedulers/registry.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_discard_in_front_of_seamed_switch_flagged(self, tmp_path):
        # _discard_backend is the single-bodied guard: dropping the kwarg
        # in front of a switch that *does* take ``backend`` hides a seam.
        src = """
            __all__ = []

            def _discard_backend(kw, name):
                pass

            class SeamedSwitch:
                def __init__(self, num_ports, scheduler, backend="object"):
                    pass

            def _discarded_seam(num_ports, **kw):
                _discard_backend(kw, "discarded-seam")
                return SeamedSwitch(num_ports, None, **kw)
        """
        files = {"repro/schedulers/registry.py": src}
        findings = lint_tree(tmp_path, files, [self.RULE()])
        assert only_ids(findings) == ["KB002"]
        assert "_discard_backend()" in findings[0].message
        assert "SeamedSwitch" in findings[0].message

    def test_discard_in_front_of_seamless_switch_clean(self, tmp_path):
        src = """
            __all__ = []

            def _discard_backend(kw, name):
                pass

            class SeamlessSwitch:
                def __init__(self, num_ports, scheduler):
                    pass

            def _single_bodied(num_ports, **kw):
                _discard_backend(kw, "single-bodied")
                return SeamlessSwitch(num_ports, None, **kw)
        """
        files = {"repro/schedulers/registry.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_seam_on_ancestor_counts(self, tmp_path):
        files = {
            "repro/switch/base2.py": """
                class SwitchBase:
                    def __init__(self, num_ports, backend="object"):
                        pass
            """,
            "repro/schedulers/registry.py": """
                __all__ = []
                from repro.switch.base2 import SwitchBase

                def _discard_backend(kw, name):
                    pass

                class ChildSwitch(SwitchBase):
                    pass

                def _factory(num_ports, **kw):
                    _discard_backend(kw, "child")
                    return ChildSwitch(num_ports, **kw)
            """,
        }
        findings = lint_tree(tmp_path, files, [self.RULE()])
        assert only_ids(findings) == ["KB002"]
        assert "ChildSwitch" in findings[0].message

    def test_no_registry_module_skips(self, tmp_path):
        files = {"repro/schedulers/other.py": "__all__ = []\n"}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_suppression_comment(self, tmp_path):
        src = "# lint: disable=KB002\n" + textwrap.dedent(KB002_REGISTRY)
        files = {"repro/schedulers/registry.py": src}
        assert lint_tree(tmp_path, files, [self.RULE()]) == []

    def test_baseline_suppression(self, tmp_path):
        report = lint_with_baseline(
            tmp_path,
            {"repro/schedulers/registry.py": KB002_REGISTRY},
            [self.RULE()],
        )
        assert report.findings == []
        assert report.baselined == 2


KB003_TREE = {
    "repro/kernel/vectorized.py": """
        __all__ = []
        from repro.kernel.helper import pack
    """,
    "repro/kernel/helper.py": """
        __all__ = []
        from repro.core.cells import Cell

        def pack(cell):
            pass
    """,
    "repro/core/cells.py": """
        __all__ = []

        class Cell:
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
        assert "repro.kernel.helper -> repro.core.cells" in f.message

    def test_type_checking_import_exempt(self, tmp_path):
        files = dict(KB003_TREE)
        files["repro/kernel/helper.py"] = """
            __all__ = []
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.core.cells import Cell

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

    def test_baseline_suppression(self, tmp_path):
        report = lint_with_baseline(tmp_path, dict(KB003_TREE), [self.RULE()])
        assert report.findings == []
        assert report.baselined == 1


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

    def test_unseeded_is_rng004_territory(self, tmp_path):
        src = "from numpy.random import default_rng\ng = default_rng()\n"
        assert lint_tree(tmp_path, {"repro/core/x.py": src}, [self.RULE()]) == []

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

    def test_baseline_suppression(self, tmp_path):
        src = "from numpy.random import default_rng\ng = default_rng(3)\n"
        report = lint_with_baseline(
            tmp_path, {"repro/core/x.py": src}, [self.RULE()]
        )
        assert report.findings == []
        assert report.baselined == 1


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

    def test_baseline_suppression(self, tmp_path):
        report = lint_with_baseline(
            tmp_path, {"repro/experiments/x.py": RNG006_BAD}, [self.RULE()]
        )
        assert report.findings == []
        assert report.baselined == 1


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

    def test_baseline_suppression(self, tmp_path):
        report = lint_with_baseline(
            tmp_path, {"repro/schedulers/x.py": DET003_SINK}, [self.RULE()]
        )
        assert report.findings == []
        assert report.baselined == 1


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
        (tmp_path / ".lint-cache").mkdir()
        (tmp_path / ".lint-cache" / "y.py").write_text("")
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
        for new in ("KB001", "KB002", "KB003", "RNG005", "RNG006", "DET003"):
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
# Incremental analysis cache
# --------------------------------------------------------------------- #
CACHE_TREE = {
    "repro/core/a.py": "import random\n__all__ = []\n",
    "repro/core/b.py": "__all__ = []\n",
    "repro/schedulers/registry.py": "__all__ = []\n",
}


class TestAnalysisCache:
    def _write(self, root: Path, files: dict[str, str]) -> None:
        for rel, source in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))

    def test_warm_run_reanalyzes_zero_files(self, tmp_path):
        tree, cache = tmp_path / "tree", tmp_path / "cache"
        self._write(tree, CACHE_TREE)
        cold = run_lint([tree], cache_dir=cache)
        assert cold.files_reanalyzed == cold.files_scanned == 3
        warm = run_lint([tree], cache_dir=cache)
        assert warm.files_reanalyzed == 0
        assert warm.files_scanned == 3
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

    def test_changed_file_alone_is_reanalyzed(self, tmp_path):
        tree, cache = tmp_path / "tree", tmp_path / "cache"
        self._write(tree, CACHE_TREE)
        run_lint([tree], cache_dir=cache)
        (tree / "repro/core/b.py").write_text("import random\n__all__ = []\n")
        partial = run_lint([tree], cache_dir=cache)
        assert partial.files_reanalyzed == 1
        assert sorted(only_ids(partial.findings)).count("RNG003") == 2

    def test_rule_set_change_invalidates(self, tmp_path):
        tree, cache = tmp_path / "tree", tmp_path / "cache"
        self._write(tree, CACHE_TREE)
        run_lint([tree], cache_dir=cache, rules=[NoStdlibRandomRule()])
        swapped = run_lint(
            [tree], cache_dir=cache, rules=[NoStdlibRandomRule(), NoWallClockRule()]
        )
        assert swapped.files_reanalyzed == swapped.files_scanned

    def test_corrupt_cache_is_treated_as_empty(self, tmp_path):
        tree, cache = tmp_path / "tree", tmp_path / "cache"
        self._write(tree, CACHE_TREE)
        cache.mkdir()
        (cache / "lint-cache.json").write_text("{ not json")
        report = run_lint([tree], cache_dir=cache)
        assert report.files_reanalyzed == report.files_scanned
        warm = run_lint([tree], cache_dir=cache)
        assert warm.files_reanalyzed == 0

    def test_cache_and_baseline_compose(self, tmp_path):
        tree, cache = tmp_path / "tree", tmp_path / "cache"
        self._write(tree, CACHE_TREE)
        cold = run_lint([tree], cache_dir=cache)
        bpath = tmp_path / "baseline.json"
        write_baseline(bpath, cold.findings)
        warm = run_lint([tree], cache_dir=cache, baseline=Baseline.load(bpath))
        assert warm.files_reanalyzed == 0
        assert warm.findings == []
        assert warm.baselined == len(cold.findings)


# --------------------------------------------------------------------- #
# Baseline files
# --------------------------------------------------------------------- #
class TestBaseline:
    def test_round_trip_subtracts_and_counts(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"repro/core/x.py": "import random\n__all__ = []\n"},
            [NoStdlibRandomRule()],
        )
        bpath = tmp_path / "baseline.json"
        count = write_baseline(bpath, findings)
        assert count == 1
        doc = json.loads(bpath.read_text())
        assert doc["version"] == 1
        assert doc["entries"][0]["rule"] == "RNG003"
        assert "reason" in doc["entries"][0]
        report = run_lint(
            [tmp_path], rules=[NoStdlibRandomRule()], baseline=Baseline.load(bpath)
        )
        assert report.findings == [] and report.baselined == 1

    def test_matching_is_line_insensitive(self, tmp_path):
        path = tmp_path / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text("import random\n__all__ = []\n")
        report = run_lint([tmp_path], rules=[NoStdlibRandomRule()])
        bpath = tmp_path / "baseline.json"
        write_baseline(bpath, report.findings)
        # Shift the finding down a line; the baseline still matches.
        path.write_text("'''doc'''\nimport random\n__all__ = []\n")
        shifted = run_lint(
            [tmp_path], rules=[NoStdlibRandomRule()], baseline=Baseline.load(bpath)
        )
        assert shifted.findings == [] and shifted.baselined == 1

    def test_new_findings_pass_through(self, tmp_path):
        files = {"repro/core/x.py": "import random\n__all__ = []\n"}
        findings = lint_tree(tmp_path, files, [NoStdlibRandomRule()])
        bpath = tmp_path / "baseline.json"
        write_baseline(bpath, findings)
        other = tmp_path / "repro" / "core" / "y.py"
        other.write_text("import random\n__all__ = []\n")
        report = run_lint(
            [tmp_path], rules=[NoStdlibRandomRule()], baseline=Baseline.load(bpath)
        )
        assert len(report.findings) == 1
        assert "y.py" in report.findings[0].path
        assert report.baselined == 1

    def test_invalid_baseline_raises_configuration_error(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("[]")
        with pytest.raises(ConfigurationError):
            Baseline.load(bad)
        bad.write_text("{ nope")
        with pytest.raises(ConfigurationError):
            Baseline.load(bad)
        with pytest.raises(ConfigurationError):
            Baseline.load(tmp_path / "missing.json")


# --------------------------------------------------------------------- #
# SARIF output
# --------------------------------------------------------------------- #

#: The slice of the SARIF 2.1.0 schema the GitHub code-scanning ingester
#: actually requires; jsonschema-validated so a shape regression fails
#: here, not at upload time.
SARIF_SCHEMA_SUBSET = {
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name", "rules"],
                                "properties": {
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id", "shortDescription"],
                                        },
                                    }
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "level", "message", "locations"],
                            "properties": {
                                "level": {"enum": ["error", "warning", "note"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": ["artifactLocation"],
                                                "properties": {
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            }
                                                        },
                                                    }
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarif:
    def _report(self, tmp_path, source="import random\n__all__ = []\n"):
        path = tmp_path / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        rules = [NoStdlibRandomRule(), NoUnsortedSetIterationRule()]
        return run_lint([tmp_path], rules=rules), rules

    def test_document_validates_against_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        report, rules = self._report(tmp_path)
        doc = json.loads(format_sarif(report, rules))
        jsonschema.validate(doc, SARIF_SCHEMA_SUBSET)

    def test_result_contents(self, tmp_path):
        report, rules = self._report(tmp_path)
        doc = sarif_document(report, rules)
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        ids = [r["id"] for r in driver["rules"]]
        assert "RNG003" in ids and "DET002" in ids and PARSE_RULE_ID in ids
        (result,) = run["results"]
        assert result["ruleId"] == "RNG003"
        assert result["level"] == "error"
        assert "random" in result["message"]["text"]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("repro/core/x.py")
        assert loc["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert loc["region"]["startLine"] == 1
        assert result["ruleIndex"] == ids.index("RNG003")

    def test_warning_maps_to_warning_level(self, tmp_path):
        report, rules = self._report(
            tmp_path, "for j in {1, 2}:\n    pass\n__all__ = []\n"
        )
        doc = sarif_document(report, rules)
        (result,) = doc["runs"][0]["results"]
        assert result["ruleId"] == "DET002"
        assert result["level"] == "warning"

    def test_clean_report_has_empty_results(self, tmp_path):
        report, rules = self._report(tmp_path, "__all__ = []\n")
        doc = sarif_document(report, rules)
        assert doc["runs"][0]["results"] == []


# --------------------------------------------------------------------- #
# The point of it all: our own tree is clean
# --------------------------------------------------------------------- #
class TestSelfCheck:
    def test_src_repro_lints_clean(self):
        report = run_lint([REPO / "src" / "repro"])
        assert report.files_scanned > 100
        assert report.findings == [], format_text(report)
