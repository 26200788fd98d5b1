"""Tests for the exhaustive small-state verifier."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.verify.exhaustive import exhaustive_verify


class TestDomainControl:
    def test_domain_size_guard(self):
        with pytest.raises(ConfigurationError, match="traces"):
            exhaustive_verify("fifoms", num_ports=3, horizon=4)

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            exhaustive_verify("fifoms", num_ports=0, horizon=1)

    def test_unknown_algorithm_is_not_a_violation(self):
        """A typo is the caller's error; only raises from inside a run
        become ``exception`` violations."""
        with pytest.raises(ConfigurationError, match="unknown scheduler 'nope'"):
            exhaustive_verify("nope", num_ports=2, horizon=1)

    def test_trace_count(self):
        report = exhaustive_verify(
            "oqfifo", num_ports=2, horizon=1
        )
        # (2^2)^(2*1) = 16 traces.
        assert report.traces_checked == 16
        assert report.ok


class TestExhaustiveVerification:
    """Every algorithm passes the complete N=2, horizon=2 domain
    (256 traces each, run to drain)."""

    @pytest.mark.parametrize(
        "algorithm,kwargs",
        [
            ("fifoms", {"tie_break": "lowest_input"}),
            ("greedy-mcast", {}),
            ("islip", {}),
            ("maxweight-lqf", {}),
            ("tatra", {}),
            ("wba", {}),
            ("siq-fifo", {}),
            ("oqfifo", {}),
            ("cioq-islip", {"speedup": 2}),
            ("eslip", {}),
            ("cicq", {}),
            ("2drr", {}),
            ("serena", {}),
        ],
    )
    def test_algorithm_passes_exhaustively(self, algorithm, kwargs):
        report = exhaustive_verify(
            algorithm, num_ports=2, horizon=2, **kwargs
        )
        assert report.ok, str(report.violations[:3])
        assert report.traces_checked == 256
        assert report.cells_delivered > 0

    def test_fifoms_full_4096_domain(self):
        """The flagship gets the larger horizon-3 domain."""
        report = exhaustive_verify(
            "fifoms", num_ports=2, horizon=3, tie_break="lowest_input"
        )
        assert report.ok
        assert report.traces_checked == 4096
        # In a 2-port switch nothing can wait long: delays stay tiny.
        assert report.max_delay_seen <= 8
        assert "OK" in str(report)


class TestViolationDetection:
    def test_broken_scheduler_is_caught(self):
        """A scheduler that starves one VOQ must produce a drain
        violation — proving the harness detects real bugs."""
        from repro.core.matching import ScheduleDecision
        from repro.schedulers.registry import register_switch_factory
        from repro.switch.voq_multicast import MulticastVOQSwitch
        from repro.schedulers import registry

        class Starver:
            """Serves only VOQs targeting output 0."""

            def __init__(self, n):
                self.n = n

            def schedule(self, ports):
                d = ScheduleDecision()
                for i, port in enumerate(ports):
                    if port.voqs[0]:
                        d.add(i, (0,))
                        d.requests_made = True
                        d.rounds = 1
                        break
                return d

        register_switch_factory(
            "starver", lambda n, rng=None, **kw: MulticastVOQSwitch(n, Starver(n))
        )
        try:
            report = exhaustive_verify("starver", num_ports=2, horizon=1)
            assert not report.ok
            assert report.violations[0].kind == "drain"
        finally:
            registry._REGISTRY.pop("starver", None)
