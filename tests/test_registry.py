"""Unit tests for the scheduler/switch registry."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro
import repro.schedulers
from repro.errors import ConfigurationError
from repro.schedulers.registry import (
    available_schedulers,
    make_switch,
    register_switch_factory,
)
from repro.switch.base import BaseSwitch
from repro.switch.output_queue import OutputQueuedSwitch
from repro.switch.single_queue import SingleInputQueueSwitch
from repro.switch.voq_multicast import MulticastVOQSwitch
from repro.switch.voq_unicast import UnicastVOQSwitch


class TestRegistry:
    def test_paper_algorithms_present(self):
        names = available_schedulers()
        for required in ("fifoms", "tatra", "islip", "oqfifo"):
            assert required in names

    def test_architecture_pairings(self):
        assert isinstance(make_switch("fifoms", 4), MulticastVOQSwitch)
        assert isinstance(make_switch("greedy-mcast", 4), MulticastVOQSwitch)
        assert isinstance(make_switch("islip", 4), UnicastVOQSwitch)
        assert isinstance(make_switch("pim", 4), UnicastVOQSwitch)
        assert isinstance(make_switch("maxweight-lqf", 4), UnicastVOQSwitch)
        assert isinstance(make_switch("tatra", 4), SingleInputQueueSwitch)
        assert isinstance(make_switch("siq-fifo", 4), SingleInputQueueSwitch)
        assert isinstance(make_switch("oqfifo", 4), OutputQueuedSwitch)

    def test_name_case_insensitive(self):
        assert isinstance(make_switch("FIFOMS", 4), MulticastVOQSwitch)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            make_switch("nope", 4)

    def test_kwargs_forwarded(self):
        sw = make_switch("fifoms", 4, max_iterations=2, tie_break="lowest_input")
        assert sw.scheduler.max_iterations == 2

    def test_unknown_switch_kwarg_raises(self):
        with pytest.raises(TypeError, match="no_such_kwarg"):
            make_switch("fifoms", 4, no_such_kwarg=1)

    def test_custom_registration(self):
        class Dummy(OutputQueuedSwitch):
            name = "dummy"

        register_switch_factory("dummy-oq", lambda n, rng=None, **kw: Dummy(n))
        try:
            sw = make_switch("dummy-oq", 4)
            assert isinstance(sw, Dummy)
            assert isinstance(sw, BaseSwitch)
        finally:
            # Keep the global registry clean for other tests.
            from repro.schedulers import registry

            registry._REGISTRY.pop("dummy-oq", None)

    def test_bad_registration_name(self):
        with pytest.raises(ConfigurationError):
            register_switch_factory("", lambda n, **kw: None)


def _import_every_module() -> None:
    """Import all of ``repro`` — some switch classes are imported only
    inside registry factories, so a plain ``import repro`` misses them."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestRegistryCoverage:
    def test_every_switch_overrides_check_invariants(self):
        """BaseSwitch.check_invariants is a no-op: a concrete switch that
        inherits only it gives the sanitizer's deep passes nothing to
        check."""
        _import_every_module()
        switches = {
            cls
            for cls in _subclasses(BaseSwitch)
            if cls.__module__.startswith("repro.") and not inspect.isabstract(cls)
        }
        assert len(switches) >= 7
        uncovered = sorted(
            cls.__qualname__
            for cls in switches
            if cls.check_invariants is BaseSwitch.check_invariants
        )
        assert not uncovered, uncovered

    def test_every_scheduler_module_is_reachable_by_name(self):
        """Each module under repro.schedulers defines the scheduler of
        some registered pairing, so the CLI and experiments can reach it."""
        modules = {
            f"repro.schedulers.{info.name}"
            for info in pkgutil.iter_modules(repro.schedulers.__path__)
            if info.name not in ("base", "registry")
        }
        built = set()
        for name in available_schedulers():
            scheduler = getattr(make_switch(name, 4), "scheduler", None)
            built.add(type(scheduler).__module__)
        assert len(modules) >= 6
        assert sorted(modules - built) == []
