"""ReferenceShadow: the reference model stepped in lockstep inside one run.

Every fault scenario and a drop-tailing finite buffer meet the reference
here; four seeded production mutants are each killed at the first slot
where their stream leaves the clean one, by one violation that names the
input, the output and both masks; and a drop-tail and a grant-loss
accounting mutant are killed too.
"""

from __future__ import annotations

import __future__
import ast
import inspect
import textwrap
from pathlib import Path

import pytest

from repro.analysis.loads import bernoulli_arrival_probability
from repro.core.fifoms import FIFOMSScheduler, TieBreak
from repro.errors import ConfigurationError
from repro.faults import FAULT_SCENARIOS
from repro.faults.injector import FaultInjector
from repro.verify.grid import EquivalenceCase, case_engine, record_digests
from repro.kernel.state import SwitchState
from repro.sanitize import SanitizerError, SanitizerSuite, default_checkers
from repro.schedulers.registry import make_switch
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_traffic
from repro.verify import shadow
from repro.verify.shadow import ReferenceShadow, checkers_for

BERNOULLI = {"model": "bernoulli", "p": 0.3, "b": 0.25}


def _shadowed(engine: SimulationEngine):
    """Run ``engine`` under the hard-fail catalogue plus the shadow."""
    engine.sanitizer = SanitizerSuite(
        checkers=[*default_checkers(), ReferenceShadow()], hard_fail=True
    )
    return engine.run()


@pytest.mark.parametrize(
    "algorithm, fault",
    [("fifoms", name) for name in FAULT_SCENARIOS]
    + [("greedy-mcast", "flaky-crosspoint"), ("greedy-mcast", "chaos")],
)
def test_every_fault_scenario_meets_the_reference(algorithm, fault):
    engine = case_engine(EquivalenceCase(algorithm, BERNOULLI, fault), 8, 1000)
    _shadowed(engine)
    assert engine.sanitizer.ok and engine.slots_run == 1000
    ledger = engine.faults.report()
    # The scenario did something the reference had to follow.
    assert ledger["degraded_slots"] + ledger["grants_lost"] + ledger["packets_dropped"]


def test_a_drop_tail_buffer_meets_the_reference():
    switch = make_switch("fifoms", 8, rng=3, buffer_capacity=4, buffer_overflow="drop")
    traffic = build_traffic({"model": "bernoulli", "p": 0.9, "b": 0.5}, 8, rng=4)
    cfg = SimulationConfig(num_slots=1000, max_backlog=None, stability_window=0)
    engine = SimulationEngine(switch, traffic, cfg)
    assert _shadowed(engine).cells_dropped > 1000  # it drop-tails


def test_long_queues_meet_the_reference():
    """Overload (load 1.2): thousands of cells queue behind the VOQ
    heads, so nearly every grant pops a deque and promotes a new head."""
    n, b = 16, 0.2
    p = bernoulli_arrival_probability(n, 1.2, b)
    switch = make_switch("fifoms", n, rng=7)
    traffic = build_traffic({"model": "bernoulli", "p": p, "b": b}, n, rng=8)
    cfg = SimulationConfig(num_slots=1500, max_backlog=None, stability_window=0)
    engine = SimulationEngine(switch, traffic, cfg)
    _shadowed(engine)
    assert engine.sanitizer.ok and engine.slots_run == 1500
    assert switch.total_backlog() > 3000


def test_round_robin_lowest_input_and_no_split_meet_the_reference():
    for kwargs in ({"tie_break": "round_robin"}, {"tie_break": "lowest_input"},
                   {"fanout_splitting": False}, {"max_iterations": 1}):
        switch = make_switch("fifoms", 16, rng=5, **kwargs)
        traffic = build_traffic({"model": "bernoulli", "p": 0.8, "b": 0.3}, 16, rng=6)
        engine = SimulationEngine(switch, traffic, SimulationConfig(num_slots=300))
        _shadowed(engine)
        assert engine.sanitizer.ok, kwargs


class TestOptIn:
    def test_not_in_the_default_catalogue(self):
        assert not any(isinstance(c, ReferenceShadow) for c in default_checkers())

    def test_refuses_a_switch_the_reference_does_not_model(self):
        islip = make_switch("islip", 4)
        assert not any(isinstance(c, ReferenceShadow) for c in checkers_for(islip))
        for name in ("fifoms", "greedy-mcast"):
            checkers = checkers_for(make_switch(name, 4))
            assert isinstance(checkers[-1], ReferenceShadow), name
        traffic = build_traffic(BERNOULLI, 4, rng=1)
        engine = SimulationEngine(islip, traffic, SimulationConfig(num_slots=10))
        with pytest.raises(ConfigurationError, match="ReferenceShadow"):
            _shadowed(engine)

    def test_the_reference_is_imported_only_in_attach(self):
        tree = ast.parse(Path(shadow.__file__).read_text())
        top = {
            node.module for node in tree.body if isinstance(node, ast.ImportFrom)
        }
        assert "repro.verify.reference" not in top
        attach = next(
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "attach"
        )
        assert any(
            isinstance(node, ast.ImportFrom) and node.module == "repro.verify.reference"
            for node in ast.walk(attach)
        )


# --------------------------------------------------------------------- #
# Mutants of production, each killed at its first divergent slot
# --------------------------------------------------------------------- #
def _replace_source(monkeypatch, cls, name: str, old: str, new: str) -> None:
    """Recompile ``cls.name`` with one source line replaced."""
    func = getattr(cls, name)
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    code = compile(
        source.replace(old, new), inspect.getsourcefile(func), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, func.__globals__, namespace)
    monkeypatch.setattr(cls, name, namespace[name])


def _reversed_scalar_pick(monkeypatch):
    real = FIFOMSScheduler._pick

    def reversed_pick(self, winners, output_port):
        if len(winners) > 1 and self.tie_break is TieBreak.RANDOM:
            draw = int(self._rng.integers(len(winners)))
            return winners[len(winners) - 1 - draw]
        return real(self, winners, output_port)

    monkeypatch.setattr(FIFOMSScheduler, "_pick", reversed_pick)


def _reversed_batched_pick(monkeypatch):
    _replace_source(
        monkeypatch, FIFOMSScheduler, "_schedule_state_rounds",
        "winners = [who[k] for (_, who), k in zip(ties, picks.tolist())]",
        "winners = [who[len(who) - 1 - k] for (_, who), k in zip(ties, picks.tolist())]",
    )


def _equal_timestamp_counts_as_older(monkeypatch):
    # A request keeps the outputs no *strictly* older request asked for;
    # the mutant starts a new timestamp group at every request, so an
    # equal timestamp takes outputs away as an older one would.
    _replace_source(
        monkeypatch, FIFOMSScheduler, "_schedule_state_rounds",
        "if ts != walked_ts:", "if ts >= walked_ts:",
    )


def _emptied_voq_stays_nonempty(monkeypatch):
    _replace_source(
        monkeypatch, SwitchState, "serve_rows",
        "nonempty[i] &= ~mask | kept", "pass",
    )


MUTANTS = {
    "reversed-random-pick-scalar": (_reversed_scalar_pick, 8, BERNOULLI),
    "reversed-random-pick-batched": (
        _reversed_batched_pick, 16, {"model": "bernoulli", "p": 0.9, "b": 0.5},
    ),
    "equal-timestamp-as-older": (_equal_timestamp_counts_as_older, 8, BERNOULLI),
    "emptied-voq-keeps-nonempty-bit": (_emptied_voq_stays_nonempty, 8, BERNOULLI),
}


def _digests(ports: int, traffic: dict, suite: SanitizerSuite | None = None):
    engine = case_engine(EquivalenceCase("fifoms", traffic, seed=2004), ports, 600)
    digests = record_digests(engine.switch)
    engine.sanitizer = suite
    return engine, digests


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_mutant_is_killed_at_its_first_divergent_slot(mutant, monkeypatch):
    apply, ports, traffic = MUTANTS[mutant]
    clean, clean_digests = _digests(ports, traffic)
    clean.run()
    apply(monkeypatch)
    suite = SanitizerSuite(checkers=[ReferenceShadow()], hard_fail=True, deep_every=0)
    engine, digests = _digests(ports, traffic, suite)
    with pytest.raises(SanitizerError):
        engine.run()
    first = next(s for s, (a, b) in enumerate(zip(digests, clean_digests)) if a != b)
    (violation,) = suite.violations
    assert violation.slot == first == len(digests) - 1
    context = dict(violation.context)
    assert {"input", "output", "reference_mask", "production_mask"} <= context.keys()
    differ = context["reference_mask"] ^ context["production_mask"]
    assert differ >> context["output"] & 1


def _drop_tail_engine():
    switch = make_switch("fifoms", 8, rng=3, buffer_capacity=4, buffer_overflow="drop")
    traffic = build_traffic({"model": "bernoulli", "p": 0.9, "b": 0.5}, 8, rng=4)
    cfg = SimulationConfig(num_slots=300, max_backlog=None, stability_window=0)
    return SimulationEngine(switch, traffic, cfg)


@pytest.mark.parametrize(
    "cls, method, replacement, build, message",
    [
        (SwitchState, "admit", ("live[i] >= self.capacity", "live[i] > self.capacity"),
         _drop_tail_engine, "full buffer refuses"),
        (FaultInjector, "filter_decision", ("return pruned, lost", "return pruned, 0"),
         lambda: case_engine(EquivalenceCase("fifoms", BERNOULLI, "grant-glitch"), 8, 600),
         "grant differs"),
    ],
    ids=["drop-tail-admits-one-too-many", "lost-grants-unreported"],
)
def test_drop_and_grant_loss_accounting_can_fail(
    cls, method, replacement, build, message, monkeypatch
):
    _replace_source(monkeypatch, cls, method, *replacement)
    engine = build()
    engine.sanitizer = SanitizerSuite(
        checkers=[ReferenceShadow()], hard_fail=True, deep_every=0
    )
    with pytest.raises(SanitizerError, match=message):
        engine.run()
