"""iSLIP on request bitmasks: a scalar oracle, mask-less views, and the
integrity checks on the VOQ bank the four unicast-queued switches hold."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import make_packet

from repro.errors import SchedulingError
from repro.sanitize import SanitizerError, SanitizerSuite, suite_from_env
from repro.schedulers.base import UnicastVOQView
from repro.schedulers.islip import ISLIPScheduler
from repro.schedulers.registry import make_switch

SIZES = (1, 2, 3, 5, 8, 16, 33, 70)


def reference_islip(requests, grant_ptr, accept_ptr, max_iterations):
    """One slot of iSLIP by the book: plain loops over a list-of-lists
    request matrix, every arbiter an N-step scan from its pointer.
    Moves the two pointer lists in place."""
    n = len(requests)
    match = [None] * n  # input -> output
    output_matched = [False] * n
    round_grants = []
    iteration = 0
    while max_iterations is None or iteration < max_iterations:
        iteration += 1
        granted = [[] for _ in range(n)]  # input -> outputs granting it
        for j in range(n):
            if output_matched[j]:
                continue
            for k in range(n):
                i = (grant_ptr[j] + k) % n
                if match[i] is None and requests[i][j]:
                    granted[i].append(j)
                    break
        if not any(granted):
            break
        for i in range(n):
            if not granted[i]:
                continue
            j = next(
                (accept_ptr[i] + k) % n
                for k in range(n)
                if (accept_ptr[i] + k) % n in granted[i]
            )
            match[i] = j
            output_matched[j] = True
            if iteration == 1:
                grant_ptr[j] = (i + 1) % n
                accept_ptr[i] = (j + 1) % n
        round_grants.append(sum(1 for g in granted if g))
    return {i: j for i, j in enumerate(match) if j is not None}, round_grants


def _random_occupancy(rng, n):
    """Sparse to full: the density itself is drawn per slot."""
    density = rng.choice([0.02, 0.1, 0.3, 0.7, 1.0])
    return (rng.random((n, n)) < density).astype(np.int64) * rng.integers(
        1, 4, size=(n, n)
    )


def _view(occupancy, cols=None):
    return UnicastVOQView(occupancy=occupancy, current_slot=0, cols=cols)


def _plain_columns(occupancy):
    n = len(occupancy)
    return [
        sum(1 << i for i in range(n) if occupancy[i][j]) for j in range(n)
    ]


@pytest.mark.parametrize("max_iterations", [None, 1])
@pytest.mark.parametrize("n", SIZES)
def test_matches_scalar_reference_slot_by_slot(n, max_iterations):
    rng = np.random.default_rng(1000 * n + (max_iterations or 0))
    sched = ISLIPScheduler(n, max_iterations=max_iterations)
    grant_ptr, accept_ptr = [0] * n, [0] * n
    for _slot in range(40):
        occupancy = _random_occupancy(rng, n)
        expected, round_grants = reference_islip(
            (occupancy > 0).tolist(), grant_ptr, accept_ptr, max_iterations
        )
        decision = sched.schedule(_view(occupancy))
        assert {
            i: g.output_ports[0] for i, g in decision.grants.items()
        } == expected
        assert list(decision.grants) == sorted(decision.grants)
        assert all(g.fanout == 1 for g in decision.grants.values())
        assert decision.rounds == len(round_grants)
        assert decision.round_grants == round_grants
        assert decision.requests_made == bool(occupancy.any())
        assert sched.grant_pointers == grant_ptr
        assert sched.accept_pointers == accept_ptr


@pytest.mark.parametrize("n", SIZES)
def test_views_without_masks_schedule_like_views_that_carry_them(n):
    rng = np.random.default_rng(77 + n)
    bare, carrying = ISLIPScheduler(n), ISLIPScheduler(n)
    for _slot in range(25):
        occupancy = _random_occupancy(rng, n)
        cols = _plain_columns(occupancy.tolist())
        derived_view = _view(occupancy)
        a = bare.schedule(derived_view)
        b = carrying.schedule(_view(occupancy, cols=list(cols)))
        assert derived_view.cols == cols
        assert a == b
        assert bare.grant_pointers == carrying.grant_pointers
        assert bare.accept_pointers == carrying.accept_pointers


def test_scheduler_leaves_the_carried_masks_alone():
    occupancy = np.array([[1, 1], [1, 0]], dtype=np.int64)
    cols = _plain_columns(occupancy.tolist())
    ISLIPScheduler(2).schedule(_view(occupancy, cols=cols))
    assert cols == [0b11, 0b01]


# --------------------------------------------------------------------- #
# The masks the switches keep: set on first copy, cleared on last pop.
# --------------------------------------------------------------------- #
def _lane(n, *packets):
    lane = [None] * n
    for p in packets:
        lane[p.input_port] = p
    return lane


#: Bank corruptions and the drift ``check_invariants()`` must name for
#: each; reading ``bank.occupancy`` brings the matrices into existence
#: for the mask-only pairings, so the last two apply to all five.
def _flip_column(bank):
    bank.cols[1] ^= 1 << 3  # claims VOQ (3, 1) holds a cell


def _flip_row(bank):
    bank.rows[3] ^= 1 << 1


def _reverse_deque(bank):
    next(q for row in bank.queues for q in row if len(q) > 1).reverse()


def _bump_count(bank):
    bank.occupancy[3, 1] += 1


DRIFTS = {
    "column": (_flip_column, r"request-column drift at VOQ \(3, 1\)"),
    "row": (_flip_row, r"request-row drift at VOQ \(3, 1\)"),
    "reversed": (_reverse_deque, "not FIFO-ordered"),
    "count": (_bump_count, r"occupancy drift at VOQ \(3, 1\)"),
}


@pytest.mark.parametrize("algorithm", ["islip", "cioq-islip", "cicq", "eslip", "pim"])
class TestColumnMaskIntegrity:
    @staticmethod
    def _loaded(algorithm):
        sw = make_switch(algorithm, 4, rng=5)
        # Three inputs fight for output 2 for four slots: under every
        # pairing at least four copies stay queued at the input side
        # (CIOQ's two phases move two a slot, CICQ's crosspoints hold
        # three), so some VOQ is two deep.
        for slot in range(4):
            sw.step(_lane(4, *(make_packet(i, (2,), slot) for i in range(3))), slot)
            sw.check_invariants()
        return sw

    def test_masks_follow_the_queues(self, algorithm):
        sw = self._loaded(algorithm)
        n = sw.num_ports
        bank = sw.bank
        assert any(bank.cols)
        for j in range(n):
            assert bank.cols[j] == sum(
                1 << i for i in range(n) if bank.queues[i][j]
            )
        for i in range(n):
            assert bank.rows[i] == sum(
                1 << j for j in range(n) if bank.queues[i][j]
            )
        for slot in range(4, 14):
            sw.step(_lane(4), slot)
            sw.check_invariants()
        assert bank.cols == bank.rows == bank.input_backlog == [0] * n

    def test_matrices_exist_once_read_and_then_keep_step(self, algorithm):
        sw = self._loaded(algorithm)
        bank = sw.bank
        # Only a scheduler that reads a matrix brings it into existence.
        assert (bank._occupancy is not None) == (algorithm in ("eslip", "pim"))
        counts = [[len(q) for q in row] for row in bank.queues]
        assert bank.occupancy.tolist() == counts
        assert bank.view(4).occupancy is bank.occupancy
        for slot in range(4, 10):
            sw.step(_lane(4, make_packet(3, (1,), slot)), slot)
            sw.check_invariants()
        assert bank.occupancy.sum() == sum(bank.input_backlog) == bank.backlog()

    def test_flipped_bit_fails_check_invariants(self, algorithm):
        sw = self._loaded(algorithm)
        cols = sw.bank.cols
        cols[1] ^= 1 << 3
        with pytest.raises(SchedulingError, match=r"request-column drift at VOQ \(3, 1\)"):
            sw.check_invariants()
        cols[1] ^= 1 << 3
        (j,) = [j for j, col in enumerate(cols) if col]
        cols[j] = 0  # hides the queued copies from the scheduler
        with pytest.raises(SchedulingError, match="request-column drift"):
            sw.check_invariants()

    def test_record_mode_records_state_cross_violation(self, algorithm):
        sw = self._loaded(algorithm)
        _flip_column(sw.bank)
        suite = SanitizerSuite()
        suite.attach(sw, algorithm=algorithm)
        with pytest.raises(SanitizerError, match="request-column drift"):
            suite.finish()
        assert [v.checker for v in suite.violations] == ["state_cross"]
        assert "SchedulingError" in str(suite.violations[0].to_dict())

    def test_hard_mode_raises_sanitizer_error(self, algorithm, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "hard")
        sw = self._loaded(algorithm)
        _flip_column(sw.bank)
        suite = suite_from_env()
        assert suite.hard_fail
        suite.attach(sw, algorithm=algorithm)
        with pytest.raises(SanitizerError, match="request-column drift"):
            suite.finish()

    @pytest.mark.parametrize("drift", ["row", "reversed", "count"])
    def test_every_other_drift_is_caught_in_every_mode(
        self, algorithm, drift, monkeypatch
    ):
        corrupt, message = DRIFTS[drift]
        sw = self._loaded(algorithm)
        corrupt(sw.bank)
        with pytest.raises(SchedulingError, match=message):
            sw.check_invariants()
        record = SanitizerSuite()
        record.attach(sw, algorithm=algorithm)
        with pytest.raises(SanitizerError, match=message):
            record.finish()
        assert [v.checker for v in record.violations] == ["state_cross"]
        monkeypatch.setenv("REPRO_SANITIZE", "hard")
        hard = suite_from_env()
        hard.attach(sw, algorithm=algorithm)
        with pytest.raises(SanitizerError, match=message):
            hard.finish()
