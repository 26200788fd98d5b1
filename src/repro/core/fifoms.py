"""FIFOMS — the First-In-First-Out Multicast Scheduling algorithm.

This is a faithful implementation of the paper's Table 2. Each time slot
runs iterative rounds of two steps (no accept step — see §III.B):

Request
    Every *free* input port finds, among the HOL address cells of its VOQs
    whose output ports are still free, the smallest time stamp; every HOL
    cell carrying that time stamp (they all belong to the same multicast
    packet) sends a request to its output, weighted by the time stamp.
    Inputs that were matched in an earlier round of this slot do not
    request again: they can transmit only one data cell per slot, and any
    same-timestamp siblings already lost their outputs to other inputs.

Grant
    Every free output port grants the request with the smallest time
    stamp, breaking ties at random (configurable — see :class:`TieBreak`).

Rounds repeat until a round adds no new input/output match; the worst case
is N rounds because every productive round reserves at least one output.

The returned :class:`~repro.core.matching.ScheduleDecision` may connect one
input to *several* outputs — that is the crossbar's native multicast
capability the algorithm is designed to exploit.
"""

from __future__ import annotations

import enum
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError
from repro.utils.bitsets import bitmask_from_iterable, iter_bits
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.state import SwitchState

__all__ = ["FIFOMSScheduler", "TieBreak"]

_BATCHED_DRAWS = 8  # fewer clashed outputs draw cheaper one by one (break-even ~5)


class TieBreak(enum.Enum):
    """How an output port picks among equal-smallest-timestamp requests.

    The paper specifies RANDOM. LOWEST_INPUT is deterministic (useful for
    hand-checkable traces); ROUND_ROBIN rotates a per-output
    pointer like iSLIP's grant pointer (the ``abl-tiebreak`` ablation).
    """

    RANDOM = "random"
    LOWEST_INPUT = "lowest_input"
    ROUND_ROBIN = "round_robin"


class FIFOMSScheduler:
    """Iterative request/grant scheduler over multicast VOQ input ports.

    Parameters
    ----------
    num_ports:
        N, the number of input ports = number of output ports.
    tie_break:
        Output-arbitration tie policy; the paper uses RANDOM.
    max_iterations:
        Cap on scheduling rounds per slot. ``None`` (default) iterates to
        convergence, which the paper proves needs at most N rounds; small
        caps are an ablation (the ``abl-iterations`` figure).
    fanout_splitting:
        When True (the paper's algorithm) the destinations of a multicast
        packet may be served across several slots. When False, an input
        only accepts a grant set covering *all* remaining destinations of
        its HOL packet — the no-splitting ablation, which the paper's §VI
        argues is necessary to give up for high throughput.
    rng:
        Seed or Generator for random tie-breaks.
    """

    name = "fifoms"

    def __init__(
        self,
        num_ports: int,
        *,
        tie_break: TieBreak = TieBreak.RANDOM,
        max_iterations: int | None = None,
        fanout_splitting: bool = True,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if num_ports < 1:
            raise ConfigurationError(f"num_ports must be >= 1, got {num_ports}")
        if max_iterations is not None and max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1 or None, got {max_iterations}"
            )
        if not isinstance(tie_break, TieBreak):
            raise ConfigurationError(f"tie_break must be a TieBreak, got {tie_break!r}")
        self.num_ports = num_ports
        self.tie_break = tie_break
        self.max_iterations = max_iterations
        self.fanout_splitting = fanout_splitting
        self._rng = make_rng(rng)
        # Per-output round-robin pointers (only used for ROUND_ROBIN ties).
        self._grant_pointers = [0] * num_ports

    #: Fault-aware switches pass ``input_free``/``output_free`` port masks
    #: in both fanout modes, so requests to down ports are withheld at the
    #: source instead of pruned after scheduling.
    supports_port_masks = True

    # ------------------------------------------------------------------ #
    def schedule_state(
        self,
        state: "SwitchState",
        *,
        input_free: list[bool] | None = None,
        output_free: list[bool] | None = None,
    ) -> ScheduleDecision:
        """One slot of FIFOMS over a struct-of-arrays
        :class:`~repro.kernel.state.SwitchState`, in both fanout modes.

        The passes touch the HOL *packets* that compete, not the N×N VOQ
        heads: :meth:`_schedule_state_rounds` runs the paper's rounds,
        :meth:`_schedule_state_no_split` the no-splitting ablation. Both
        start from the caller's ``input_free`` / ``output_free`` and write
        the ports they reserve back into them (a fault-injected switch
        passes its port outages in them).
        """
        n = self.num_ports
        if state.num_ports != n:
            raise ConfigurationError(
                f"scheduler built for {n} ports, got a {state.num_ports}-port state"
            )
        if (input_free is not None and len(input_free) != n) or (
            output_free is not None and len(output_free) != n
        ):
            raise ConfigurationError("port masks must have length N")
        contenders = list(compress(range(n), state.hol_pids))  # inputs with HOL packets
        if input_free is not None:
            contenders = [i for i in contenders if input_free[i]]
        if output_free is None:
            free_out = (1 << n) - 1
        else:
            free_out = bitmask_from_iterable(
                j for j, free in enumerate(output_free) if free
            )
        if self.fanout_splitting:
            decision = self._schedule_state_rounds(state, contenders, free_out)
        else:
            decision = self._schedule_state_no_split(state, contenders, free_out)
        if input_free is not None:
            for i in decision.masks:
                input_free[i] = False
        if output_free is not None:
            for mask in decision.masks.values():
                for j in iter_bits(mask):
                    output_free[j] = False
        return decision

    def _schedule_state_rounds(
        self, state: "SwitchState", contenders: list[int], free_out: int
    ) -> ScheduleDecision:
        """The request/grant rounds over the HOL-packet index.

        Request: each still-free input offers its oldest packet with a
        HOL cell at a free output, read off the index as
        :meth:`~repro.kernel.state.SwitchState.hol_request` does — one
        ``(timestamp, input, output bitmask)`` triple. Grant: the triples
        are walked oldest first; a request keeps the outputs no strictly
        older request asked for, and an output wanted by several inputs
        of one timestamp goes to :meth:`_pick`. Every requested free
        output is granted to somebody, so the round's grant count is the
        popcount of the requested outputs, and an input that won nothing
        requests again from what is left.

        Tie-breaks see the same winner lists (ascending input) at the
        same outputs in the same order (ascending within the round) as
        a per-output walk of Table 2, so RNG draws and round-robin
        pointer movement are bit-identical; under RANDOM, a round with
        ``_BATCHED_DRAWS`` or more clashed outputs draws them all in one
        ``rng.integers(0, sizes)``, the same stream as one scalar draw
        per output. :class:`~repro.verify.shadow.ReferenceShadow` holds
        this method to the reference (:mod:`repro.verify.reference`).
        """
        decision = ScheduleDecision()
        granted: dict[int, int] = {}  # input -> bitmask of outputs won
        p_ts, p_hol, hol_pids = state.p_ts, state.p_hol, state.hol_pids
        max_it = self.max_iterations
        rounds = 0
        while contenders and (max_it is None or rounds < max_it):
            # Request step: one triple per input with an eligible packet.
            requests = []
            for i in contenders:
                for pid in hol_pids[i]:
                    mask = p_hol[pid] & free_out
                    if mask:
                        requests.append((p_ts[pid], i, mask))
                        break
            if not requests:
                break
            decision.requests_made = True

            # Grant step. ``older``: outputs asked for by a strictly
            # older timestamp; ``same``: by the timestamp being walked;
            # ``clashed``: by two or more inputs of one timestamp.
            requests.sort()
            older = same = clashed = 0
            walked_ts = -1
            for ts, i, mask in requests:
                if ts != walked_ts:
                    older |= same
                    same = 0
                    walked_ts = ts
                mask &= ~older
                if mask:
                    clashed |= mask & same
                    same |= mask
                    granted[i] = mask
            if clashed:
                # Take the clashed outputs back from everyone holding
                # one (all rivals for an output share a timestamp, so
                # sorted order lists them by ascending input) and
                # arbitrate in ascending output order: same winner list,
                # same output, same arbiter state and draw order as a
                # per-output walk.
                rivals: dict[int, list[int]] = {}
                for _, i, _ in requests:
                    held = granted.get(i, 0)
                    clash = held & clashed
                    if not clash:
                        continue
                    if held == clash:
                        del granted[i]
                    else:
                        granted[i] = held ^ clash
                    while clash:
                        low = clash & -clash
                        clash ^= low
                        rivals.setdefault(low, []).append(i)
                ties = sorted(rivals.items())
                if len(ties) >= _BATCHED_DRAWS and self.tie_break is TieBreak.RANDOM:
                    # Every list here has two or more rivals.
                    picks = self._rng.integers(0, [len(who) for _, who in ties])
                    winners = [who[k] for (_, who), k in zip(ties, picks.tolist())]
                else:
                    winners = [self._pick(who, low.bit_length() - 1) for low, who in ties]
                for (low, _), winner in zip(ties, winners):
                    granted[winner] = granted.get(winner, 0) | low
            taken = older | same
            free_out &= ~taken
            contenders = [i for _, i, _ in requests if i not in granted]
            rounds += 1
            decision.round_grants.append(taken.bit_count())

        decision.rounds = rounds
        # Ascending input order: the canonical order commit and the
        # delivery stream depend on.
        decision.masks = {i: granted[i] for i in sorted(granted)}
        return decision

    def _schedule_state_no_split(
        self, state: "SwitchState", contenders: list[int], free_out: int
    ) -> ScheduleDecision:
        """The all-or-nothing variant for the ABL-SPLIT ablation.

        Iterative request/grant does not extend cleanly to no-splitting
        (a partially-granted input would have to release outputs and
        retry, which can livelock), so this pass uses the standard
        formulation from the multicast-scheduling literature: HOL packets
        in FIFO (timestamp) order, each granted only if *every* one of
        its remaining destinations is still free; one pass, at most one
        packet per input. A contender offers its oldest live packet,
        ``hol_pids[i][0]``, whose ``p_hol`` bits are every destination it
        still has (see :mod:`repro.kernel.state`); the packet is granted
        iff ``p_hol & ~free == 0``. Candidates are ordered by one permutation
        draw over ascending inputs under RANDOM, then a stable timestamp
        sort, and granted in that order.
        """
        decision = ScheduleDecision()
        if not contenders:
            return decision
        decision.requests_made = True
        p_ts, p_hol, hol_pids = state.p_ts, state.p_hol, state.hol_pids
        candidates = [(p_ts[hol_pids[i][0]], i) for i in contenders]
        if self.tie_break is TieBreak.RANDOM:
            order = self._rng.permutation(len(candidates))
            candidates = [candidates[int(k)] for k in order]
        candidates.sort(key=lambda pair: pair[0])  # stable: keeps tie order
        for _ts, i in candidates:
            mask = p_hol[hol_pids[i][0]]
            if not mask & ~free_out:
                free_out ^= mask
                decision.masks[i] = mask
        if decision.masks:
            decision.rounds = 1
            decision.round_grants.append(len(decision.masks))
        return decision

    # ------------------------------------------------------------------ #
    def _pick(self, winners: list[int], output_port: int) -> int:
        """Arbitrate among equal-timestamp requesters at one output."""
        if len(winners) == 1:
            return winners[0]
        if self.tie_break is TieBreak.RANDOM:
            return winners[int(self._rng.integers(len(winners)))]
        if self.tie_break is TieBreak.LOWEST_INPUT:
            return min(winners)
        # ROUND_ROBIN: first winner at or after the pointer, then advance.
        ptr = self._grant_pointers[output_port]
        chosen = min(winners, key=lambda i: (i - ptr) % self.num_ports)
        self._grant_pointers[output_port] = (chosen + 1) % self.num_ports
        return chosen

    def reset(self) -> None:
        """Clear inter-slot state (round-robin pointers)."""
        self._grant_pointers = [0] * self.num_ports

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FIFOMSScheduler(N={self.num_ports}, tie_break={self.tie_break.value}, "
            f"max_iterations={self.max_iterations}, "
            f"fanout_splitting={self.fanout_splitting})"
        )
