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
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.matching import GrantSet, ScheduleDecision
from repro.core.voq import MulticastVOQInputPort
from repro.errors import ConfigurationError
from repro.utils.bitsets import bitmask_from_iterable, bitmask_to_tuple
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.state import SwitchState

__all__ = ["FIFOMSScheduler", "TieBreak"]


class TieBreak(enum.Enum):
    """How an output port picks among equal-smallest-timestamp requests.

    The paper specifies RANDOM. LOWEST_INPUT is deterministic (useful for
    hand-checkable traces); ROUND_ROBIN rotates a per-output
    pointer like iSLIP's grant pointer (an ablation in the benchmarks).
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
        caps are an ablation (benchmarks/bench_ablation_iterations.py).
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
        #: Fault-aware switches pass ``input_free``/``output_free`` port
        #: masks when this is True, so requests to down ports are withheld
        #: at the source (the no-splitting variant rejects masks and is
        #: degraded by post-scheduling pruning instead).
        self.supports_port_masks = fanout_splitting
        self._rng = make_rng(rng)
        # Per-output round-robin pointers (only used for ROUND_ROBIN ties).
        self._grant_pointers = [0] * num_ports

    @property
    def supported_backends(self) -> tuple[str, ...]:
        """Kernel backends this configuration can drive.

        The vectorized entry point (:meth:`schedule_state`) implements
        the paper's fanout-splitting rounds only; the no-splitting
        ablation stays object-only.
        """
        if self.fanout_splitting:
            return ("object", "vectorized")
        return ("object",)

    # ------------------------------------------------------------------ #
    def schedule(
        self,
        ports: Sequence[MulticastVOQInputPort],
        *,
        input_free: list[bool] | None = None,
        output_free: list[bool] | None = None,
    ) -> ScheduleDecision:
        """Run one slot's worth of FIFOMS rounds and return the decision.

        ``input_free`` / ``output_free`` pre-reserve ports (mutated in
        place when given): the strict-priority extension runs one FIFOMS
        pass per class, carrying reservations from higher classes down.
        """
        n = self.num_ports
        if len(ports) != n:
            raise ConfigurationError(
                f"scheduler built for {n} ports, got {len(ports)} input ports"
            )
        if not self.fanout_splitting:
            if input_free is not None or output_free is not None:
                raise ConfigurationError(
                    "port masks are not supported by the no-splitting variant"
                )
            return self._schedule_no_split(ports)
        if input_free is None:
            input_free = [True] * n
        if output_free is None:
            output_free = [True] * n
        if len(input_free) != n or len(output_free) != n:
            raise ConfigurationError("port masks must have length N")
        # granted_outputs[i] accumulates outputs granted to input i.
        granted_outputs: list[list[int]] = [[] for _ in range(n)]
        decision = ScheduleDecision()
        rounds = 0

        while self.max_iterations is None or rounds < self.max_iterations:
            # ---------------- request step ---------------- #
            # requests[j] = list of input indices requesting output j; all
            # requests from one input this round share one timestamp.
            requests: list[list[int]] = [[] for _ in range(n)]
            request_ts: list[int | None] = [None] * n  # per-input timestamp
            any_request = False
            for i in range(n):
                if not input_free[i]:
                    continue
                port = ports[i]
                smallest = port.min_hol_timestamp(output_free)
                if smallest is None:
                    continue
                request_ts[i] = smallest
                for j, q in enumerate(port.voqs):
                    if not output_free[j] or not q:
                        continue
                    if q.head().timestamp == smallest:
                        requests[j].append(i)
                        any_request = True
            if any_request:
                decision.requests_made = True
            else:
                break

            # ---------------- grant step ---------------- #
            new_matches = 0
            for j in range(n):
                reqs = requests[j]
                if not output_free[j] or not reqs:
                    continue
                best_ts = min(request_ts[i] for i in reqs)  # type: ignore[type-var]
                winners = [i for i in reqs if request_ts[i] == best_ts]
                winner = self._pick(winners, j)
                output_free[j] = False
                input_free[winner] = False
                granted_outputs[winner].append(j)
                new_matches += 1
            if not new_matches:
                break
            rounds += 1
            decision.round_grants.append(new_matches)
            # Fanout splitting happens implicitly: a matched input never
            # requests again this slot, so the outputs it did NOT win stay
            # pending in their VOQs and are served in later slots.

        for i in range(n):
            if granted_outputs[i]:
                decision.add(i, tuple(granted_outputs[i]))
        decision.rounds = rounds
        return decision

    # ------------------------------------------------------------------ #
    def schedule_state(
        self,
        state: "SwitchState",
        *,
        input_free: list[bool] | None = None,
        output_free: list[bool] | None = None,
    ) -> ScheduleDecision:
        """Array twin of :meth:`schedule` over a struct-of-arrays
        :class:`~repro.kernel.state.SwitchState`.

        A round touches the HOL *packets* that compete, not the N×N VOQ
        heads. Request: each still-free input asks
        :meth:`~repro.kernel.state.SwitchState.hol_request` for its
        oldest packet with a HOL cell at a free output — one
        ``(timestamp, input, output bitmask)`` triple. Grant: the triples
        are walked oldest first; a request keeps the outputs no strictly
        older request asked for, and an output wanted by several inputs
        of one timestamp goes to :meth:`_pick`. Every requested free
        output is granted to somebody, so the round's grant count is the
        popcount of the requested outputs, and an input that won nothing
        requests again from what is left.

        Tie-breaks see the same winner lists (ascending input) at the
        same outputs in the same order (ascending within the round) as
        the object path, so RNG draws and round-robin pointer movement
        are bit-identical — the equivalence harness holds this method to
        that.
        """
        n = self.num_ports
        if state.num_ports != n:
            raise ConfigurationError(
                f"scheduler built for {n} ports, got a {state.num_ports}-port state"
            )
        if not self.fanout_splitting:
            raise ConfigurationError(
                "the no-splitting variant has no vectorized kernel entry"
            )
        if (input_free is not None and len(input_free) != n) or (
            output_free is not None and len(output_free) != n
        ):
            raise ConfigurationError("port masks must have length N")
        contenders = [
            i
            for i, pids in enumerate(state.hol_pids)
            if pids and (input_free is None or input_free[i])
        ]
        if output_free is None:
            free_out = (1 << n) - 1
        else:
            free_out = bitmask_from_iterable(
                j for j, free in enumerate(output_free) if free
            )
        decision = ScheduleDecision()
        granted: dict[int, int] = {}  # input -> bitmask of outputs won
        hol_request = state.hol_request
        max_it = self.max_iterations
        rounds = 0
        while contenders and (max_it is None or rounds < max_it):
            # Request step: one triple per input with an eligible packet.
            requests = []
            for i in contenders:
                request = hol_request(i, free_out)
                if request is not None:
                    requests.append(request)
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
                # same output, same arbiter state and draw order as the
                # object path.
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
                for low in sorted(rivals):
                    winner = self._pick(rivals[low], low.bit_length() - 1)
                    granted[winner] = granted.get(winner, 0) | low
            taken = older | same
            free_out &= ~taken
            contenders = [i for _, i, _ in requests if i not in granted]
            rounds += 1
            decision.round_grants.append(taken.bit_count())

        decision.rounds = rounds
        # Ascending input order, ascending outputs within a grant: the
        # canonical order commit and the delivery stream depend on.
        grants = decision.grants
        for i in sorted(granted):
            grants[i] = GrantSet(i, bitmask_to_tuple(granted[i]))
        # The object path's mutate-in-place contract for the caller's
        # reservation lists (fifoms-prio chains classes through it).
        if input_free is not None:
            for i in grants:
                input_free[i] = False
        if output_free is not None:
            for grant in grants.values():
                for j in grant.output_ports:
                    output_free[j] = False
        return decision

    # ------------------------------------------------------------------ #
    def _schedule_no_split(
        self, ports: Sequence[MulticastVOQInputPort]
    ) -> ScheduleDecision:
        """All-or-nothing variant for the ABL-SPLIT ablation.

        Iterative request/grant does not extend cleanly to no-splitting
        (a partially-granted input would have to release outputs and retry,
        which can livelock), so this variant uses the standard
        formulation from the multicast-scheduling literature: consider HOL
        packets in FIFO (timestamp) order, tie-broken per the configured
        policy, and grant a packet only if *every* one of its remaining
        destinations is still free. One pass, at most one packet per input.
        """
        n = self.num_ports
        decision = ScheduleDecision()
        candidates: list[tuple[int, int]] = []  # (timestamp, input)
        for i in range(n):
            ts = ports[i].min_hol_timestamp(None)
            if ts is not None:
                candidates.append((ts, i))
        if not candidates:
            return decision
        decision.requests_made = True
        if self.tie_break is TieBreak.RANDOM:
            order = self._rng.permutation(len(candidates))
            candidates = [candidates[int(k)] for k in order]
        candidates.sort(key=lambda pair: pair[0])  # stable: keeps tie order
        output_free = [True] * n
        matched = 0
        for _ts, i in candidates:
            port = ports[i]
            ts = port.min_hol_timestamp(None)
            pending = [
                j for j, q in enumerate(port.voqs) if q and q.head().timestamp == ts
            ]
            if all(output_free[j] for j in pending):
                for j in pending:
                    output_free[j] = False
                decision.add(i, tuple(pending))
                matched += 1
        decision.rounds = 1 if matched else 0
        if matched:
            decision.round_grants.append(matched)
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
