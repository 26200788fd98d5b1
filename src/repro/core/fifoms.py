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

import numpy as np

from repro.core.matching import GrantSet, ScheduleDecision
from repro.core.voq import MulticastVOQInputPort
from repro.errors import ConfigurationError
from repro.utils.rng import make_rng

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
        state,
        *,
        input_free: list[bool] | None = None,
        output_free: list[bool] | None = None,
    ) -> ScheduleDecision:
        """Vectorized twin of :meth:`schedule` over a struct-of-arrays
        :class:`~repro.kernel.state.SwitchState`.

        Each round is three masked reductions over the HOL-timestamp
        matrix: a row min (every free input's smallest eligible
        timestamp = the request step), an equality mask (which VOQs carry
        it), and a column min (every free output's best request = the
        grant step). Tie-breaks call the same :meth:`_pick` arbiter with
        the same ascending-output order and winner lists, so RNG draws
        and round-robin pointer movement are bit-identical to the object
        path — the equivalence harness holds this method to that.
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
        inf = np.inf
        buf = state.ts_scratch
        col = state.col_scratch
        req = state.req_scratch
        win = state.win_scratch
        row_min = state.row_min_scratch
        col_min = state.col_min_scratch
        # The working matrix starts as the HOL timestamps with pre-reserved
        # (masked) ports blanked; each granted row/column is blanked as the
        # rounds progress, so no per-round re-masking is needed.
        np.copyto(buf, state.hol_ts)
        if input_free is not None:
            in_free = state.input_free
            in_free[:] = input_free
            buf[~in_free, :] = inf
        if output_free is not None:
            out_free = state.output_free
            out_free[:] = output_free
            buf[:, ~out_free] = inf
        granted_outputs: list[list[int]] = [[] for _ in range(n)]
        decision = ScheduleDecision()
        rounds = 0

        row_min_col = state.row_min_col
        col_min_row = state.col_min_row
        max_it = self.max_iterations
        pick = self._pick
        round_grants = decision.round_grants
        while max_it is None or rounds < max_it:
            # Request step: row-wise min of the masked HOL timestamps.
            # An all-inf (matched or empty) row yields row_min == inf; its
            # spurious inf "requests" can never win a column, so no
            # explicit liveness mask is needed.
            buf.min(axis=1, out=row_min)
            # Python min over the 16-ish floats beats a second ufunc
            # reduction at this matrix size.
            if min(row_min.tolist()) == inf:
                break
            decision.requests_made = True
            np.equal(buf, row_min_col, out=req)

            # Grant step: column-wise min over the requesting timestamps
            # (buf == row_min at every request, so masking buf itself
            # gives each column the timestamps competing for it).
            col.fill(inf)
            np.copyto(col, buf, where=req)
            col.min(axis=0, out=col_min)
            np.equal(col, col_min_row, out=win)
            counts = win.sum(axis=0).tolist()
            firsts = win.argmax(axis=0).tolist()
            new_matches = 0
            for j, best in enumerate(col_min.tolist()):
                if best == inf:
                    continue
                if counts[j] == 1:
                    winner = firsts[j]
                else:
                    # Same winner list, same output, same arbiter state as
                    # the object path -> identical RNG/pointer behaviour.
                    winner = pick(np.nonzero(win[:, j])[0].tolist(), j)
                granted_outputs[winner].append(j)
                new_matches += 1
                # Blank the winner's row and the taken column for the
                # following rounds. counts/firsts/col_min are already
                # materialized, and ``win`` only backs the tie lists, so
                # in-loop blanking cannot disturb this round's grants.
                buf[winner] = inf
                buf[:, j] = inf
            rounds += 1
            round_grants.append(new_matches)

        # Inputs are distinct by construction (granted rows blank out), so
        # write the grants dict directly instead of paying decision.add()'s
        # duplicate check on every entry.
        grants = decision.grants
        for i in range(n):
            outs = granted_outputs[i]
            if outs:
                grants[i] = GrantSet(i, tuple(outs))
        decision.rounds = rounds
        if input_free is not None or output_free is not None:
            # Write the final reservation state back through the caller's
            # mask lists (the object path's mutate-in-place contract).
            matched = [bool(g) for g in granted_outputs]
            if input_free is not None:
                input_free[:] = [
                    bool(f) and not m for f, m in zip(input_free, matched)
                ]
            if output_free is not None:
                taken = set()
                for outs in granted_outputs:
                    taken.update(outs)
                output_free[:] = [
                    bool(f) and j not in taken
                    for j, f in enumerate(output_free)
                ]
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
