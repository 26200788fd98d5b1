"""ESLIP-style hybrid unicast/multicast switch (extension baseline).

McKeown's ESLIP (the scheduler of the Cisco 12000 router; "A Fast
Switched Backplane for a Gigabit Switched Router", 1997) is the classic
*deployed* answer to the paper's problem: it extends iSLIP with a single
multicast queue per input and a **shared multicast grant pointer**, so
that all output ports favor the *same* input's multicast cell and large
fanouts complete quickly — the same coordination goal FIFOMS reaches with
timestamps, achieved with pointers instead.

Structure per input: N unicast VOQs (fanout-1 packets) plus one FIFO of
multicast packets (fanout >= 2) whose HOL cell carries a residue set.

Per iteration within a slot:

1. *Requests* — every non-empty unicast VOQ (i, j) requests output j;
   every input's HOL multicast residue requests all its outputs.
2. *Grant* — each free output prefers a multicast requester, chosen by
   the **shared** pointer M (round-robin over inputs, identical at every
   output — that is what synchronizes the outputs onto one multicast
   cell); with no multicast requester it grants a unicast requester via
   its own per-output pointer, iSLIP style.
3. *Accept* — an input holding multicast grants accepts all of them (one
   data cell through the multicast-capable crossbar); otherwise it
   accepts one unicast grant via its accept pointer.

Pointer updates: unicast pointers as in iSLIP (first-iteration accepts
only). The shared multicast pointer advances past input M only when that
input's HOL multicast cell **completes** (residue empty), which is
ESLIP's fanout-splitting fairness rule.

Simplifications vs the original (documented deviations): no distinction
between odd/even cell-time unicast/multicast priority alternation — here
multicast always has grant priority, which is the configuration McKeown
recommends for multicast-heavy traffic and makes the comparison with
FIFOMS most direct.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.matching import ScheduleDecision
from repro.errors import ConfigurationError, SchedulingError
from repro.fabric.crossbar import MulticastCrossbar
from repro.packet import Delivery, Packet
from repro.switch.base import BaseSwitch, SlotResult
from repro.switch.voq_bank import UnicastVOQBank

__all__ = ["ESLIPSwitch"]


class ESLIPSwitch(BaseSwitch):
    """Hybrid N×N switch: unicast VOQs + one multicast queue per input."""

    name = "eslip"
    #: Multicast cells outrank older unicast cells at the same input:
    #: FIFO holds within each class, not across them.
    fifo_per_pair = False
    #: One slot merges a multicast matching and a unicast matching on the
    #: leftover ports, so an input may legitimately send its multicast
    #: cell AND a unicast cell in the same slot.
    matching_discipline = "output"

    def __init__(
        self, num_ports: int, *, max_iterations: int | None = None
    ) -> None:
        super().__init__(num_ports)
        if max_iterations is not None and max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1 or None, got {max_iterations}"
            )
        self.max_iterations = max_iterations
        n = num_ports
        self.crossbar = MulticastCrossbar(n)
        # Unicast side (iSLIP state).
        self.bank = UnicastVOQBank(n)
        self.grant_ptr = [0] * n
        self.accept_ptr = [0] * n
        # Multicast side. _mc_mask mirrors _mc_residue as an (N, N) bool
        # matrix so the grant phase can mask on it directly.
        self.mc_queues: list[deque[Packet]] = [deque() for _ in range(n)]
        self._mc_residue: list[set[int]] = [set() for _ in range(n)]
        self._mc_mask = np.zeros((n, n), dtype=bool)
        self.mcast_ptr = 0  # the SHARED multicast grant pointer
        self._port_idx = np.arange(n, dtype=np.int64)
        # Grant split staged by _decide() for _transfer() within one slot.
        self._pending: tuple[dict[int, list[int]], dict[int, int]] | None = None

    def _set_residue(self, i: int, destinations: tuple[int, ...]) -> None:
        """Reset input ``i``'s HOL multicast residue (set + mask twin)."""
        self._mc_residue[i] = set(destinations)
        self._mc_mask[i] = False
        self._mc_mask[i, list(destinations)] = True

    # ------------------------------------------------------------------ #
    def _accept(self, packet: Packet, slot: int) -> None:
        i = packet.input_port
        if packet.fanout == 1:
            self.bank.push(packet, packet.destinations[0])
        else:
            q = self.mc_queues[i]
            q.append(packet)
            if len(q) == 1:
                self._set_residue(i, packet.destinations)

    # ------------------------------------------------------------------ #
    def _schedule(self) -> tuple[dict[int, list[int]], dict[int, int], int, bool]:
        """One slot's iterations; returns (mcast grants, unicast matches,
        rounds, requests_made).

        Per iteration the grant step is two masked argmins over
        modular-distance keys: every free output's preferred multicast
        requester under the *shared* pointer, and its round-robin unicast
        fallback. Keys within one output are distinct, so each argmin is
        the unique round-robin choice. The accept step is order-sensitive
        (pointer updates) and stays a short python loop.
        """
        n = self.num_ports
        idx = self._port_idx
        input_busy = np.zeros(n, dtype=bool)
        output_busy = np.zeros(n, dtype=bool)
        mc_grants: dict[int, list[int]] = {}
        uni_match: dict[int, int] = {}
        rounds = 0
        iteration = 0
        requests_made = False
        uni = self.bank.occupancy > 0
        while self.max_iterations is None or iteration < self.max_iterations:
            iteration += 1
            # ---- grant ----
            free_in = ~input_busy
            mc_elig = (self._mc_mask & free_in[:, None]).T
            uni_elig = (uni & free_in[:, None]).T
            mc_elig[output_busy] = False
            uni_elig[output_busy] = False
            mkey = np.where(mc_elig, (idx[None, :] - self.mcast_ptr) % n, n)
            mc_pick = mkey.argmin(axis=1)
            has_mc = mkey.min(axis=1) < n
            gptr = np.asarray(self.grant_ptr, dtype=np.int64)
            ukey = np.where(uni_elig, (idx[None, :] - gptr[:, None]) % n, n)
            uni_pick = ukey.argmin(axis=1)
            has_uni = ukey.min(axis=1) < n
            if not (has_mc.any() or has_uni.any()):
                break
            requests_made = True
            grants_mc: list[list[int]] = [[] for _ in range(n)]
            grants_uni: list[list[int]] = [[] for _ in range(n)]
            for j in np.flatnonzero(has_mc).tolist():
                grants_mc[int(mc_pick[j])].append(j)
            for j in np.flatnonzero(has_uni & ~has_mc).tolist():
                grants_uni[int(uni_pick[j])].append(j)
            # ---- accept ----
            new_match = False
            for i in range(n):
                if input_busy[i]:
                    continue
                if grants_mc[i]:
                    # All multicast grants accepted: one data cell fans out.
                    mc_grants.setdefault(i, []).extend(grants_mc[i])
                    for j in grants_mc[i]:
                        output_busy[j] = True
                    input_busy[i] = True
                    new_match = True
                elif grants_uni[i]:
                    ptr = self.accept_ptr[i]
                    j = min(grants_uni[i], key=lambda jj: (jj - ptr) % n)
                    uni_match[i] = j
                    output_busy[j] = True
                    input_busy[i] = True
                    new_match = True
                    if iteration == 1:
                        self.grant_ptr[j] = (i + 1) % n
                        self.accept_ptr[i] = (j + 1) % n
            if not new_match:
                break
            rounds += 1
        return mc_grants, uni_match, rounds, requests_made

    def _decide(self, slot: int) -> tuple[ScheduleDecision, int]:
        """Build the slot's decision; the grant split is kept for
        :meth:`_transfer` (multicast and unicast queues drain differently)."""
        mc_grants, uni_match, rounds, requests_made = self._schedule()
        decision = ScheduleDecision()
        for i, outs in mc_grants.items():
            decision.add(i, tuple(outs))
        for i, j in uni_match.items():
            decision.add(i, (j,))
        decision.rounds = rounds
        decision.requests_made = requests_made
        self._pending = (mc_grants, uni_match)
        return decision, 0

    def _transfer(
        self, decision: ScheduleDecision, result: SlotResult, slot: int
    ) -> None:
        n = self.num_ports
        mc_grants, uni_match = self._pending
        self._pending = None
        # Multicast transmissions (+ residue/pointer bookkeeping).
        for i, outs in mc_grants.items():
            q = self.mc_queues[i]
            if not q:
                raise SchedulingError(f"multicast grant for empty queue {i}")
            pkt = q[0]
            residue = self._mc_residue[i]
            for j in outs:
                if j not in residue:
                    raise SchedulingError(
                        f"output {j} not in input {i}'s multicast residue"
                    )
                residue.discard(j)
                self._mc_mask[i, j] = False
                result.deliveries.append(
                    Delivery(packet=pkt, output_port=j, service_slot=slot)
                )
            if not residue:
                q.popleft()
                if q:
                    self._set_residue(i, q[0].destinations)
                # ESLIP rule: the shared pointer moves past an input only
                # when its HOL multicast cell completes.
                if self.mcast_ptr == i:
                    self.mcast_ptr = (i + 1) % n
        # Unicast transmissions.
        for i, j in uni_match.items():
            result.deliveries.append(
                Delivery(packet=self.bank.pop(i, j), output_port=j, service_slot=slot)
            )

    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Data cells per input: unicast cells + multicast packets."""
        return [
            cells + len(q)
            for cells, q in zip(self.bank.input_backlog, self.mc_queues)
        ]

    def total_backlog(self) -> int:
        total = self.bank.backlog()
        for i, q in enumerate(self.mc_queues):
            if q:
                total += len(self._mc_residue[i])
                total += sum(p.fanout for k, p in enumerate(q) if k > 0)
        return total

    def check_invariants(self) -> None:
        self.bank.check()
        for i, q in enumerate(self.mc_queues):
            if q:
                if not self._mc_residue[i]:
                    raise SchedulingError(f"empty residue with queued mcast at {i}")
                if not self._mc_residue[i] <= set(q[0].destinations):
                    raise SchedulingError(f"residue not subset of HOL fanout at {i}")
            elif self._mc_residue[i]:
                raise SchedulingError(f"residue without multicast queue at {i}")
