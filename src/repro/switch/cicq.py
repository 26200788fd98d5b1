"""CICQ — buffered crossbar (Combined Input-Crosspoint Queued) switch.

The third classic architecture family, included as an extension: a small
buffer at every crosspoint decouples the input and output arbiters, so
scheduling needs **no centralized matching at all** — each input and each
output runs an independent round-robin every slot:

* input i picks one non-empty VOQ whose crosspoint buffer (i, j) has
  room and forwards one cell into the crosspoint (round-robin over j);
* output j picks one non-empty crosspoint buffer in its column and
  drains one cell to the line (round-robin over i).

With even one-cell crosspoint buffers this matches iSLIP-class
performance without iterations — the engineering trade the literature
(e.g. Rojas-Cessa et al.) made popular. Multicast is handled by splitting
into copies at arrival, as the paper does for iSLIP, so the same
workloads drive it directly.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError, SchedulingError
from repro.packet import Delivery, Packet
from repro.switch.base import BaseSwitch, SlotResult
from repro.switch.voq_bank import UnicastVOQBank

__all__ = ["BufferedCrossbarSwitch"]


class BufferedCrossbarSwitch(BaseSwitch):
    """N×N buffered crossbar with per-crosspoint FIFOs of depth ``xb``."""

    name = "cicq"
    #: Deliveries are recorded when the output pulls from its crosspoint
    #: buffers, decoupled from the input-side matching — only the
    #: one-cell-per-output half of the crossbar discipline holds.
    matching_discipline = "output"

    def __init__(self, num_ports: int, *, crosspoint_depth: int = 1) -> None:
        super().__init__(num_ports)
        if crosspoint_depth < 1:
            raise ConfigurationError(
                f"crosspoint_depth must be >= 1, got {crosspoint_depth}"
            )
        self.crosspoint_depth = crosspoint_depth
        n = num_ports
        self.bank = UnicastVOQBank(n)
        # Crosspoint FIFOs: xpoint[i][j] holds cells in flight; _xp_cells
        # counts them all for the backlog sums.
        self.xpoint: list[list[deque[Packet]]] = [
            [deque() for _ in range(n)] for _ in range(n)
        ]
        self._xp_cells = 0
        self._in_ptr = [0] * n  # per-input RR over outputs
        self._out_ptr = [0] * n  # per-output RR over inputs
        # Bit-parallel eligibility rows for the arbiters, beside the
        # bank's request rows: one python int per port, bit j of
        # _xp_full[i] = crosspoint (i, j) at depth, bit i of _xp_col[j] =
        # crosspoint (i, j) non-empty. The arbiters maintain both.
        self._full_mask = (1 << n) - 1
        self._xp_full = [0] * n
        self._xp_col = [0] * n

    # ------------------------------------------------------------------ #
    def _accept(self, packet: Packet, slot: int) -> None:
        push = self.bank.push
        for j in packet.destinations:
            push(packet, j)

    def _schedule_and_transmit(self, slot: int) -> SlotResult:
        """Run both round-robin arbiters for one slot, bit-parallel.

        The arbiters are independent across their ports and each port row
        of the eligibility matrix fits one machine word at practical N,
        so a port's whole pointer scan is ``rotate(mask, ptr)`` plus
        lowest-set-bit (SWAR) — the first eligible cell at or after the
        pointer — and "nothing eligible" costs one integer test instead
        of an N-step scan. Only the matched deque pops stay per-port
        python — the packet objects have to move.
        """
        n = self.num_ports
        result = SlotResult(slot=slot, rounds=1, requests_made=False)
        full_mask = self._full_mask
        voq_rows = self.bank.rows
        pop = self.bank.pop
        xp_full = self._xp_full
        xp_col = self._xp_col
        depth = self.crosspoint_depth
        # --- input arbitration: VOQ -> crosspoint ---
        for i in range(n):
            mask = voq_rows[i] & ~xp_full[i]
            if not mask:
                continue
            result.requests_made = True
            ptr = self._in_ptr[i]
            spun = ((mask >> ptr) | (mask << (n - ptr))) & full_mask
            j = (ptr + (spun & -spun).bit_length() - 1) % n
            xq = self.xpoint[i][j]
            xq.append(pop(i, j))
            self._xp_cells += 1
            if len(xq) >= depth:
                xp_full[i] |= 1 << j
            xp_col[j] |= 1 << i
            self._in_ptr[i] = (j + 1) % n
        # --- output arbitration: crosspoint -> line ---
        deliveries = result.deliveries
        for j in range(n):
            mask = xp_col[j]
            if not mask:
                continue
            result.requests_made = True
            ptr = self._out_ptr[j]
            spun = ((mask >> ptr) | (mask << (n - ptr))) & full_mask
            i = (ptr + (spun & -spun).bit_length() - 1) % n
            xq = self.xpoint[i][j]
            pkt = xq.popleft()
            self._xp_cells -= 1
            if len(xq) < depth:
                xp_full[i] &= ~(1 << j)
            if not xq:
                xp_col[j] &= ~(1 << i)
            deliveries.append(
                Delivery(packet=pkt, output_port=j, service_slot=slot)
            )
            self._out_ptr[j] = (i + 1) % n
        return result

    # ------------------------------------------------------------------ #
    def queue_sizes(self) -> list[int]:
        """Queued copies per input (VOQ side, comparable to iSLIP)."""
        return list(self.bank.input_backlog)

    def crosspoint_occupancy(self) -> int:
        """Cells currently held inside the fabric."""
        return self._xp_cells

    def total_backlog(self) -> int:
        return self.bank.backlog() + self._xp_cells

    def check_invariants(self) -> None:
        self.bank.check()
        if self._xp_cells != sum(len(xq) for row in self.xpoint for xq in row):
            raise SchedulingError("crosspoint occupancy drift")
        for i in range(self.num_ports):
            for j in range(self.num_ports):
                if len(self.xpoint[i][j]) > self.crosspoint_depth:
                    raise SchedulingError(
                        f"crosspoint ({i}, {j}) overflow: "
                        f"{len(self.xpoint[i][j])} > {self.crosspoint_depth}"
                    )
        # The bit-parallel rows the arbiters match on must mirror the
        # crosspoint deques exactly.
        n = self.num_ports
        for i in range(n):
            full = sum(
                1 << j
                for j in range(n)
                if len(self.xpoint[i][j]) >= self.crosspoint_depth
            )
            if full != self._xp_full[i]:
                raise SchedulingError(
                    f"crosspoint full-bit drift at input {i}"
                )
        for j in range(n):
            col = sum(1 << i for i in range(n) if self.xpoint[i][j])
            if col != self._xp_col[j]:
                raise SchedulingError(
                    f"crosspoint column-bit drift at output {j}"
                )
