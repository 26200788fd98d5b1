"""HW — the paper's §IV complexity claims, measured on the models.

Three exhibits:

1. Comparator-tree depth grows as ceil(log2 N) — the basis of the
   "O(1) with parallel comparators" time-complexity claim.
2. Worst-case convergence really is N rounds (the adversarial staircase
   executes on the gate-level control unit).
3. The space table: queues per input and buffer bits of the paper's
   structure vs the traditional 2^N−1 VOQ and vs payload replication.
"""

from __future__ import annotations

from repro.analysis.complexity import (
    address_cell_bits,
    queue_count_multicast_voq,
    queue_count_traditional_voq,
    space_bits_multicast_voq,
    space_bits_replicated_voq,
)
from repro.hw.comparator import MinComparatorTree
from repro.hw.scheduler_rtl import FIFOMSControlUnit
from repro.packet import Packet
from repro.report.ascii import format_table
from repro.verify.reference import ReferenceFIFOMS


def _staircase_ports(n: int) -> ReferenceFIFOMS:
    model = ReferenceFIFOMS(n)
    for i in range(n):
        for k in range(i + 1):
            model.preprocess(Packet(i, (k,), k), k)
    return model


def test_comparator_depth_scaling(report):
    rows = []
    for n in (4, 8, 16, 32, 64, 128):
        tree = MinComparatorTree(n)
        tree.evaluate(list(range(n)))
        rows.append([n, tree.stats.depth, tree.stats.comparisons])
        assert tree.stats.depth == (n - 1).bit_length()
    report(
        "\n"
        + format_table(
            ["N", "tree depth (levels)", "comparators"],
            rows,
            title="[hw] min-comparator tree: depth = ceil(log2 N) (§IV.C)",
        )
    )


def test_worst_case_rounds_on_control_unit(report):
    rows = []
    for n in (4, 8, 16):
        unit = FIFOMSControlUnit(n)
        decision = unit.schedule(_staircase_ports(n))
        rows.append([n, decision.rounds, unit.levels_per_round])
        assert decision.rounds == n  # the §IV.C worst case, realized
    report(
        "\n"
        + format_table(
            ["N", "rounds (worst case)", "comparator levels/round"],
            rows,
            title="[hw] adversarial staircase: FIFOMS converges in exactly N rounds",
        )
    )


def test_space_complexity_table(report):
    rows = []
    packets, fanout = 1000, 8.0
    for n in (8, 16, 32):
        ours = space_bits_multicast_voq(packets, fanout)
        repl = space_bits_replicated_voq(packets, fanout)
        rows.append(
            [
                n,
                queue_count_multicast_voq(n),
                queue_count_traditional_voq(n),
                address_cell_bits(n),
                f"{ours / 8 / 1024:.0f} KiB",
                f"{repl / 8 / 1024:.0f} KiB",
                f"{repl / ours:.2f}x",
            ]
        )
    report(
        "\n"
        + format_table(
            ["N", "queues (ours)", "queues (2^N-1)", "addr cell bits",
             "buffer (ours)", "buffer (replicated)", "saving"],
            rows,
            title=(
                "[hw] §IV.B space: 1000 queued packets, mean fanout 8 "
                "(payload 512 B)"
            ),
        )
    )
