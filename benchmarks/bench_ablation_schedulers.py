"""ABL-SCHED — the wide scheduler shoot-out.

Everything in the registry on one Fig. 4-style workload: the paper's four
plus WBA, PIM, SIQ-FIFO, greedy multicast and MaxWeight. Two structured
comparisons fall out:

* fifoms vs siq-fifo isolates the VOQ structure (identical arbitration
  rule, different queue structure);
* fifoms vs greedy-mcast isolates the timestamp coordination (identical
  queue structure, different arbitration).
"""

from __future__ import annotations

from conftest import sweep_and_report


def test_ablation_scheduler_shootout(capsys):
    result = sweep_and_report("abl-schedulers", capsys)
    # Structure ablation: at the highest load both survive, the VOQ
    # version (fifoms) must not be worse than its single-queue twin.
    f_sat = result.saturation_load("fifoms")
    s_sat = result.saturation_load("siq-fifo")
    assert f_sat is None
    if s_sat is None:
        f = result.series("output_delay")["fifoms"]
        s = result.series("output_delay")["siq-fifo"]
        assert sum(f) <= sum(s) * 1.1
