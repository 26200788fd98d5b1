"""The paper's primary contribution: the FIFOMS scheduling algorithm
(Section III, Table 2) and the decision it hands the crossbar. The
Section II queue structure it schedules over is
:class:`~repro.kernel.state.SwitchState`; PAPER.md's literal data cells
and address cells are the reference model,
:mod:`repro.verify.reference`.
"""

from repro.core.matching import GrantSet, ScheduleDecision
from repro.core.fifoms import FIFOMSScheduler, TieBreak

__all__ = [
    "GrantSet",
    "ScheduleDecision",
    "FIFOMSScheduler",
    "TieBreak",
]
