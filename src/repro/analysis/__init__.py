"""Closed-form analytical companions to the simulator.

Three groups are exported here:

* :mod:`repro.analysis.loads` — exact effective-load algebra for each
  traffic model, used by the sweep harness to place load points and by
  tests to validate the generators.
* :mod:`repro.analysis.queueing` — queueing-theory results the paper
  leans on: the Karol/Hluchyj/Morgan 2−√2 ≈ 0.586 saturation limit of the
  single-input-queued switch and the output-queued delay formula, both
  used to validate the simulator against theory.
* :mod:`repro.analysis.complexity` — the paper's §IV time/space
  complexity accounting of the FIFOMS scheduler and queue structures.

Two more are imported by module path only:

* :mod:`repro.analysis.burstiness` — the on/off chain's closed-form
  autocorrelation and dispersion, the oracle for the Fig. 8 burst
  generator.
* :mod:`repro.analysis.saturation` — a bisection over the offered load
  that brackets a switch's saturation point by simulation.
"""

from repro.analysis.loads import (
    bernoulli_arrival_probability,
    bernoulli_effective_load,
    bernoulli_mean_fanout,
    burst_e_off_for_load,
    burst_effective_load,
    uniform_arrival_probability,
    uniform_effective_load,
)
from repro.analysis.queueing import (
    KAROL_SATURATION,
    oq_average_delay,
    oq_average_queue,
    siq_saturation_load,
)
from repro.analysis.complexity import (
    address_cell_bits,
    fifoms_worst_case_rounds,
    queue_count_multicast_voq,
    queue_count_traditional_voq,
    scheduler_comparisons_per_round,
    space_bits_multicast_voq,
    space_bits_replicated_voq,
)

__all__ = [
    "bernoulli_mean_fanout",
    "bernoulli_effective_load",
    "bernoulli_arrival_probability",
    "uniform_effective_load",
    "uniform_arrival_probability",
    "burst_effective_load",
    "burst_e_off_for_load",
    "KAROL_SATURATION",
    "siq_saturation_load",
    "oq_average_delay",
    "oq_average_queue",
    "queue_count_traditional_voq",
    "queue_count_multicast_voq",
    "address_cell_bits",
    "space_bits_multicast_voq",
    "space_bits_replicated_voq",
    "scheduler_comparisons_per_round",
    "fifoms_worst_case_rounds",
]
