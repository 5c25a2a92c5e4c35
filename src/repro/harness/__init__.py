"""Experiment harness reproducing the paper's evaluation (§4).

* :mod:`repro.harness.experiment` — run one session under one network
  condition and extract the paper's metrics.
* :mod:`repro.harness.series1` — Figure 1 (frame rate and smoothness vs
  RTT) and the §4.2 threshold budget.
* :mod:`repro.harness.series2` — Figure 2 (synchrony between sites vs RTT).
* :mod:`repro.harness.series3` — packet-loss sweep (journal extension).
* :mod:`repro.harness.ablations` — design-choice ablations (Algorithm 4,
  transport, local lag, send batching, adaptive lag).
* :mod:`repro.harness.extensions` — session size, late join, rollback and
  bandwidth (journal extensions and §5's rejected design).
* :mod:`repro.harness.report` — text tables mirroring the paper's figures.
* :mod:`repro.harness.reproduce` — the registry of all 13 experiments
  behind ``repro reproduce``; :mod:`repro.harness.validate` checks their
  results against the paper's claims.
"""

from repro.harness.experiment import ExperimentResult, PAPER_RTT_SWEEP, run_point
from repro.harness.series1 import Series1Row, run_series1
from repro.harness.series2 import Series2Row, run_series2
from repro.harness.series3 import Series3Row, run_series3

__all__ = [
    "ExperimentResult",
    "PAPER_RTT_SWEEP",
    "Series1Row",
    "Series2Row",
    "Series3Row",
    "run_point",
    "run_series1",
    "run_series2",
    "run_series3",
]
