"""Experiment harness: the runner and the E1..E10 reproduction suite.

Scenario workloads are built through the registry in :mod:`repro.scenarios`.
"""

from .runner import ExperimentResult, attach_baseline, run_with_sampler, sweep
from .suite import ALL_EXPERIMENTS, run_experiment

__all__ = [
    "ExperimentResult", "attach_baseline", "run_with_sampler", "sweep",
    "ALL_EXPERIMENTS", "run_experiment",
]
