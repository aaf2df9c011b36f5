"""Sequential Langevin data assimilation with learned ensemble scores.

The package alternates dynamics-model prediction, denoising-score-matching
estimation of the prediction score, and annealed Langevin Monte Carlo
posterior updates, alongside exact Kalman, ensemble Kalman, and auxiliary
particle filter baselines with a shared metrics suite.

Particle ensembles are plain ``(n, d)`` NumPy arrays throughout.  The names
below are the ones the demos and the README use; everything else lives in
its module (``ssls.models``, ``ssls.baselines``, ``ssls.metrics``, ...).
"""

from .assimilator import AssimilationRecord, SslsConfig, assimilate
from .baselines import LinearGaussianSpec, kalman_filter, run_apf, run_enkf
from .models import (
    ModelSpec,
    ReferenceRun,
    make_double_well,
    make_linear_gaussian,
    make_lorenz96,
    shift_prior,
    simulate_reference,
)
from .sampler import AnnealPlan, make_schedule
from .score_net import TrainConfig, train_score

__version__ = "0.1.0"

__all__ = [
    "AnnealPlan",
    "AssimilationRecord",
    "LinearGaussianSpec",
    "ModelSpec",
    "ReferenceRun",
    "SslsConfig",
    "TrainConfig",
    "assimilate",
    "kalman_filter",
    "make_double_well",
    "make_linear_gaussian",
    "make_lorenz96",
    "make_schedule",
    "run_apf",
    "run_enkf",
    "shift_prior",
    "simulate_reference",
    "train_score",
]
