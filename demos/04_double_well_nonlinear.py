"""Nonlinear measurements break the ensemble Kalman filter.

Observing the double-well state through y = exp(x - 0.6) + noise makes both
the dynamics and the measurement nonlinear.  The Kalman-type update only
sees the sample cross-covariance, which collapses where the exponential
flattens, so the EnKF stops responding exactly when the state sits in the
left well.  The Langevin update uses the exact likelihood gradient instead
and keeps tracking; so does the auxiliary particle filter, more slowly.
"""

import numpy as np

from ssls import (
    AnnealPlan,
    SslsConfig,
    TrainConfig,
    assimilate,
    make_double_well,
    make_schedule,
    run_apf,
    run_enkf,
    simulate_reference,
)

STEPS = 100
model = make_double_well(beta=0.3, dt=0.1, measurement="nonlinear",
                         obs_noise_std=0.2, gamma=0.6)
run = simulate_reference(model, STEPS, mutation_period=20, rng=np.random.default_rng(4))

config = SslsConfig(
    ensemble_size=500,
    train=TrainConfig(smoothing=0.1, epochs=60, batch_size=128),
    plan=AnnealPlan(betas=make_schedule(10), n_inner=20, step_size=0.005),
    init_epochs=250,
    seed=6,
)
print(f"assimilating {STEPS} steps of the exponential measurement model ...")
records = assimilate(model, run, config)
apf = run_apf(model, run, 1000, seed=7)
enkf = run_enkf(model, run, 1000, seed=8)

rows = {
    "langevin": [r.metrics.rmse for r in records],
    "apf": [r.metrics.rmse for r in apf],
    "enkf": [r.metrics.rmse for r in enkf],
}
print(f"\n{'method':>9} {'time-avg RMSE':>14}")
for name, vals in rows.items():
    print(f"{name:>9} {np.mean(vals):14.3f}")

print("\nper-step estimates around the flip at k=20:")
print(f"{'k':>3} {'reference':>10} {'langevin':>9} {'apf':>8} {'enkf':>8}")
for k in range(18, 34):
    print(f"{k + 1:3d} {run.states[k, 0]:10.3f} {records[k].mean[0]:9.3f} "
          f"{apf[k].mean[0]:8.3f} {enkf[k].mean[0]:8.3f}")
