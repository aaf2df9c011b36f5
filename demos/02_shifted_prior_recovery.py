"""Recover from a badly misspecified initial prior.

The assimilator guesses X_1 ~ N(-10, 1) while the data was generated from
N(0, 1).  Because the dynamics noise is large relative to the observation
noise, the misplaced ensemble snaps onto the exact-posterior track within a
couple of steps; the printout shows the error against the Kalman filter run
with the correct prior.
"""

import numpy as np

from ssls import (
    AnnealPlan,
    LinearGaussianSpec,
    SslsConfig,
    TrainConfig,
    assimilate,
    kalman_filter,
    make_linear_gaussian,
    make_schedule,
    shift_prior,
    simulate_reference,
)

model_true = make_linear_gaussian()
run = simulate_reference(model_true, 10, rng=np.random.default_rng(1234))

spec = LinearGaussianSpec(A=1.0, Q=5.0, H=1.0, R=0.2, m0=0.0, P0=1.0)
kalman_means, _ = kalman_filter(spec, run.observations)

model_guess = shift_prior(make_linear_gaussian(), -10.0)
config = SslsConfig(
    ensemble_size=500,
    train=TrainConfig(smoothing=0.1, epochs=60, batch_size=128),
    plan=AnnealPlan(betas=make_schedule(10), n_inner=20, step_size=0.01),
    init_epochs=250,
    seed=7,
)
print("guess prior N(-10, 1) vs true prior N(0, 1); assimilating ...")
records = assimilate(model_guess, run, config)

print(f"\n{'k':>3} {'ensemble':>9} {'kalman':>8} {'|error|':>8}")
for r in records:
    err = abs(r.mean[0] - kalman_means[r.step - 1, 0])
    print(f"{r.step:3d} {r.mean[0]:9.3f} {kalman_means[r.step - 1, 0]:8.3f} {err:8.3f}")

print("\nthe ten-unit initial shift is gone after the first dynamics step:")
print("the process noise (variance 5) dominates the misplaced prior while the")
print("precise observations (variance 0.2) re-anchor the ensemble.")
