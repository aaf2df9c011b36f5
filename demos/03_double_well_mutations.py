"""Respond to state mutations in a double-well potential.

The reference particle sits in one well of U(x) = x^4 - 2x^2 and is flipped
to the other well every 20 steps.  After each flip the predicted ensemble is
stranded in the wrong well, exactly where weighted-particle methods
degenerate: every auxiliary-filter weight is astronomically small and
resampling can only crawl through the tail.  The learned prediction score
extrapolates smoothly, so the annealed Langevin update pulls the ensemble
across the barrier within a step or two.
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

STEPS = 65
model = make_double_well(beta=0.3, dt=0.1, measurement="linear", obs_noise_std=0.1)
run = simulate_reference(model, STEPS, mutation_period=20, rng=np.random.default_rng(5))
print(f"mutations at steps {run.mutation_times}")

config = SslsConfig(
    ensemble_size=500,
    train=TrainConfig(smoothing=0.1, epochs=60, batch_size=128),
    plan=AnnealPlan(betas=make_schedule(10), n_inner=20, step_size=0.005),
    init_epochs=250,
    seed=11,
)
print("running the Langevin assimilator (about a minute) ...")
records = assimilate(model, run, config)
apf = run_apf(model, run, 1000, seed=12)
enkf = run_enkf(model, run, 1000, seed=13)

print(f"\n{'k':>3} {'reference':>10} {'langevin':>9} {'apf':>8} {'enkf':>8}")
for k in range(STEPS):
    marker = "  <- flip" if (k + 1) in run.mutation_times else ""
    print(f"{k + 1:3d} {run.states[k, 0]:10.3f} {records[k].mean[0]:9.3f} "
          f"{apf[k].mean[0]:8.3f} {enkf[k].mean[0]:8.3f}{marker}")

for name, means in (("langevin", [r.mean[0] for r in records]),
                    ("apf", [r.mean[0] for r in apf])):
    delays = []
    for t in run.mutation_times:
        horizon = min(19, STEPS - t)
        delay = next((j for j in range(1, horizon + 1)
                      if np.sign(means[t + j - 1]) == np.sign(run.states[t + j - 1, 0])),
                     horizon)
        delays.append(delay)
    print(f"{name}: steps to recover the sign after each flip: {delays}")
