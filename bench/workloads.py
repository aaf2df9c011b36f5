"""The benchmark's four workloads.

A workload is built from the benchmark seed (its set-up), then runs rounds:
``run()`` makes the program's filtering calls on the same inputs each time
and returns their outputs, and ``check()`` judges those outputs against
``checks.py``.  Every call into the package goes through a module attribute
(``assimilator.assimilate``, ``cli.compare_methods``, ...), so the tracer's
wrappers see it.

Accuracy is reported as a ratio to a reference estimate that the benchmark
computes itself from the same inputs (exact Kalman, exact grid filter, or
the raw observations).  Absolute time-averaged RMSE over ten 1-d steps
spreads by 20-45% across seeds; the ratio cancels the part that comes from
the draw of the reference and keeps the part that comes from the filter.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ssls import assimilator, baselines, cli, models
from ssls.assimilator import SslsConfig
from ssls.sampler import AnnealPlan, make_schedule
from ssls.score_net import TrainConfig

import checks

ENSEMBLE = 500
OUT = Path(__file__).resolve().parent.parent / ".bench_out"  # inside the checkout


@dataclass
class Verdict:
    """What ``check()`` found in one round's outputs."""

    ok: list[bool]  # one per assimilated observation per method
    run_checks: dict[str, bool]
    rmse: float  # ratio to the workload's reference estimate
    crps: float
    digest: str  # SHA-1 of the records' means
    info: dict = field(default_factory=dict)


def _seeds(seed: int, k: int):
    """``k`` independent child seed sequences of the workload seed."""
    return np.random.SeedSequence(seed).spawn(k)


def _int_seed(seq) -> int:
    return int(seq.generate_state(1)[0])


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _means(records):
    return np.array([r.mean for r in records])


def _metric_rows_agree(records) -> bool:
    """The program's per-step RMSE equals the benchmark's own."""
    own = checks.rmse_series(_means(records), np.array([r.reference for r in records]))
    return bool(np.allclose([r.metrics.rmse for r in records], own, rtol=1e-12, atol=0.0))


def _ssls_config(seed, step_size, epochs, batch_size, init_epochs) -> SslsConfig:
    return SslsConfig(
        ensemble_size=ENSEMBLE,
        train=TrainConfig(smoothing=0.1, epochs=epochs, batch_size=batch_size),
        plan=AnnealPlan(betas=make_schedule(10), n_inner=20, step_size=step_size),
        init_epochs=init_epochs,
        seed=seed,
    )


class LgExact:
    """Linear-Gaussian random walk, d=1: the one scenario with an exact posterior."""

    name = "lg_exact"
    steps = 10
    operations = steps
    # The model's documented constants, for the benchmark's own Kalman recursion.
    q, r, m0, p0 = 5.0, 0.2, 0.0, 1.0

    def __init__(self, seed: int):
        ref, filt = _seeds(seed, 2)
        self.model = models.make_linear_gaussian()
        self.reference = models.simulate_reference(
            self.model, self.steps, rng=np.random.default_rng(ref))
        # Acceptance-suite settings (tests/test_acceptance.py, lg_ssls_config).
        self.config = _ssls_config(_int_seed(filt), 0.01, 60, 128, 250)

    def run(self):
        return {"ssls": assimilator.assimilate(self.model, self.reference, self.config)}

    def check(self, out) -> Verdict:
        records = out["ssls"]
        states = self.reference.states[:, 0]
        k_mean, k_var = checks.scalar_kalman(
            self.reference.observations[:, 0], self.q, self.r, self.m0, self.p0)
        means = _means(records)[:, 0]
        variances = np.array([rec.std[0] ** 2 for rec in records])
        ok = checks.kalman_tracking(means, variances, k_mean, k_var, ENSEMBLE)
        rmse = float(np.mean([rec.metrics.rmse for rec in records]))
        crps = float(np.mean([rec.metrics.crps for rec in records]))
        ref_rmse = float(np.mean(np.abs(k_mean - states)))
        ref_crps = float(np.mean(checks.gaussian_crps(k_mean, np.sqrt(k_var), states)))
        return Verdict(ok, {"metric_rows": _metric_rows_agree(records)},
                       rmse / ref_rmse, crps / ref_crps, _digest(means),
                       {"rmse_abs": rmse, "crps_abs": crps, "kalman_rmse": ref_rmse})


class DwFlip:
    """Double well with ``exp(x - 0.6)`` measurements and one sign flip."""

    name = "dw_flip"
    steps = 40
    operations = 2 * steps  # SSLS and EnKF
    flip = 20  # the state is negated after this step
    # Stated recovery window, steps flip+1 .. flip+window: SSLS took 3-8
    # steps to reach the reference's well on 40 seeds.
    window = 16
    beta, dt, gamma, obs_std = 0.3, 0.1, 0.6, 0.2

    def __init__(self, seed: int):
        ref, filt, enkf = _seeds(seed, 3)
        self.model = models.make_double_well(
            beta=self.beta, dt=self.dt, measurement="nonlinear",
            obs_noise_std=self.obs_std, gamma=self.gamma)
        self.reference = models.simulate_reference(
            self.model, self.steps, mutation_period=self.flip,
            rng=np.random.default_rng(ref))
        # Acceptance-suite settings (dw_ssls_config).
        self.config = _ssls_config(_int_seed(filt), 0.005, 60, 128, 250)
        self.enkf_seed = _int_seed(enkf)

    def run(self):
        return {
            "ssls": assimilator.assimilate(self.model, self.reference, self.config),
            "enkf": baselines.run_enkf(self.model, self.reference, ENSEMBLE, seed=self.enkf_seed),
        }

    def check(self, out) -> Verdict:
        ssls, enkf = out["ssls"], out["enkf"]
        states = self.reference.states[:, 0]
        obs = self.reference.observations[:, 0]
        flips = (self.flip,)
        means = _means(ssls)[:, 0]
        ok = checks.sign_test(means, states, flips, self.window)
        ok += checks.finite_rows(_means(enkf))
        grid_mean, grid, post, cell = checks.double_well_grid_filter(
            obs, flips, self.beta, self.dt, self.gamma, self.obs_std, -1.0, 0.15)
        # Accuracy against the exact posterior, outside the recovery window.
        kept = [k for k in range(self.steps) if not self.flip <= k < self.flip + self.window]
        ssls_err = np.abs(means - states)[kept]
        grid_err = np.abs(grid_mean - states)[kept]
        ssls_crps = np.array([ssls[k].metrics.crps for k in kept])
        grid_crps = np.array([checks.grid_crps(grid, post[k], cell, states[k]) for k in kept])
        rmse = float(np.mean([r.metrics.rmse for r in ssls]))
        enkf_rmse = float(np.mean([r.metrics.rmse for r in enkf]))
        wrong = [k + 1 for k in range(self.steps) if np.sign(means[k]) != np.sign(states[k])]
        return Verdict(
            ok,
            {"metric_rows": _metric_rows_agree(ssls) and _metric_rows_agree(enkf),
             "ssls_beats_enkf": rmse < enkf_rmse},
            float(ssls_err.mean() / grid_err.mean()),
            float(ssls_crps.mean() / grid_crps.mean()),
            _digest(means, _means(enkf)),
            {"rmse_abs": rmse, "enkf_rmse": enkf_rmse, "wrong_sign_steps": wrong,
             "mutation_times": list(self.reference.mutation_times)},
        )


class L96:
    """Lorenz-96, d=20, F=8: the high-dimensional case."""

    name = "l96_d20"
    steps = 10
    operations = steps

    def __init__(self, seed: int):
        ref, filt = _seeds(seed, 2)
        self.model = models.make_lorenz96(dim=20, forcing=8.0)
        self.reference = models.simulate_reference(
            self.model, self.steps, rng=np.random.default_rng(ref))
        # Acceptance-suite settings (lorenz_ssls_config, n=500).
        self.config = _ssls_config(_int_seed(filt), 0.01, 50, 100, 150)

    def run(self):
        return {"ssls": assimilator.assimilate(self.model, self.reference, self.config)}

    def check(self, out) -> Verdict:
        records = out["ssls"]
        states, obs = self.reference.states, self.reference.observations
        means = _means(records)
        rmse = float(np.mean([r.metrics.rmse for r in records]))
        crps = float(np.mean([r.metrics.crps for r in records]))
        obs_rmse = checks.observation_rmse(obs, states)
        obs_mae = float(np.mean(np.abs(obs - states)))  # CRPS of a point forecast
        return Verdict(
            checks.finite_rows(means),
            {"metric_rows": _metric_rows_agree(records), "ssls_beats_observations": rmse < obs_rmse},
            rmse / obs_rmse, crps / obs_mae, _digest(means),
            {"rmse_abs": rmse, "crps_abs": crps, "obs_rmse": obs_rmse},
        )


class FiltersCli:
    """``ssls compare`` with Kalman, EnKF and APF on a long linear-Gaussian run."""

    name = "filters_cli"
    steps = 2000
    ensemble = 1000
    methods = ("kalman", "enkf", "apf")
    operations = len(methods) * steps
    mc_tolerance = 8.0
    q, r, m0, p0 = LgExact.q, LgExact.r, LgExact.m0, LgExact.p0

    def __init__(self, seed: int):
        out_dir = OUT / self.name
        out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = out_dir / "config.json"
        self.config_path.write_text(json.dumps({
            "experiment": "linear_gaussian",
            "methods": list(self.methods),
            "ensemble_size": self.ensemble,
            "steps": self.steps,
            "seed": seed,
            "out_dir": str(out_dir),
        }))
        cli.load_config(self.config_path, compare=True)
        self.drawn = None

    def run(self):
        # Keep the reference run the program draws, for the benchmark's own
        # Kalman recursion; the wrapper only hands the result back.
        real = cli.simulate_reference

        def keep(*args, **kwargs):
            self.drawn = real(*args, **kwargs)
            return self.drawn

        cli.simulate_reference = keep
        try:
            return cli.compare_methods(self.config_path)
        finally:
            cli.simulate_reference = real

    def check(self, out) -> Verdict:
        states = self.drawn.states[:, 0]
        k_mean, k_var = checks.scalar_kalman(
            self.drawn.observations[:, 0], self.q, self.r, self.m0, self.p0)
        header, rows = checks.read_csv(out / "comparison.csv")
        column = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        shapes_ok = len(rows) == self.steps and column["step"] == list(range(1, self.steps + 1))
        ok, rmse, crps, digest_parts, errors = [], [], [], [], {}
        for m in self.methods:
            means = column.get(f"mean_0_{m}", [])[:self.steps]
            digest_parts.append(means)
            ok += [False] * (self.steps - len(means))  # a missing row fails its step
            if m == "kalman":
                ok += checks.exact_match(means, k_mean)
                continue
            if m == "enkf":
                ok += checks.within_posterior(means, k_mean, k_var)
            else:
                # The APF can collapse onto one particle several posterior
                # deviations away (seed 104, step 705), so its accuracy is
                # judged by the median step alone.
                ok += checks.finite_rows(means)
            n = len(means)
            errors[m] = checks.median_standard_errors(means, k_mean[:n], k_var[:n], self.ensemble)
            per_step = checks.read_csv(out / f"metrics_{m}.csv")[1]
            shapes_ok &= len(per_step) == self.steps
            rmse.append(np.mean([row[1] for row in per_step]))
            crps.append(np.mean([row[4] for row in per_step]))
        ref_rmse = float(np.mean(np.abs(k_mean - states)))
        ref_crps = float(np.mean(checks.gaussian_crps(k_mean, np.sqrt(k_var), states)))
        return Verdict(
            ok,
            {"one_row_per_step": bool(shapes_ok),
             "reference_column": column["ref_0"] == list(states),
             # Monte-Carlo tolerance: the typical step is within 8 standard errors.
             "monte_carlo": all(z <= self.mc_tolerance for z in errors.values())},
            float(np.mean(rmse)) / ref_rmse, float(np.mean(crps)) / ref_crps,
            _digest(*digest_parts),
            {"enkf_apf_rmse_abs": float(np.mean(rmse)), "kalman_rmse": ref_rmse,
             **{f"{m}_median_standard_errors": z for m, z in errors.items()}},
        )


WORKLOADS = {w.name: w for w in (LgExact, DwFlip, L96, FiltersCli)}


def expected_calls(wl) -> dict:
    """Call counts per round worked out from the workload's SSLS configuration."""
    cfg = getattr(wl, "config", None)
    if cfg is None:
        return {"score_net.forward_calls": 0, "score_net.dsm_grad_calls": 0}
    epochs = cfg.init_epochs + (wl.steps - 1) * cfg.train.epochs
    return {
        "score_net.forward_calls": cfg.plan.num_temperatures * cfg.plan.n_inner * wl.steps,
        "score_net.dsm_grad_calls": epochs * math.ceil(cfg.ensemble_size / cfg.train.batch_size),
    }
