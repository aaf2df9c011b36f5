"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live).

The heavy scenario runs (double-well mutations, Lorenz-96 trends) take a few
minutes each; the whole module runs in roughly twenty minutes on two cores.
"""

import json
from math import isfinite

import numpy as np
import pytest
from scipy.special import ndtr

from ssls.assimilator import SslsConfig, assimilate
from ssls.baselines import (
    LinearGaussianSpec,
    kalman_filter,
    kalman_step,
    run_apf,
    run_enkf,
    systematic_resample,
)
from ssls.cli import run_experiment
from ssls.models import (
    make_double_well,
    make_linear_gaussian,
    make_lorenz96,
    shift_prior,
    simulate_reference,
)
from ssls.sampler import AnnealPlan, almc_update, make_schedule
from ssls.score_net import ScoreNetwork, TrainConfig, dsm_loss_gradient, train_score
from ssls.metrics import crps

LG_SPEC = dict(A=1.0, Q=5.0, H=1.0, R=0.2, m0=0.0, P0=1.0)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def lg_ssls_config(seed: int, store: bool = False) -> SslsConfig:
    return SslsConfig(
        ensemble_size=500,
        train=TrainConfig(smoothing=0.1, epochs=60, batch_size=128),
        plan=AnnealPlan(betas=make_schedule(10), n_inner=20, step_size=0.01),
        init_epochs=250,
        seed=seed,
        store_ensembles=store,
    )


def dw_ssls_config(seed: int) -> SslsConfig:
    return SslsConfig(
        ensemble_size=500,
        train=TrainConfig(smoothing=0.1, epochs=60, batch_size=128),
        plan=AnnealPlan(betas=make_schedule(10), n_inner=20, step_size=0.005),
        init_epochs=250,
        seed=seed,
    )


def lorenz_ssls_config(seed: int, n: int) -> SslsConfig:
    return SslsConfig(
        ensemble_size=n,
        train=TrainConfig(smoothing=0.1, epochs=50, batch_size=100),
        plan=AnnealPlan(betas=make_schedule(10), n_inner=20, step_size=0.01),
        init_epochs=150,
        seed=seed,
    )


@pytest.fixture(scope="module")
def lg_setup():
    model = make_linear_gaussian()
    run = simulate_reference(model, 10, rng=np.random.default_rng(1234))
    spec = LinearGaussianSpec(**LG_SPEC)
    means, covs = kalman_filter(spec, run.observations)
    return model, run, means, covs


@pytest.fixture(scope="module")
def lg_shifted_records(lg_setup):
    _, run, _, _ = lg_setup
    model = shift_prior(make_linear_gaussian(), -10.0)
    return assimilate(model, run, lg_ssls_config(seed=7, store=True))


def test_criterion_01_linear_gaussian_tracking(lg_setup):
    """SSLS tracks the exact Kalman posterior with exact initialization."""
    model, run, means, covs = lg_setup
    records = assimilate(model, run, lg_ssls_config(seed=7))
    n = 500
    worst_mean, worst_var = 0.0, 0.0
    mean_ok = var_ok = True
    for r in records:
        k_mean, k_var = means[r.step - 1, 0], covs[r.step - 1, 0, 0]
        bound = 3.0 * np.sqrt(k_var) / np.sqrt(n) + 0.1
        mean_err = abs(r.mean[0] - k_mean)
        worst_mean = max(worst_mean, mean_err / bound)
        mean_ok &= mean_err <= bound
        if r.step >= 3:
            var_rel = abs(r.std[0] ** 2 - k_var) / k_var
            worst_var = max(worst_var, var_rel)
            var_ok &= var_rel <= 0.30
    passed = mean_ok and var_ok
    report(1, passed, f"worst mean error {worst_mean:.2f} of bound, "
                      f"worst variance deviation {worst_var:.1%} (allowed 30%)")
    assert passed


def test_criterion_02_shifted_prior_recovery(lg_setup, lg_shifted_records):
    """A N(-10,1) guess prior reconverges to the exact-init Kalman mean."""
    _, _, means, _ = lg_setup
    errors = {r.step: abs(r.mean[0] - means[r.step - 1, 0]) for r in lg_shifted_records}
    passed = all(errors[k] < 0.5 for k in range(5, 11))
    report(2, passed, "errors from step 5 on: "
           + ", ".join(f"{errors[k]:.3f}" for k in range(5, 11)))
    assert passed


def _recovery_delays(step_means, run, window: int = 19):
    """Steps until the estimate sign matches the reference after each flip."""
    refs = run.states[:, 0]
    delays = []
    for t in run.mutation_times:
        horizon = min(window, len(run) - t)
        if horizon < 1:
            continue
        delay = horizon
        for j in range(1, horizon + 1):
            if np.sign(step_means[t + j - 1]) == np.sign(refs[t + j - 1]):
                delay = j
                break
        delays.append(delay)
    return delays


def test_criterion_03_double_well_mutation_response():
    """SSLS recovers the flipped sign within 3 steps; APF is no faster."""
    steps, seeds = 103, (0, 1, 2)
    ssls_delays, apf_delays = [], []
    for i in seeds:
        model = make_double_well(beta=0.3, dt=0.1, measurement="linear", obs_noise_std=0.1)
        run = simulate_reference(model, steps, mutation_period=20,
                                 rng=np.random.default_rng(300 + i))
        records = assimilate(model, run, dw_ssls_config(seed=500 + i))
        ssls_delays += _recovery_delays([r.mean[0] for r in records], run)
        apf = run_apf(model, run, 1000, seed=700 + i)
        apf_delays += _recovery_delays([r.mean[0] for r in apf], run)
    frac_fast = np.mean([d <= 3 for d in ssls_delays])
    ssls_mean, apf_mean = np.mean(ssls_delays), np.mean(apf_delays)
    passed = frac_fast >= 0.9 and apf_mean >= ssls_mean
    report(3, passed, f"SSLS recovered within 3 steps after {frac_fast:.0%} of "
                      f"{len(ssls_delays)} mutations; mean delay SSLS {ssls_mean:.2f} "
                      f"vs APF {apf_mean:.2f}")
    assert passed


def test_criterion_04_nonlinear_measurement_superiority():
    """SSLS and APF each beat EnKF on RMSE under the exponential operator."""
    steps, seeds = 100, (0, 1, 2)
    rmse = {"ssls": [], "apf": [], "enkf": []}
    for i in seeds:
        model = make_double_well(beta=0.3, dt=0.1, measurement="nonlinear",
                                 obs_noise_std=0.2, gamma=0.6)
        run = simulate_reference(model, steps, mutation_period=20,
                                 rng=np.random.default_rng(400 + i))
        records = assimilate(model, run, dw_ssls_config(seed=600 + i))
        rmse["ssls"].append(np.mean([r.metrics.rmse for r in records]))
        apf = run_apf(model, run, 1000, seed=800 + i)
        rmse["apf"].append(np.mean([r.metrics.rmse for r in apf]))
        enkf = run_enkf(model, run, 1000, seed=900 + i)
        rmse["enkf"].append(np.mean([r.metrics.rmse for r in enkf]))
    avg = {m: float(np.mean(v)) for m, v in rmse.items()}
    passed = avg["ssls"] < avg["enkf"] and avg["apf"] < avg["enkf"]
    report(4, passed, f"time-averaged RMSE over 3 seeds: ssls {avg['ssls']:.3f}, "
                      f"apf {avg['apf']:.3f}, enkf {avg['enkf']:.3f}")
    assert passed


def test_criterion_05_lorenz96_ensemble_size_trend():
    """Larger SSLS ensembles give lower RMSE and higher coverage."""
    seeds = (0, 1, 2)
    rmse = {100: [], 500: []}
    cover = {100: [], 500: []}
    model = make_lorenz96()
    for i in seeds:
        run = simulate_reference(model, 50, rng=np.random.default_rng(1000 + i))
        for n in (100, 500):
            records = assimilate(model, run, lorenz_ssls_config(seed=2000 + i, n=n))
            rmse[n].append(np.mean([r.metrics.rmse for r in records]))
            cover[n].append(np.mean([r.metrics.coverage for r in records]))
    rmse_small, rmse_large = np.mean(rmse[100]), np.mean(rmse[500])
    cov_small, cov_large = np.mean(cover[100]), np.mean(cover[500])
    passed = rmse_large < rmse_small and cov_large > cov_small
    report(5, passed, f"RMSE n=500 {rmse_large:.3f} < n=100 {rmse_small:.3f}; "
                      f"coverage n=500 {cov_large:.3f} > n=100 {cov_small:.3f}")
    assert passed


def test_criterion_06_score_matching_analytic_oracles():
    """Trained scores reproduce analytic smoothed-Gaussian scores."""
    cfg = TrainConfig(smoothing=0.5, epochs=120, batch_size=128, learning_rate=2e-3)

    data = np.random.default_rng(100).standard_normal((10_000, 1))
    net = train_score(data, cfg, rng=np.random.default_rng(0))
    xs = np.linspace(-2.0, 2.0, 81)[:, None]
    err_standard = float(np.abs(net.forward(xs) + xs / 1.25).max())

    data = 3.0 + 2.0 * np.random.default_rng(7).standard_normal((10_000, 1))
    net = train_score(data, cfg, rng=np.random.default_rng(8))
    xs = np.linspace(1.0, 5.0, 81)[:, None]
    err_shifted = float(np.abs(net.forward(xs) + (xs - 3.0) / 4.25).max())

    rng = np.random.default_rng(42)
    component = rng.integers(0, 2, 10_000) * 2 - 1
    data = (component + 0.15 * rng.standard_normal(10_000))[:, None]
    net = train_score(data, cfg, rng=np.random.default_rng(5))
    kernel_var = 0.15**2 + (cfg.smoothing * data.std()) ** 2
    lo, hi = np.quantile(data, [0.05, 0.95])
    xs = np.linspace(lo, hi, 121)
    log_w = np.stack([-((xs - 1.0) ** 2), -((xs + 1.0) ** 2)]) / (2.0 * kernel_var)
    log_w -= log_w.max(axis=0)
    w = np.exp(log_w)
    w /= w.sum(axis=0)
    oracle = (w[0] * (1.0 - xs) + w[1] * (-1.0 - xs)) / kernel_var
    mixture_rmse = float(np.sqrt(np.mean((net.forward(xs[:, None]).ravel() - oracle) ** 2)))

    passed = err_standard < 0.1 and err_shifted < 0.1 and mixture_rmse < 0.15
    report(6, passed, f"max errors: N(0,1) {err_standard:.3f}, N(3,4) {err_shifted:.3f} "
                      f"(allowed 0.1); mixture RMSE {mixture_rmse:.3f} (allowed 0.15)")
    assert passed


def test_criterion_07_sampler_conjugate_posterior():
    """ALMC with analytic scores samples the closed-form Gaussian posterior."""
    rng = np.random.default_rng(7)
    n = 2000
    predicted = rng.standard_normal((n, 1))
    y, obs_var = 0.5, 0.2
    plan = AnnealPlan(betas=make_schedule(10), n_inner=50, step_size=0.01)
    out = almc_update(predicted, lambda z: -z, lambda z: (y - z) / obs_var, plan, rng)
    post_mean = (y / obs_var) / (1.0 + 1.0 / obs_var)
    post_var = 1.0 / (1.0 + 1.0 / obs_var)
    se = np.sqrt(post_var / n)
    mean_err = abs(float(out.mean()) - post_mean)
    var_rel = abs(float(out.var(ddof=1)) - post_var) / post_var
    passed = mean_err <= 3.0 * se and var_rel <= 0.15
    report(7, passed, f"mean error {mean_err:.4f} (3se {3 * se:.4f}), "
                      f"variance deviation {var_rel:.1%} (allowed 15%)")
    assert passed


def test_criterion_08_oracle_and_property_suite(tmp_path):
    """Gradient, CRPS, resampling, Kalman, and determinism oracles."""
    results = {}

    # DSM gradient vs central finite differences
    rng = np.random.default_rng(11)
    grad_ok = True
    for _ in range(5):
        d = int(rng.integers(1, 4))
        hidden = tuple(rng.integers(2, 9, size=2))
        sizes = (d, *hidden, d)
        net = ScoreNetwork(
            weights=[rng.normal(size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
            biases=[rng.normal(size=o) for o in sizes[1:]],
            shift=np.zeros(d),
            scale=np.ones(d),
        )
        batch = rng.normal(size=(3, d))
        noise = rng.normal(size=(3, d))
        _, w_grads, b_grads = dsm_loss_gradient(net, batch, 0.5, noise)
        flat = np.concatenate([g.ravel() for g in w_grads + b_grads])
        direction = rng.normal(size=flat.shape)
        direction /= np.linalg.norm(direction)
        h = 1e-5

        def loss_at(offset, net=net, batch=batch, noise=noise):
            # A new network with the parameters shifted by offset.
            params, pos = [], 0
            for arr in net.weights + net.biases:
                params.append(arr + offset[pos : pos + arr.size].reshape(arr.shape))
                pos += arr.size
            layers = len(net.weights)
            shifted = ScoreNetwork(params[:layers], params[layers:], net.shift, net.scale)
            return dsm_loss_gradient(shifted, batch, 0.5, noise)[0]

        fd = (loss_at(h * direction) - loss_at(-h * direction)) / (2 * h)
        grad_ok &= abs(float(flat @ direction) - fd) <= 1e-4 * max(1.0, abs(fd))
    results["gradient"] = grad_ok

    # CRPS pairwise form vs exact integral of the squared CDF difference
    from test_metrics import crps_integral

    crps_ok = True
    for _ in range(50):
        samples = rng.normal(size=int(rng.integers(1, 21)))
        truth = rng.normal()
        crps_ok &= abs(crps(samples, truth) - crps_integral(samples, truth)) < 1e-6
    results["crps"] = crps_ok

    # equal-weight systematic resampling is a permutation
    idx = systematic_resample(np.full(64, 1 / 64), 64, rng)
    results["resample"] = bool(np.array_equal(np.sort(idx), np.arange(64)))

    # Kalman hand example to 1e-9
    spec = LinearGaussianSpec(**LG_SPEC)
    mean, cov = kalman_step(np.array([0.0]), np.array([[1.0]]), spec, np.array([2.0]))
    results["kalman"] = bool(
        abs(mean[0] - 12.0 / 6.2) < 1e-9 and abs(cov[0, 0] - 1.2 / 6.2) < 1e-9
    )

    # fixed-seed reruns produce byte-identical CSVs
    config = {
        "experiment": "linear_gaussian",
        "method": "ssls",
        "ensemble_size": 50,
        "steps": 2,
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "ssls": {"epochs": 4, "init_epochs": 6, "batch_size": 32,
                 "n_temperatures": 3, "n_inner": 4},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = run_experiment(cfg_path)
    first = {f.name: f.read_bytes() for f in out.iterdir()}
    out = run_experiment(cfg_path)
    second = {f.name: f.read_bytes() for f in out.iterdir()}
    results["determinism"] = first == second

    passed = all(results.values())
    report(8, passed, ", ".join(f"{k} {'ok' if v else 'FAILED'}" for k, v in results.items()))
    assert passed


def _tv_to_gaussian(samples, mean, std, bins=40):
    """Histogram estimate of the total variation distance to N(mean, std^2)."""
    lo = min(samples.min(), mean - 8 * std)
    hi = max(samples.max(), mean + 8 * std)
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    empirical = counts / samples.size
    gaussian = np.diff(ndtr((edges - mean) / std))
    return 0.5 * (np.abs(empirical - gaussian).sum() + abs(1.0 - gaussian.sum()))


def test_criterion_09_shifted_init_tv_trend(lg_setup, lg_shifted_records):
    """The TV distance to the exact posterior shrinks after the initial shift."""
    _, _, means, covs = lg_setup
    tv = {}
    for r in lg_shifted_records:
        k = r.step
        tv[k] = _tv_to_gaussian(
            r.ensemble[:, 0], means[k - 1, 0], np.sqrt(covs[k - 1, 0, 0])
        )
    late = np.mean([tv[k] for k in range(5, 11)])
    passed = isfinite(late) and late < tv[1]
    report(9, passed, f"TV at step 1: {tv[1]:.3f}; mean TV steps 5-10: {late:.3f}")
    assert passed
