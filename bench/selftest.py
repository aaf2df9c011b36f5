"""Self-tests: every check accepts a correct output and rejects a corrupted one.

    python3 bench/selftest.py

Each workload's ``check()`` is fed outputs built from the benchmark's own
reference estimate (which must pass), then the same outputs corrupted: a
mean shifted by 1, a variance doubled, a sign flipped, a CSV column
perturbed or a CSV row dropped (each must fail).  ``run.py`` runs these
after its measured rounds and reports ``correct: false`` if any fails.
"""

from __future__ import annotations

import csv
import sys
import shutil
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _records(means, stds, reference):
    """Program records carrying the given means and stds."""
    from ssls.assimilator import AssimilationRecord
    from ssls.metrics import gaussian_metrics

    means = np.asarray(means, dtype=float)
    means = means[:, None] if means.ndim == 1 else means
    stds = np.asarray(stds, dtype=float)
    stds = np.broadcast_to(stds[:, None] if stds.ndim == 1 else stds, means.shape)
    return [AssimilationRecord(step=k + 1, mean=m, std=s, reference=x, observation=y,
                               metrics=gaussian_metrics(k + 1, m, s, x))
            for k, (m, s, x, y) in enumerate(zip(means, stds, reference.states,
                                                 reference.observations))]


def _passes(verdict) -> bool:
    return all(verdict.ok) and all(verdict.run_checks.values())


def _lg_exact(workloads, checks):
    wl = workloads.LgExact(1)
    obs = wl.reference.observations[:, 0]
    mean, var = checks.scalar_kalman(obs, wl.q, wl.r, wl.m0, wl.p0)
    std = np.sqrt(var)
    yield "lg_exact exact posterior accepted", _passes(
        wl.check({"ssls": _records(mean, std, wl.reference)}))
    yield "lg_exact mean shifted by 1 rejected", not _passes(
        wl.check({"ssls": _records(mean + 1.0, std, wl.reference)}))
    yield "lg_exact variance doubled rejected", not _passes(
        wl.check({"ssls": _records(mean, std * np.sqrt(2.0), wl.reference)}))


def _dw_flip(workloads, checks):
    wl = workloads.DwFlip(1)
    obs = wl.reference.observations[:, 0]
    mean = checks.double_well_grid_filter(
        obs, (wl.flip,), wl.beta, wl.dt, wl.gamma, wl.obs_std, -1.0, 0.15)[0]
    std = np.full_like(mean, 0.1)
    enkf = _records(-mean, std, wl.reference)  # a worse filter to beat
    yield "dw_flip exact posterior accepted", _passes(
        wl.check({"ssls": _records(mean, std, wl.reference), "enkf": enkf}))
    flipped = mean.copy()
    flipped[3] = -flipped[3]
    yield "dw_flip sign flipped before the flip rejected", not _passes(
        wl.check({"ssls": _records(flipped, std, wl.reference), "enkf": enkf}))
    yield "dw_flip SSLS worse than EnKF rejected", not _passes(
        wl.check({"ssls": _records(mean, std, wl.reference),
                  "enkf": _records(mean, std, wl.reference)}))


def _l96(workloads, checks):
    wl = workloads.L96(1)
    states = wl.reference.states
    close = states + 0.1 * np.random.default_rng(0).standard_normal(states.shape)
    yield "l96_d20 near-exact means accepted", _passes(
        wl.check({"ssls": _records(close, 0.2, wl.reference)}))
    yield "l96_d20 mean shifted by 1 rejected", not _passes(
        wl.check({"ssls": _records(close + 1.0, 0.2, wl.reference)}))


def _write(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([[format(v, ".17g") for v in row] for row in rows])


def _filters_cli(workloads, checks):
    from ssls.models import make_linear_gaussian, simulate_reference

    wl = workloads.FiltersCli.__new__(workloads.FiltersCli)
    wl.steps = 50
    wl.drawn = simulate_reference(make_linear_gaussian(), wl.steps, rng=np.random.default_rng(3))
    states = wl.drawn.states[:, 0]
    mean, var = checks.scalar_kalman(wl.drawn.observations[:, 0], wl.q, wl.r, wl.m0, wl.p0)
    std = np.sqrt(var)
    steps = np.arange(1, wl.steps + 1, dtype=float)

    def run(shift_kalman=0.0, shift_enkf=0.0, drop_row=False):
        out = ROOT / ".bench_out" / "selftest"
        out.mkdir(parents=True, exist_ok=True)
        try:
            header, columns = ["step", "ref_0"], [steps, states]
            for m in wl.methods:
                m_mean = mean + {"kalman": shift_kalman, "enkf": shift_enkf}.get(m, 0.0)
                err = np.abs(m_mean - states)
                header += [f"mean_0_{m}", f"std_0_{m}", f"rmse_{m}", f"spread_{m}",
                           f"coverage_{m}", f"crps_{m}"]
                columns += [m_mean, std, err, std, np.ones_like(std), err]
                _write(out / f"metrics_{m}.csv", ["step", "rmse", "spread", "coverage", "crps"],
                       np.column_stack([steps, err, std, np.ones_like(std), err]))
            rows = np.column_stack(columns)
            _write(out / "comparison.csv", header, rows[:-1] if drop_row else rows)
            return wl.check(out)
        finally:
            shutil.rmtree(out)

    yield "filters_cli exact CSVs accepted", _passes(run())
    yield "filters_cli Kalman column perturbed by 1e-6 rejected", not _passes(
        run(shift_kalman=1e-6))
    yield "filters_cli EnKF mean shifted by 1 rejected", not _passes(run(shift_enkf=1.0))
    yield "filters_cli CSV row dropped rejected", not _passes(run(drop_row=True))


def run_all() -> list[tuple[str, bool]]:
    import checks
    import workloads

    results = []
    for case in (_lg_exact, _dw_flip, _l96, _filters_cli):
        results += list(case(workloads, checks))
    return results


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    results = run_all()
    for name, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    return 0 if all(p for _, p in results) else 1


if __name__ == "__main__":
    sys.exit(main())
