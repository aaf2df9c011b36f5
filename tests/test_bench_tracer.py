"""The benchmark's tracer still sees every stage of the three filters.

``bench/tracing.py`` wraps the package's functions at their module
attributes, and its per-layer metrics assume how often each one is called.
This guards that coupling: the spans occur as often as the tracer assumes,
and a traced run's records equal an untraced run's bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest

from ssls import assimilator, baselines
from ssls.assimilator import SslsConfig
from ssls.models import make_linear_gaussian, simulate_reference
from ssls.sampler import AnnealPlan, make_schedule
from ssls.score_net import TrainConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"
STEPS = 3
N = 20


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def run_all(model, run):
    cfg = SslsConfig(
        ensemble_size=N,
        train=TrainConfig(epochs=2, batch_size=32, hidden=(8,)),
        plan=AnnealPlan(betas=make_schedule(2), n_inner=2, step_size=0.01),
        seed=3,
    )
    return {
        "ssls": assimilator.assimilate(model, run, cfg),
        "enkf": baselines.run_enkf(model, run, N, seed=4),
        "apf": baselines.run_apf(model, run, N, seed=5),
    }


def test_tracer_spans_and_records(tracing):
    model = make_linear_gaussian()
    run = simulate_reference(model, STEPS, rng=np.random.default_rng(0))
    plain = run_all(model, run)
    originals = (assimilator.predict, assimilator.ensemble_metrics, baselines.run_enkf)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_all(model, run)
    finally:
        tracer.remove()
    assert (assimilator.predict, assimilator.ensemble_metrics, baselines.run_enkf) == originals

    calls = tracer.calls
    assert calls["assimilator.initial_update"] == 1
    # Only SSLS's warm steps predict through assimilator.predict; the tracer
    # pairs each prediction with the next metrics call as one warm step.
    assert calls["models.predict"] == STEPS - 1
    assert len(tracer.warm_steps()) == STEPS - 1
    assert calls["score_net.train"] == STEPS
    assert calls["sampler.almc"] == STEPS
    assert calls["metrics.ensemble_metrics"] == STEPS * len(plain)
    assert calls["baselines.enkf"] == 1
    assert calls["baselines.apf"] == 1

    for method, records in plain.items():
        assert len(traced[method]) == len(records) == STEPS
        for a, b in zip(records, traced[method]):
            assert a.mean.tobytes() == b.mean.tobytes()
            assert a.std.tobytes() == b.std.tobytes()
            assert a.metrics == b.metrics
