"""Per-layer tracing by wrapping the package's functions where they are called.

Nothing under ``src/`` changes.  :meth:`Tracer.install` replaces module
attributes (and ``ScoreNetwork.forward`` on the class) with timing wrappers
and :meth:`Tracer.remove` puts the originals back.  Each wrapped call is a
span: name, start, duration and the span that was open when it started.
A span's self time is its duration minus the time of the spans it caused.
The wrappers only observe arguments and results, so they draw no random
numbers and leave every result bit-identical.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import warnings
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from ssls import assimilator, baselines, cli, models, sampler, score_net

# (module, attribute, span name) of every plain timed call.
_TIMED = [
    (assimilator, "assimilate", "assimilator.assimilate"),
    (assimilator, "initial_update", "assimilator.initial_update"),
    (assimilator, "predict", "models.predict"),
    (assimilator, "train_score", "score_net.train"),
    (assimilator, "almc_update", "sampler.almc"),
    (assimilator, "ensemble_metrics", "metrics.ensemble_metrics"),
    (baselines, "ensemble_metrics", "metrics.ensemble_metrics"),
    (baselines, "run_kalman", "baselines.kalman"),
    (baselines, "run_enkf", "baselines.enkf"),
    (score_net, "dsm_loss_gradient", "score_net.dsm_grad"),
    (models, "simulate_reference", "models.simulate_reference"),
    (cli, "simulate_reference", "models.simulate_reference"),
    (cli, "load_config", "cli.load_config"),
]


def _forward_flops(net, x) -> int:
    """Computed multiply-add flops of one forward pass (matmuls only)."""
    rows = x.shape[0] if np.ndim(x) == 2 else 1
    sizes = net.layer_sizes
    return 2 * rows * sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, duration, parent index]
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span index, child seconds]
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
            frame = [index, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._stack.pop()
                self.spans[index][1:3] = [start, duration]
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration

        return timed

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation -----------------------------------------------------

    def install(self):
        for module, attr, name in _TIMED:
            self._set(module, attr, self.wrap(getattr(module, attr), name))

        forward = self.wrap(score_net.ScoreNetwork.forward, "score_net.forward")

        def counted_forward(net, x):
            self.counts["score_net.forward_flops"] += _forward_flops(net, x)
            return forward(net, x)

        self._set(score_net.ScoreNetwork, "forward", counted_forward)

        clip = self.wrap(sampler.clip_score, "sampler.clip")

        def counted_clip(v, max_norm):
            norms = np.linalg.norm(v, axis=-1)
            self.counts["sampler.clip_rows"] += norms.size
            self.counts["sampler.clipped_rows"] += int(np.count_nonzero(norms > max_norm))
            return clip(v, max_norm)

        self._set(sampler, "clip_score", counted_clip)

        apf = self.wrap(baselines.run_apf, "baselines.apf")

        def counted_apf(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                result = apf(*args, **kwargs)
            self.counts["baselines.apf_degenerate"] += sum(
                "degenerate" in str(w.message) for w in caught)
            return result

        self._set(baselines, "run_apf", counted_apf)

        for attr in [a for a in dir(cli) if a.startswith("write_")]:
            write = self.wrap(getattr(cli, attr), "cli.csv_write")

            def counted_write(path, *args, _write=write, **kwargs):
                _write(path, *args, **kwargs)
                self.counts["cli.csv_bytes"] += os.path.getsize(path)

            self._set(cli, attr, counted_write)

    def trace_model(self, model):
        """The model with its likelihood gradient timed, via ``ModelSpec.replace``."""
        return model.replace(log_likelihood_grad=self.wrap(
            model.log_likelihood_grad, "models.loglik_grad"))

    def remove(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def _durations(self, name):
        return [s[2] for s in self.spans if s[0] == name]

    def warm_steps(self):
        """Wall time of each warm SSLS step: from ``predict`` to its metrics row."""
        steps, start = [], None
        for name, t0, duration, _ in self.spans:
            if name == "models.predict":
                start = t0
            elif name == "metrics.ensemble_metrics" and start is not None:
                steps.append(t0 + duration - start)
                start = None
        return steps

    def layer_metrics(self, rounds: int, observations: int) -> dict:
        """Per-layer metrics; ``*_s`` are seconds per assimilated observation
        unless named per call, and counts are per round."""
        per_obs = rounds * observations
        t, s, c, n = self.total, self.self_time, self.calls, self.counts

        def per(x, k):
            return x / k if k else 0.0

        first = self._durations("assimilator.initial_update")
        warm = self.warm_steps()
        fwd_s = t["score_net.forward"]
        return {
            "score_net.forward_s": (fwd_s / per_obs, "s"),
            "score_net.forward_calls": (per(c["score_net.forward"], rounds), "count"),
            "score_net.forward_ms": (1e3 * per(fwd_s, c["score_net.forward"]), "ms"),
            "score_net.forward_gflops": (per(n["score_net.forward_flops"], fwd_s) / 1e9, "GFLOP/s"),
            "score_net.train_s": (t["score_net.train"] / per_obs, "s"),
            "score_net.dsm_grad_s": (t["score_net.dsm_grad"] / per_obs, "s"),
            "score_net.dsm_grad_calls": (per(c["score_net.dsm_grad"], rounds), "count"),
            "score_net.train_self_s": (s["score_net.train"] / per_obs, "s"),
            "assimilator.first_step_s": (statistics.median(first) if first else 0.0, "s"),
            "assimilator.warm_step_s": (statistics.median(warm) if warm else 0.0, "s"),
            "assimilator.self_s": (
                (s["assimilator.assimilate"] + s["assimilator.initial_update"]) / per_obs, "s"),
            "sampler.almc_s": (t["sampler.almc"] / per_obs, "s"),
            "sampler.self_s": ((s["sampler.almc"] + t["sampler.clip"]) / per_obs, "s"),
            "sampler.clip_calls": (per(c["sampler.clip"], rounds), "count"),
            "sampler.clipped_frac": (
                per(n["sampler.clipped_rows"], n["sampler.clip_rows"]), "ratio"),
            "models.predict_s": (t["models.predict"] / per_obs, "s"),
            "models.loglik_grad_s": (t["models.loglik_grad"] / per_obs, "s"),
            "models.simulate_reference_s": (
                per(t["models.simulate_reference"], c["models.simulate_reference"]), "s"),
            "metrics.ensemble_metrics_s": (t["metrics.ensemble_metrics"] / per_obs, "s"),
            "metrics.ensemble_metrics_calls": (
                per(c["metrics.ensemble_metrics"], rounds), "count"),
            "baselines.kalman_s": (t["baselines.kalman"] / per_obs, "s"),
            "baselines.enkf_s": (t["baselines.enkf"] / per_obs, "s"),
            "baselines.apf_s": (t["baselines.apf"] / per_obs, "s"),
            "baselines.apf_degenerate": (per(n["baselines.apf_degenerate"], rounds), "count"),
            "cli.load_config_s": (per(t["cli.load_config"], c["cli.load_config"]), "s"),
            "cli.csv_write_s": (t["cli.csv_write"] / per_obs, "s"),
            "cli.csv_bytes": (per(n["cli.csv_bytes"], rounds), "bytes"),
        }

    def dump(self, path):
        """Write every span and the per-name totals as JSON."""
        names = sorted(self.total)
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "totals": {k: {"seconds": self.total[k], "self_seconds": self.self_time[k],
                               "calls": self.calls[k]} for k in names},
                "counts": dict(self.counts),
            }, fh)
