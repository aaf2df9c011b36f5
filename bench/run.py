"""SSLS benchmark: seconds per assimilation step, with accuracy beside it.

    python3 bench/run.py --workload lg_exact --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed`` (its set-up), then repeats
whole rounds of the program's filtering calls on those inputs until
``--seconds`` would be exceeded, checking every round's outputs.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process started, from ``/proc`` where available."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


START = time.perf_counter() - _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lg_exact", "dw_flip", "l96_d20", "filters_cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import ``ssls`` from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "ssls" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {src / 'ssls'} is missing")
    sys.path.insert(0, str(src))
    import ssls

    if Path(ssls.__file__).resolve().parent != (src / "ssls").resolve():
        sys.exit(f"bench: imported ssls from {ssls.__file__}, not from {src}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_round(wl):
    """One round: the timed filtering calls, then the checks (untimed).

    Returns the seconds, the verdict (``None`` if the program raised) and
    the peak resident size before the checks allocated anything.
    """
    t0 = time.perf_counter()
    try:
        out = wl.run()
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, None, _peak_rss_mb()
    elapsed = time.perf_counter() - t0
    peak = _peak_rss_mb()
    return elapsed, wl.check(out), peak


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import selftest
    import workloads

    seed = args.seed % 2**32  # seed sequences take non-negative entropy
    make = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            wl = make(seed)
        finally:
            tracer.remove()
    else:
        wl = make(seed)
    setup_s = time.perf_counter() - START

    untraced = []  # _run_round results of rounds without tracing
    traced = []
    begin = time.perf_counter()
    if tracer is None:
        while True:
            untraced.append(_run_round(wl))
            spent = time.perf_counter() - begin
            if spent + statistics.median(r[0] for r in untraced) > args.seconds:
                break
    else:
        # Untraced and traced rounds alternate, so the overhead is measured
        # under the same machine conditions.
        plain_model = getattr(wl, "model", None)
        while True:
            untraced.append(_run_round(wl))
            if plain_model is not None:
                wl.model = tracer.trace_model(plain_model)
            tracer.install()
            try:
                traced.append(_run_round(wl))
            finally:
                tracer.remove()
                if plain_model is not None:
                    wl.model = plain_model
            spent = time.perf_counter() - begin
            pair = statistics.median(r[0] for r in untraced + traced) * 2
            if spent + pair > args.seconds:
                break

    rounds = traced or untraced
    ops = wl.operations
    failed = sum(ops if v is None else v.ok.count(False) for _, v, _ in rounds)
    good = [v for _, v, _ in untraced + traced if v is not None]
    correct = bool(good) and all(all(v.run_checks.values()) for v in good)
    # Every round repeats the same inputs, so every record must repeat too.
    correct &= len({(v.digest, v.rmse, v.crps) for v in good}) <= 1
    first = good[0] if good else None

    step_s = statistics.median(r[0] for r in rounds) / wl.steps
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "step_s": (step_s, "s"),
            # The first round's peak comes before any check has allocated.
            "peak_rss_mb": (untraced[0][2], "MB"),
            # Zero only when every round raised, and then correct is false.
            "rmse": (first.rmse if first else 0.0, "ratio"),
            "crps": (first.crps if first else 0.0, "ratio"),
        }
    else:
        metrics = tracer.layer_metrics(len(traced), wl.steps)
        for name, want in workloads.expected_calls(wl).items():
            if metrics[name][0] != want:
                print(f"bench: {name} = {metrics[name][0]}, expected {want}", file=sys.stderr)
                correct = False
        plain_step_s = statistics.median(r[0] for r in untraced) / wl.steps
        metrics["trace.overhead_s"] = (step_s - plain_step_s, "s")
        workloads.OUT.mkdir(exist_ok=True)
        tracer.dump(workloads.OUT / f"trace_{args.workload}_seed{args.seed}.json")

    for name, passed in selftest.run_all():
        if not passed:
            print(f"bench: self-test failed: {name}", file=sys.stderr)
            correct = False

    if first is not None:
        print(f"bench: {args.workload} seed={args.seed} rounds={len(rounds)} "
              f"round_s={[round(r[0], 3) for r in rounds]} record_sha1={first.digest} "
              + " ".join(f"{k}={v}" for k, v in sorted(first.info.items())))
        for name, passed in sorted(first.run_checks.items()):
            if not passed:
                print(f"bench: check {name} failed", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": ops * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
