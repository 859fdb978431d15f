"""gasdiff benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The metrics printed, with their units, are
the ones BENCHMARK.json lists; perfbench/README.md explains them.  The run

1. makes the workload's seeded inputs (cached per seed, untimed);
2. times the set-up a user waits for (``setup_s``) in fresh interpreters;
3. repeats the workload until ``--seconds`` are spent, checking every
   output, and prints the end-to-end metrics (``--trace 0``), or
4. with ``--trace 1``, spends half the time untraced and half with the
   span recorder installed, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Generated inputs,
scratch outputs and span dumps go under ``.perfbench/`` in the repository.
"""

from __future__ import annotations

import os

# One thread everywhere, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 9


def measure(workload, budget_s: float) -> list[float]:
    """Closed loop: run iterations back to back while the next one is
    expected to finish within the budget (always at least one)."""
    samples: list[float] = []
    workload.begin()
    start = time.perf_counter()
    try:
        while True:
            samples.append(workload.iteration())
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(samples) > budget_s:
                return samples
    finally:
        workload.end()


def setup_seconds(workload) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", workload.setup_code()],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def _timing_line(name: str, samples: list[float], what: str) -> str:
    return (f"{name}: median {statistics.median(samples):.4f} s, "
            f"max {max(samples):.4f} s, {len(samples)} samples ({what})")


def run(args) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    checks = workloads.Checks()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, reference["workloads"][args.workload], checks, STATE)
    workload.prepare()
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")

    if not args.trace:
        setup = setup_seconds(workload)
        wall = measure(workload, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(_timing_line("wall_s", wall, "one workload iteration"))
        print(_timing_line("setup_s", setup, "fresh interpreter per sample"))
        print(f"peak_rss_mb: {rss_mb:.1f} MB")
        values = {"wall_s": statistics.median(wall),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": rss_mb}
        listed = bench["end_to_end"]
    else:
        untraced = measure(workload, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds / 2)
        finally:
            tracer.uninstall()
        tracer.dump(STATE / "traces" / f"{args.workload}-seed{args.seed}.json")
        for layer, n in tracer.layer_span_counts().items():
            if layer in workload.layers:
                checks.check(n > 0, f"traced run recorded no {layer} spans")
        values = spans.layer_metrics(tracer, len(traced))
        values["trace.overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(untraced) - 1.0)
        print(_timing_line("wall_s untraced", untraced, "one workload iteration"))
        print(_timing_line("wall_s traced", traced, "one workload iteration"))
        listed = bench["per_layer"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}

    for name, (value, unit, note) in workload.report.items():
        print(f"{name}: {value:.6g} {unit} ({note})")
    failed = len(checks.failures)
    print(f"failed_frac: {failed}/{checks.attempted} = "
          f"{failed / max(checks.attempted, 1):.4g} (commands plus output checks)")
    for what in checks.failures:
        print(f"FAILED: {what}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gasdiff" / "__init__.py").is_file():
        print(f"perfbench: no gasdiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
