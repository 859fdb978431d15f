#!/usr/bin/env python3
"""Fixed-step paper-density MD probe and trajectory-I/O probe, run on one
or more source trees.

Each probe runs in a fresh interpreter with one BLAS thread and the given
source tree first on PYTHONPATH.  The MD probe builds the paper preset's
state (30k He + 30k Ar in a 5e4 A box at 300 K, dt 5 fs, seed 1), takes 20
steps untimed, then times 1000 velocity-Verlet steps one by one.  It
reports the median and mean ms/step, the hours a 1e6-step seed takes at the
mean, inner pair-list rebuilds per step (a new ``state.pair_list``) and
outer-list builds per step (a new ``state._work.outer``; 0 where there is
none).  With a fixed step count, equal rebuild counts show that two trees
search on the same steps.

The I/O probe takes frame 0 of the desk preset (1000 particles) and of the
paper preset (60000), writes it IO_FRAMES times with
``write_native_frames`` and reads the file back with ``iter_native``
twice: as the writer left it (with the binary frame sidecar, where the
tree writes one; its hash checks included) and with only the text left.
It reports each as microseconds per particle row, and the bytes per row of
the text and of whatever else the writer left (the sidecar).  Where the
tree forks a writer process, the write includes the fork and the pickling
of each frame sent to it.

The overlap probe runs first, with the MD settings of perfbench's
``desk_pipeline`` (500 He + 500 Ar in a 5e3 A box, 2000 steps, a frame
every 100, seed 1).  It times ``md.iter_frames`` alone and
``write_native_frames(header, md.iter_frames(...))``, OVERLAP_RUNS times
each in turn, and reports the medians in ms and the peak RSS of the
largest child process so far (``RUSAGE_CHILDREN``): the trajectory
writer's, where the tree forks one, else 0.  The gap between the two
times is what the write adds to the run.

Trees run in turn, 5 rounds, so that machine drift falls on all of
them alike; the record keeps every run and the per-tree medians, and the
lines of each tree's ``gasdiff/*.py`` (``src_lines``), so that a change's
net source lines come from the same record.

    python3 scripts/bench.py --out bench.json parent=../parent/src change=src
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAPER_STEPS = 1_000_000
SEED = 1
ROUNDS = 5
WARMUP = 20
STEPS = 1000
#: frames written per preset by the I/O probe
IO_FRAMES = {"desk": 100, "paper": 5}
#: runs of the MD alone and with the write, by the overlap probe
OVERLAP_RUNS = 5


def probe() -> dict:
    """Time STEPS paper-density steps after WARMUP untimed ones."""
    import time

    from gasdiff import md

    cfg = md.MDConfig(n_he=30000, n_ar=30000, seed=SEED)
    box = md.SimBox(side=5.0e4)
    state = md.init_state(cfg, box)
    forces, _ = md.compute_forces(state, box)
    for _ in range(WARMUP):
        state, forces, _ = md.verlet_step(state, forces, cfg, box)
    times, inner, outer = [], 0, 0
    for _ in range(STEPS):
        listed = state.pair_list
        outer_list = getattr(state._work, "outer", None)
        start = time.perf_counter()
        state, forces, _ = md.verlet_step(state, forces, cfg, box)
        times.append(time.perf_counter() - start)
        inner += state.pair_list is not listed
        outer += getattr(state._work, "outer", None) is not outer_list
    mean_s = statistics.fmean(times)
    return {
        "median_ms_per_step": statistics.median(times) * 1e3,
        "mean_ms_per_step": mean_s * 1e3,
        "hours_per_seed": mean_s * PAPER_STEPS / 3600.0,
        "inner_rebuilds_per_step": inner / STEPS,
        "outer_builds_per_step": outer / STEPS,
    }


def overlap_probe() -> dict:
    """Time the desk_pipeline MD alone and with its trajectory written."""
    import resource
    import tempfile
    import time

    from gasdiff import md
    from gasdiff.trajectory_io import write_native_frames

    cfg = md.MDConfig(n_he=500, n_ar=500, dt=5.0, temperature=300.0, seed=SEED,
                      sample_stride=100)
    box = md.SimBox(side=5.0e3)
    md_s, write_s = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(OVERLAP_RUNS):
            start = time.perf_counter()
            for _ in md.iter_frames(cfg, box, 2000):
                pass
            md_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            write_native_frames(md.trajectory_header(cfg, box),
                                md.iter_frames(cfg, box, 2000), Path(tmp) / "traj.txt")
            write_s.append(time.perf_counter() - start)
    md_ms, write_ms = statistics.median(md_s) * 1e3, statistics.median(write_s) * 1e3
    return {
        "overlap_md_ms": md_ms,
        "overlap_md_write_ms": write_ms,
        "overlap_gap_ms": write_ms - md_ms,
        "writer_child_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def io_probe() -> dict:
    """Time writing IO_FRAMES frames per preset, and reading them back with
    and without what the writer left beside the text."""
    import tempfile
    import time
    from dataclasses import replace

    from gasdiff import md, pipeline
    from gasdiff.trajectory_io import iter_native, write_native_frames

    out = {}
    for name, n_frames in IO_FRAMES.items():
        preset = getattr(pipeline, name.upper())
        cfg, box = preset.md_config(SEED), md.SimBox(side=preset.box_side)
        frame = next(md.iter_frames(cfg, box, 0))
        rows = n_frames * frame.n_particles
        frames = (replace(frame, timestep=k * cfg.sample_stride,
                          time_fs=k * cfg.sample_stride * cfg.dt)
                  for k in range(n_frames))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.txt"

            def seconds(work):
                start = time.perf_counter()
                work()
                return time.perf_counter() - start

            def read():
                if sum(1 for _ in iter_native(path)) != n_frames:
                    raise RuntimeError(f"{path} did not read back {n_frames} frames")

            times = [seconds(lambda: write_native_frames(
                md.trajectory_header(cfg, box), frames, path))]
            beside = [p for p in Path(tmp).iterdir() if p != path]
            sizes = [path.stat().st_size, sum(p.stat().st_size for p in beside)]
            times.append(seconds(read))
            for p in beside:
                p.unlink()
            times.append(seconds(read))
        for key, spent in zip(("write", "sidecar_read", "text_read"), times):
            out[f"{name}_{key}_us_per_row"] = spent / rows * 1e6
        out[f"{name}_text_bytes_per_row"] = sizes[0] / rows
        out[f"{name}_sidecar_bytes_per_row"] = sizes[1] / rows
    return out


def src_lines(src: str) -> int:
    """Lines in the tree's gasdiff/*.py."""
    return sum(len(path.read_bytes().splitlines())
               for path in (Path(src) / "gasdiff").glob("*.py"))


def run_probe(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, __file__, "--probe"],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="*", metavar="NAME=SRC",
                    help="a label and the src directory to import gasdiff from")
    ap.add_argument("--out", help="JSON record to write")
    ap.add_argument("--probe", action="store_true",
                    help="run one probe in this process and print its JSON")
    args = ap.parse_args()

    if args.probe:
        # the overlap probe first, so that RUSAGE_CHILDREN holds its writers only
        print(json.dumps({**overlap_probe(), **probe(), **io_probe()}))
        return
    if not args.trees or not args.out:
        ap.error("give --out and at least one NAME=SRC")
    trees = dict(tree.split("=", 1) for tree in args.trees)
    runs = {name: [] for name in trees}
    for round_ in range(ROUNDS):
        for name, src in trees.items():
            result = run_probe(src)
            runs[name].append(result)
            print(f"round {round_ + 1} {name}: "
                  f"{result['median_ms_per_step']:.3f} ms/step median, "
                  f"{result['mean_ms_per_step']:.3f} mean, "
                  f"{result['inner_rebuilds_per_step']:.3f} inner and "
                  f"{result['outer_builds_per_step']:.3f} outer per step; "
                  f"paper frame write {result['paper_write_us_per_row']:.2f}, "
                  f"read {result['paper_sidecar_read_us_per_row']:.2f}, "
                  f"text read {result['paper_text_read_us_per_row']:.2f} us/row; "
                  f"desk MD {result['overlap_md_ms']:.0f} ms, with the write "
                  f"{result['overlap_md_write_ms']:.0f} ms",
                  flush=True)
    import numpy

    record = {
        "probe": {"preset": "30000 He + 30000 Ar, 5e4 A box, 300 K, dt 5 fs",
                  "seed": SEED, "warmup_steps": WARMUP, "steps": STEPS,
                  "blas_threads": 1, "paper_steps": PAPER_STEPS},
        "io_probe": {"frame": "frame 0 of the desk and paper presets, seed 1",
                     "frames_written": IO_FRAMES},
        "overlap_probe": {"preset": "500 He + 500 Ar, 5e3 A box, 300 K, dt 5 fs, "
                                    "2000 steps, a frame every 100",
                          "seed": SEED, "runs": OVERLAP_RUNS},
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "src_lines": {name: src_lines(src) for name, src in trees.items()},
        "median_of_runs": {name: {key: statistics.median(r[key] for r in results)
                                  for key in results[0]}
                           for name, results in runs.items()},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
