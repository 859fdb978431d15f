#!/usr/bin/env python3
"""Interleaved paper-density MD blocks, and desk-density MD, write-overlap,
trajectory-I/O and fit probes, run on one or more source trees.

Every probe process runs with one BLAS thread and the given source tree
first on PYTHONPATH.

The paper-density MD probe interleaves the trees finely, so that the
machine's drift falls on all of them alike.  For each seed in BLOCK_SEEDS
it starts one long-lived process per tree, plus a second process of the
first tree (named ``<first>_again``, the A/A pair).  Each builds the paper
preset's state (30k He + 30k Ar in a 5e4 A box at 300 K, dt 5 fs) and takes
WARMUP steps untimed; then the processes take BLOCKS blocks of BLOCK_STEPS
steps in turn, one block at a time, the order rotating (and reversing
every other round) from block to block.  Block k of every process covers
the same steps of the same run, so the record gives, for each process
against the first tree, the per-pair ratios of their block times, their
median and quartiles, and the pairs the process won (ratio below 1).  Per
process it records the block times; the median and mean ms/step; the
minutes and hours a 1e6-step seed takes at the mean; the steps split into
plain ones, inner rebuilds without an outer search, and outer searches,
with each kind's count, median ms and share of the timed wall time; the
inner rebuilds, outer searches and exact stale checks counted over the
timed steps; and the SHA-256 of the final positions, velocities and
forces, so that the record itself shows whether two trees reach the same
bits.  With a fixed step count, equal counts show that they rebuild and
search on the same steps.

The counts come from the ``rebuilds``, ``searches`` and ``exact_checks``
counters on the state's scratch (``state._work``); in a tree older than
those counters, wrappers around the rebuild, the outer search and the
exact check count the same calls.

The other probes run in a fresh process per tree and round, trees in turn,
ROUNDS rounds; the record keeps every run and the per-tree medians.  The
desk MD probe times STEPS steps one by one at desk density (500 He + 500
Ar in a 5e3 A box, seed 1) after WARMUP untimed ones and reports the same
figures as a paper-density process, keys prefixed ``desk_``.

The init probe builds the paper preset's state with ``md.init_state`` and
computes its first forces with ``md.compute_forces``, once for each seed in
INIT_SEEDS, and reports the milliseconds each took and then the process's
peak RSS (``RUSAGE_SELF``).  It runs right after the overlap probe, whose
desk-size runs peak lower, so that the peak is the paper state's.

The I/O probe takes frame 0 of the desk preset (1000 particles) and of the
paper preset (60000), writes it IO_FRAMES times with
``write_native_frames`` and reads the file back with ``iter_native``, its
checks included.  It also writes the same frames as a LAMMPS dump with
``write_lammps_dump`` (untimed) and times ``parse_lammps_dump`` on it.  It
reports each as microseconds per particle row, and the bytes per row of
every file the writer left.

The overlap probe runs first, with the MD settings of perfbench's
``desk_pipeline`` (500 He + 500 Ar in a 5e3 A box, 2000 steps, a frame
every 100, seed 1).  It times ``md.iter_frames`` alone and
``write_native_frames(header, md.iter_frames(...))``, OVERLAP_RUNS times
each in turn, and reports the medians in ms.  The gap between the two
times is what the write adds to the run.

The fit probe fits perfbench's ``paper_fit`` input (seed 1: N = 100,
1001 frames), which ``perfbench/inputs.py`` writes once into a temporary
directory, as that workload does: from observed frame 0, then a cost curve
of its points over its range.  It runs in a fresh process per tree and
round, FIT_ROUNDS rounds, the trees alternating which runs first.  Each run
reads the binned directory and caches the problem's observed modes, then
reports the ``lm_fit`` and ``cost_curve`` wall times, the peak RSS the fit
adds above what the process peaked at before it (``RUSAGE_SELF``), and D,
cost and CI95.  The record keeps every run, the per-tree medians and, for
each tree against the first, the per-round ratios of both times.

The record also holds the lines of each tree's ``gasdiff/*.py``, in
total (``src_lines``) and per module (``src_lines_by_module``), so that a
change's net source lines, and each module's, come from it; and the same
counts of code lines only, comments and docstrings left out
(``src_code_lines``, ``src_code_lines_by_module``).

    python3 scripts/bench.py --out bench.json parent=../parent/src change=src
"""

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

PAPER_STEPS = 1_000_000
SEED = 1
ROUNDS = 5
WARMUP = 20
#: steps the desk MD probe times
STEPS = 1000
#: the interleaved paper-density probe: its seeds, blocks per seed and
#: steps per block
BLOCK_SEEDS = (1, 7)
BLOCKS = 84
BLOCK_STEPS = 100
#: seeds of the paper-density init probe
INIT_SEEDS = (1, 2, 3)
#: frames written per preset by the I/O probe
IO_FRAMES = {"desk": 100, "paper": 5}
#: runs of the MD alone and with the write, by the overlap probe
OVERLAP_RUNS = 5
#: rounds of the fit probe
FIT_ROUNDS = 10
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def list_counter(md, state):
    """A function giving the (inner rebuilds, outer searches, exact stale
    checks) so far: the counters on the state's scratch, or, in a tree
    older than them, counts kept by wrappers around the functions that
    do each."""
    w = state._work
    if hasattr(w, "rebuilds"):
        return lambda: (w.rebuilds, w.searches, w.exact_checks)
    seen = [0, 0, 0]

    def counted(k, call):
        def wrapper(*args):
            seen[k] += 1
            return call(*args)
        return wrapper

    for k, name in enumerate(("_rebuild_pair_list", "_candidate_pairs",
                              "_pair_list_current")):
        setattr(md, name, counted(k, getattr(md, name)))
    return lambda: tuple(seen)


class Run:
    """A state of n_he + n_ar particles after WARMUP untimed steps, stepped
    on with each step timed and sorted by kind."""

    def __init__(self, n_he: int, n_ar: int, side: float, seed: int):
        from gasdiff import md

        self.md = md
        self.cfg = md.MDConfig(n_he=n_he, n_ar=n_ar, seed=seed)
        self.box = md.SimBox(side=side)
        self.state = md.init_state(self.cfg, self.box)
        self.forces, _ = md.compute_forces(self.state, self.box)
        for _ in range(WARMUP):
            self.state, self.forces, _ = md.verlet_step(self.state, self.forces,
                                                        self.cfg, self.box)
        self.counts = list_counter(md, self.state)
        self.start_counts = self.counts()
        self.times = {"plain": [], "inner": [], "outer": []}

    def steps(self, n: int) -> float:
        """Take n steps; the seconds they took."""
        import time

        md, cfg, box, counts = self.md, self.cfg, self.box, self.counts
        state, forces = self.state, self.forces
        total = 0.0
        for _ in range(n):
            before = counts()
            start = time.perf_counter()
            state, forces, _ = md.verlet_step(state, forces, cfg, box)
            spent = time.perf_counter() - start
            total += spent
            after = counts()
            kind = ("outer" if after[1] != before[1] else
                    "inner" if after[0] != before[0] else "plain")
            self.times[kind].append(spent)
        self.state, self.forces = state, forces
        return total

    def summary(self) -> dict:
        import hashlib

        every = [t for kind in self.times.values() for t in kind]
        mean_s, wall_s = statistics.fmean(every), sum(every)
        rebuilds, searches, checks = (b - a for a, b in zip(self.start_counts,
                                                            self.counts()))
        out = {
            "steps": len(every),
            "median_ms_per_step": statistics.median(every) * 1e3,
            "mean_ms_per_step": mean_s * 1e3,
            "minutes_per_seed": mean_s * PAPER_STEPS / 60.0,
            "hours_per_seed": mean_s * PAPER_STEPS / 3600.0,
            # an outer search also makes a new pair list
            "inner_rebuilds": rebuilds,
            "outer_searches": searches,
            "exact_checks": checks,
        }
        for kind, spent in self.times.items():
            out[f"{kind}_steps"] = len(spent)
            out[f"{kind}_median_ms"] = statistics.median(spent) * 1e3 if spent else None
            out[f"{kind}_share"] = sum(spent) / wall_s
        digest = hashlib.sha256()
        for array in (self.state.positions, self.state.velocities, self.forces):
            digest.update(array.tobytes())
        out["state_sha256"] = digest.hexdigest()
        return out


def serve(seed: int) -> None:
    """The paper-density process of the interleaved probe: after a "ready"
    line, runs a block of BLOCK_STEPS steps per "block" line read and prints
    its seconds; at any other line prints the summary and returns."""
    run = Run(30000, 30000, 5.0e4, seed)
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "block":
            break
        print(json.dumps(run.steps(BLOCK_STEPS)), flush=True)
    print(json.dumps(run.summary()), flush=True)


def overlap_probe() -> dict:
    """Time the desk_pipeline MD alone and with its trajectory written."""
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
                                md.iter_frames(cfg, box, 2000), Path(tmp) / "traj.bin")
            write_s.append(time.perf_counter() - start)
    md_ms, write_ms = statistics.median(md_s) * 1e3, statistics.median(write_s) * 1e3
    return {
        "overlap_md_ms": md_ms,
        "overlap_md_write_ms": write_ms,
        "overlap_gap_ms": write_ms - md_ms,
    }


def init_probe() -> dict:
    """Time init_state plus the first compute_forces at paper density per
    seed, then read the peak RSS."""
    import resource
    import time

    from gasdiff import md

    box = md.SimBox(side=5.0e4)
    out = {}
    for seed in INIT_SEEDS:
        start = time.perf_counter()
        state = md.init_state(md.MDConfig(n_he=30000, n_ar=30000, seed=seed), box)
        md.compute_forces(state, box)
        out[f"paper_init_ms_seed_{seed}"] = (time.perf_counter() - start) * 1e3
    out["paper_init_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


def io_probe() -> dict:
    """Time writing IO_FRAMES frames per preset, reading them back, and
    parsing them from a LAMMPS dump."""
    import tempfile
    import time
    from dataclasses import replace

    from gasdiff import md, pipeline
    from gasdiff.trajectory_io import (Trajectory, iter_native, parse_lammps_dump,
                                       write_lammps_dump, write_native_frames)

    out = {}
    for name, n_frames in IO_FRAMES.items():
        preset = getattr(pipeline, name.upper())
        cfg, box = preset.md_config(SEED), md.SimBox(side=preset.box_side)
        frame = next(md.iter_frames(cfg, box, 0))
        rows = n_frames * frame.n_particles
        frames = [replace(frame, timestep=k * cfg.sample_stride,
                          time_fs=k * cfg.sample_stride * cfg.dt)
                  for k in range(n_frames)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.bin"

            def seconds(work):
                start = time.perf_counter()
                work()
                return time.perf_counter() - start

            def read():
                if sum(1 for _ in iter_native(path)) != n_frames:
                    raise RuntimeError(f"{path} did not read back {n_frames} frames")

            times = [seconds(lambda: write_native_frames(
                md.trajectory_header(cfg, box), frames, path))]
            size = sum(p.stat().st_size for p in Path(tmp).iterdir())
            times.append(seconds(read))
            dump = Path(tmp) / "traj.dump"
            write_lammps_dump(Trajectory(box_side=box.side, frames=frames), dump)

            def parse_dump():
                species_map = {1: md.Species.HE, 2: md.Species.AR}
                if parse_lammps_dump(dump, species_map).n_frames != n_frames:
                    raise RuntimeError(f"{dump} did not parse back {n_frames} frames")

            times.append(seconds(parse_dump))
        for key, spent in zip(("write", "read", "lammps_parse"), times):
            out[f"{name}_{key}_us_per_row"] = spent / rows * 1e6
        out[f"{name}_bytes_per_row"] = size / rows
    return out


def fit_probe(binned: str) -> dict:
    """Fit perfbench's paper_fit input from frame 0 and time a cost curve."""
    import resource
    import time

    import numpy

    from gasdiff import fitting, pipeline
    from gasdiff.fields import UnitScale

    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]["paper_fit"]
    spec = ref["input"]
    scale = UnitScale(box_length_cm=spec["box_side_a"] * 1e-8,
                      time_unit_s=spec["time_unit_s"])
    problem = fitting.FitProblem.from_binned(pipeline.read_binned_dir(Path(binned)),
                                             scale, init_from_frame0=True)
    problem._modes  # computed and cached first, so the peak below is the fit's own
    before = peak_rss_mb()
    start = time.perf_counter()
    result = fitting.lm_fit(problem, ref["d0_nd"])
    fit_s = time.perf_counter() - start
    added = peak_rss_mb() - before
    lo, hi = (f * spec["d_nd"] for f in ref["cost_curve_range"])
    start = time.perf_counter()
    fitting.cost_curve(problem, numpy.linspace(lo, hi, ref["cost_curve_points"]))
    return {"lm_fit_s": fit_s, "cost_curve_s": time.perf_counter() - start,
            "peak_before_fit_mb": before, "fit_added_peak_mb": added,
            "d_opt_nd": result.d_opt_nd, "cost": result.final_cost,
            "ci95_nd": result.ci95_nd, "iterations": result.iterations}


def fit_runs(trees: dict) -> dict:
    """The fit probe on every tree, FIT_ROUNDS rounds."""
    import tempfile

    runs = {name: [] for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, str(PERFBENCH / "inputs.py"), "paper_fit",
                        str(SEED), tmp], check=True)
        for round_ in range(FIT_ROUNDS):
            names = list(trees)
            for name in names if round_ % 2 == 0 else reversed(names):
                result = run_probe(trees[name], "--fit-probe", tmp)
                runs[name].append(result)
                print(f"fit round {round_ + 1} {name}: lm_fit {result['lm_fit_s']:.3f} s, "
                      f"cost curve {result['cost_curve_s']:.3f} s, adds "
                      f"{result['fit_added_peak_mb']:.1f} MB to the peak", flush=True)
    first = next(iter(trees))
    return {
        "median_of_runs": {name: {key: median([r[key] for r in results])
                                  for key in results[0]}
                           for name, results in runs.items()},
        "ratios": {f"{name}/{first}": {
                       key: pair_ratios([r[key] for r in runs[first]],
                                        [r[key] for r in runs[name]])
                       for key in ("lm_fit_s", "cost_curve_s")}
                   for name in trees if name != first},
        "runs": runs,
    }


def src_lines_by_module(src: str) -> dict:
    """Lines in each of the tree's gasdiff/*.py, by file name."""
    return {path.name: len(path.read_bytes().splitlines())
            for path in sorted((Path(src) / "gasdiff").glob("*.py"))}


def code_lines(text: str) -> int:
    """Lines of Python source that hold code: lines with a token other than
    a comment or layout, less the lines of docstrings."""
    tree = ast.parse(text)
    doc = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - doc)


def src_code_lines_by_module(src: str) -> dict:
    """Code lines (code_lines) in each of the tree's gasdiff/*.py, by file
    name: comment and docstring lines are not counted."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((Path(src) / "gasdiff").glob("*.py"))}


def median(values: list):
    """The median of numbers; of anything else (digests, the median time of
    a kind of step that never came), the value if every run gave the same
    one, else the distinct values."""
    if all(isinstance(v, (int, float)) for v in values):
        return statistics.median(values)
    distinct = sorted(set(values), key=str)
    return distinct[0] if len(distinct) == 1 else distinct


def probe_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_probe(src: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, *args],
        env=probe_env(src), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4)[::2]


def pair_ratios(base: list, other: list) -> dict:
    """Per-pair ratios other / base, their median and quartiles, and the
    pairs that other won (ratio below 1)."""
    ratios = [b / a for a, b in zip(base, other)]
    return {"median": statistics.median(ratios), "quartiles": quartiles(ratios),
            "wins": sum(r < 1.0 for r in ratios), "pairs": len(ratios),
            "per_pair": ratios}


def interleave(trees: dict, seed: int) -> dict:
    """The interleaved paper-density probe for one seed."""
    first = next(iter(trees))
    procs = {name: subprocess.Popen(
                 [sys.executable, __file__, "--serve", str(seed)], env=probe_env(src),
                 stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for name, src in {**trees, f"{first}_again": trees[first]}.items()}
    try:
        for name, proc in procs.items():
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError(f"the {name} probe process did not start")
        names = list(procs)
        blocks = {name: [] for name in names}
        for k in range(BLOCKS):
            turn = k % len(names)
            order = names[turn:] + names[:turn]
            if k // len(names) % 2:
                order.reverse()
            for name in order:
                procs[name].stdin.write("block\n")
                procs[name].stdin.flush()
                blocks[name].append(json.loads(procs[name].stdout.readline()))
        summaries = {}
        for name, proc in procs.items():
            proc.stdin.write("end\n")
            proc.stdin.flush()
            summaries[name] = json.loads(proc.stdout.readline())
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    out = {"trees": {}, "ratios": {}}
    for name in names:
        ms = [s * 1e3 for s in blocks[name]]
        out["trees"][name] = {"block_median_ms": statistics.median(ms),
                              "block_quartiles_ms": quartiles(ms),
                              **summaries[name], "block_ms": ms}
        if name != first:
            out["ratios"][f"{name}/{first}"] = pair_ratios(blocks[first], blocks[name])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="*", metavar="NAME=SRC",
                    help="a label and the src directory to import gasdiff from")
    ap.add_argument("--out", help="JSON record to write")
    ap.add_argument("--probe", action="store_true",
                    help="run the per-round probes in this process and print their JSON")
    ap.add_argument("--serve", type=int, metavar="SEED",
                    help="be one process of the interleaved paper-density probe")
    ap.add_argument("--fit-probe", metavar="DIR",
                    help="run the fit probe on a paper_fit input directory and "
                         "print its JSON")
    args = ap.parse_args()

    if args.serve is not None:
        serve(args.serve)
        return
    if args.fit_probe:
        print(json.dumps(fit_probe(args.fit_probe)))
        return
    if args.probe:
        # The overlap probe before the desk run, whose counting wrappers (in
        # a tree without counters) would count its steps too.
        out = overlap_probe()
        out.update(init_probe())
        desk = Run(500, 500, 5.0e3, SEED)
        desk.steps(STEPS)
        out.update((f"desk_{key}", value) for key, value in desk.summary().items())
        out.update(io_probe())
        print(json.dumps(out))
        return
    if not args.trees or not args.out:
        ap.error("give --out and at least one NAME=SRC")
    trees = dict(tree.split("=", 1) for tree in args.trees)
    interleaved = {}
    for seed in BLOCK_SEEDS:
        interleaved[str(seed)] = result = interleave(trees, seed)
        for name, tree in result["trees"].items():
            print(f"seed {seed} {name}: block median {tree['block_median_ms']:.1f} ms, "
                  f"plain {tree['plain_median_ms']:.3f}, inner {tree['inner_median_ms']:.3f}, "
                  f"outer {tree['outer_median_ms']:.3f} ms median; "
                  f"{tree['inner_rebuilds']} inner, {tree['outer_searches']} outer",
                  flush=True)
        for pair, ratio in result["ratios"].items():
            print(f"seed {seed} {pair}: median ratio {ratio['median']:.3f}, "
                  f"{ratio['wins']} of {ratio['pairs']} won", flush=True)
    runs = {name: [] for name in trees}
    for round_ in range(ROUNDS):
        for name, src in trees.items():
            result = run_probe(src, "--probe")
            runs[name].append(result)
            init_ms = statistics.median(result[f"paper_init_ms_seed_{seed}"]
                                        for seed in INIT_SEEDS)
            print(f"round {round_ + 1} {name}: paper init + forces {init_ms:.1f} ms "
                  f"median, peak RSS {result['paper_init_peak_rss_mb']:.1f} MB; desk "
                  f"{result['desk_median_ms_per_step']:.3f} ms/step median; "
                  f"paper frame write {result['paper_write_us_per_row']:.2f}, "
                  f"read {result['paper_read_us_per_row']:.2f}, "
                  f"dump parse {result['paper_lammps_parse_us_per_row']:.2f} us/row; "
                  f"desk MD {result['overlap_md_ms']:.0f} ms, with the write "
                  f"{result['overlap_md_write_ms']:.0f} ms",
                  flush=True)
    fit = fit_runs(trees)
    src_lines = {name: src_lines_by_module(src) for name, src in trees.items()}
    src_code = {name: src_code_lines_by_module(src) for name, src in trees.items()}
    import numpy

    record = {
        "interleaved_probe": {
            "preset": "30000 He + 30000 Ar, 5e4 A box, 300 K, dt 5 fs",
            "seeds": list(BLOCK_SEEDS), "warmup_steps": WARMUP,
            "blocks": BLOCKS, "block_steps": BLOCK_STEPS, "blas_threads": 1,
            "paper_steps": PAPER_STEPS, "base": next(iter(trees))},
        "probe": {"desk_preset": "500 He + 500 Ar, 5e3 A box, 300 K, dt 5 fs",
                  "seed": SEED, "warmup_steps": WARMUP, "steps": STEPS,
                  "blas_threads": 1},
        "init_probe": {"preset": "30000 He + 30000 Ar, 5e4 A box, 300 K",
                       "seeds": list(INIT_SEEDS),
                       "timed": "md.init_state plus the first md.compute_forces"},
        "io_probe": {"frame": "frame 0 of the desk and paper presets, seed 1",
                     "frames_written": IO_FRAMES},
        "overlap_probe": {"preset": "500 He + 500 Ar, 5e3 A box, 300 K, dt 5 fs, "
                                    "2000 steps, a frame every 100",
                          "seed": SEED, "runs": OVERLAP_RUNS},
        "fit_probe": {"input": "perfbench/inputs.py paper_fit, N = 100, 1001 frames",
                      "seed": SEED, "init_from_frame0": True, "rounds": FIT_ROUNDS,
                      "blas_threads": 1},
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "src_lines": {name: sum(lines.values()) for name, lines in src_lines.items()},
        "src_lines_by_module": src_lines,
        "src_code_lines": {name: sum(lines.values())
                           for name, lines in src_code.items()},
        "src_code_lines_by_module": src_code,
        "interleaved": interleaved,
        "median_of_runs": {name: {key: median([r[key] for r in results])
                                  for key in results[0]}
                           for name, results in runs.items()},
        "runs": runs,
        "fit": fit,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
