#!/usr/bin/env python3
"""Time every layer of gasdiff on one or more source trees, in interleaved
blocks of long-lived per-tree processes.

    python3 scripts/bench.py --out bench.json parent=../parent/src change=src

Each NAME=SRC tree gets one long-lived process (this script with --serve,
the tree first on PYTHONPATH, BLAS on one thread), and the first tree a
second one, named ``<first>_again``, whose ratios to the first are the A/A
check.  Only one process works at a time, and all of them are pinned to
one CPU, which halved the spread of the A/A pair ratios of the MD jobs on a
shared 2-vCPU guest.  Every process runs with address-space randomization
off (``setarch -R``) and PYTHONHASHSEED=0, so that two processes of one
tree lay out their memory alike: with randomization on, two such
processes stayed up to 22 % apart on the pair search and 17 % on the
forces for their whole lives (one winning 20 or more of 24 pairs), which no
interleaving averages out.  So the A/A pair shows the machine's noise, not
the layout's: two trees still lay out their memory as their code does, and
on code that a change did not touch, the pair search, the forces, MD init
and the cost curve have read up to 23 % apart between two trees.

The parent runs the jobs below one after another.  A job is one call into
one layer; a process builds what the call needs (untimed) when the job's
first block reaches it, then makes one untimed call, so that no block
times a cold first call (one that fills a cache, say), and drops it all
when the next job starts.  A block is a number of calls, timed together.
In block 0 the first process makes calls until BLOCK_S has passed, and
every process then makes that many calls per block, so that block k of
each process does the same work, and a stateful job (the paper-density MD,
whose warm call is one more step) advances alike in all of them.  The
processes take BLOCKS blocks of each job in turn, the order rotating, and
reversing every other round, from block to block, so that the machine's
drift falls on all of them alike.

The jobs, in the order they run (paper density is the paper preset: 30k He
+ 30k Ar in a 5e4 A box at 300 K, dt 5 fs, seed 1 unless named; desk MD is
perfbench's ``desk_pipeline`` run: 500 He + 500 Ar in a 5e3 A box, 2000
steps, a frame every 100):

- ``md_init``: ``md.init_state`` plus the first ``md.compute_forces`` at
  paper density; in the set-up, a second untimed call under ``tracemalloc``
  gives its traced peak.
- ``pair_search``: the outer pair search (``md._candidate_pairs`` at
  ``md.OUTER_RANGE``) on the paper-density start.
- ``forces``: ``md.compute_forces`` on the same state, its pair list current.
- ``paper_md_1``, ``paper_md_7``: one velocity-Verlet step at paper density
  per call, seeds 1 and 7, after WARMUP untimed steps.  Each step is timed
  and sorted by kind: plain, inner rebuild without an outer search, and
  outer search.  The summary gives each kind's count, median ms and share
  of the wall time, the inner rebuilds, outer searches and exact stale
  checks (from the ``rebuilds``, ``searches`` and ``exact_checks`` counters
  of ``state._work``, or, in a tree older than them, wrappers that count
  the same calls), the hours a 1e6-step seed takes at the mean, and the
  SHA-256 of the final positions, velocities and forces, so that the record
  shows whether two trees reach the same bits.
- ``desk_md``: the desk MD through ``md.iter_frames``.
- ``desk_md_write``: the same run written by ``write_native_frames``.
- ``native_write``, ``native_read``, ``lammps_parse``: frame 0 of the paper
  preset's run (60000 rows) written by ``write_native_frames``, read back by
  ``iter_native`` (counting only its frames, so that a tree whose reader
  yields no header first does the same work), and parsed by
  ``parse_lammps_dump`` from a dump that ``write_lammps_dump`` wrote in the
  set-up.
- ``binning``: ``binning.bin_trajectory`` of the same frame at N = 100.
- ``fd_solve``: ``fd_solver.solve`` of the patch at N = 100 by
  Crank-Nicolson, 1000 steps of 5 ps at D = 3.18e-3 (box units, ns), every
  frame kept.
- ``fit``: ``fitting.lm_fit`` of perfbench's ``paper_fit`` input (seed 1:
  N = 100, 1001 frames) from observed frame 0.  The set-up fits once, so
  that what the problem caches is built, then fits again under
  ``tracemalloc``: its traced peak is the memory the fit adds.
- ``cost_curve``: ``fitting.cost_curve`` of the same problem at that
  workload's points.
- ``reproduce_desk``: ``gasdiff.cli.main`` running ``reproduce --scale desk
  --seeds 1``, end to end in the process.

A job whose set-up or first call fails in a tree (an older tree without
the function it calls, say) is recorded as missing for that tree, with
the error, and the run goes on.

The record has, per job, the calls per block and, per process, the block
times (``block_ms``), their median and quartiles, the median ms per call
(and per step, row or frame where the job says), and the job's summary;
for each process against the first tree, the per-pair ratios of their
block times, their median and quartiles, and the pairs it won (ratio
below 1).  It also holds the lines of each tree's ``gasdiff/*.py``, in
total (``src_lines``) and per module (``src_lines_by_module``), the same
counts of code lines only, comments and docstrings left out
(``src_code_lines``, ``src_code_lines_by_module``), and the machine.
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
import tempfile
import time
import tokenize
import tracemalloc
from pathlib import Path

PAPER_STEPS = 1_000_000
#: untimed steps a paper-density MD job takes in its set-up
WARMUP = 20
#: the shortest block: block 0 of the first process makes calls until it passes
BLOCK_S = 0.05
#: blocks of each job per process
BLOCKS = 48
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
    """A paper-density state after WARMUP untimed steps, stepped on one step
    per call, with each step timed and sorted by kind."""

    def __init__(self, seed: int):
        self.md, self.cfg, self.box, self.state, self.forces = paper_start(seed)
        for _ in range(WARMUP):
            self.state, self.forces, _ = self.md.verlet_step(self.state, self.forces,
                                                             self.cfg, self.box)
        self.counts = list_counter(self.md, self.state)
        self.start_counts = self.counts()
        self.times = {"plain": [], "inner": [], "outer": []}

    def step(self) -> None:
        before = self.counts()
        start = time.perf_counter()
        self.state, self.forces, _ = self.md.verlet_step(self.state, self.forces,
                                                         self.cfg, self.box)
        spent = time.perf_counter() - start
        after = self.counts()
        kind = ("outer" if after[1] != before[1] else
                "inner" if after[0] != before[0] else "plain")
        self.times[kind].append(spent)

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


def traced_peak_mb(call) -> float:
    """The peak of the memory that call allocates, traced by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def paper_start(seed: int = 1):
    """md, the config, the box, the state and its first forces of 30k He +
    30k Ar in a 5e4 A box (the paper preset's MD) for a seed."""
    from gasdiff import md

    cfg, box = md.MDConfig(n_he=30000, n_ar=30000, seed=seed), md.SimBox(side=5.0e4)
    state = md.init_state(cfg, box)
    return md, cfg, box, state, md.compute_forces(state, box)[0]


# Each job takes the process's scratch directory, builds what its call needs
# and returns (call, summary), summary a function giving a dict.  A summary's
# "per_call" maps a unit to its count in one call.

def md_init(scratch):
    paper_start()  # first, so that the trace sees no import or first-use cache
    peak = traced_peak_mb(paper_start)
    return paper_start, lambda: {"traced_peak_mb": peak}


def pair_search(scratch):
    md, _, box, state, _ = paper_start()
    pairs = len(md._candidate_pairs(state.positions, box.side, md.OUTER_RANGE)[0])
    return (lambda: md._candidate_pairs(state.positions, box.side, md.OUTER_RANGE),
            lambda: {"pairs": pairs})


def forces(scratch):
    md, _, box, state, _ = paper_start()
    return lambda: md.compute_forces(state, box), dict


def paper_md(seed):
    run = Run(seed)
    return run.step, run.summary


def desk_md(scratch, write: bool):
    from collections import deque

    from gasdiff import md
    from gasdiff.trajectory_io import write_native_frames

    cfg = md.MDConfig(n_he=500, n_ar=500, dt=5.0, temperature=300.0, seed=1,
                      sample_stride=100)
    box = md.SimBox(side=5.0e3)
    if write:
        def call():
            write_native_frames(md.trajectory_header(cfg, box),
                                md.iter_frames(cfg, box, 2000), scratch / "desk.bin")
    else:
        def call():
            deque(md.iter_frames(cfg, box, 2000), maxlen=0)
    return call, lambda: {"per_call": {"step": 2000}}


def paper_frame():
    """The header of the paper preset's trajectory (seed 1), and the header
    with frame 0."""
    from dataclasses import replace

    from gasdiff import md, pipeline

    cfg, box = pipeline.PAPER.md_config(1), md.SimBox(side=pipeline.PAPER.box_side)
    header = md.trajectory_header(cfg, box)
    return header, replace(header, frames=[next(md.iter_frames(cfg, box, 0))])


def native_io(scratch, read: bool):
    from gasdiff.trajectory_io import Frame, iter_native, write_native_frames

    header, traj = paper_frame()
    path, rows = scratch / "paper.bin", traj.frames[0].n_particles

    def write():
        write_native_frames(header, traj.frames, path)

    def read_back():
        if sum(isinstance(item, Frame) for item in iter_native(path)) != 1:
            raise RuntimeError(f"{path} did not read back its frame")

    write()
    size = sum(p.stat().st_size for p in scratch.glob("paper.bin*"))
    return read_back if read else write, lambda: {"per_call": {"row": rows},
                                                  "bytes_per_row": size / rows}


def lammps_parse(scratch):
    from gasdiff.md import Species
    from gasdiff.trajectory_io import parse_lammps_dump, write_lammps_dump

    _, traj = paper_frame()
    dump, rows = scratch / "paper.dump", traj.frames[0].n_particles
    write_lammps_dump(traj, traj.frames, dump)

    def call():
        if parse_lammps_dump(dump, {1: Species.HE, 2: Species.AR}).n_frames != 1:
            raise RuntimeError(f"{dump} did not parse back its frame")

    return call, lambda: {"per_call": {"row": rows}}


def binning(scratch):
    from gasdiff.binning import bin_trajectory
    from gasdiff.fields import GridSpec

    _, traj = paper_frame()
    return lambda: bin_trajectory(traj, GridSpec(d=2, n=100)), dict


def fd_solve(scratch):
    from gasdiff.fd_solver import SolverConfig, make_patch_initial, solve
    from gasdiff.fields import GridSpec

    grid = GridSpec(d=2, n=100)
    u0 = make_patch_initial(grid)
    config = SolverConfig(grid=grid, k=5.0e-3, diffusion=3.18e-3, n_max=1000)
    return lambda: solve(u0, config), lambda: {"per_call": {"step": 1000}}


def fit_problem(scratch):
    """perfbench's paper_fit reference and its problem, fitted from frame 0."""
    from gasdiff import fitting, pipeline
    from gasdiff.fields import UnitScale

    ref = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]["paper_fit"]
    spec = ref["input"]
    scale = UnitScale(box_length_cm=spec["box_side_a"] * 1e-8,
                      time_unit_s=spec["time_unit_s"])
    # a tree from before FitProblem checked and derived its own step built
    # it through FitProblem.from_binned, which takes the same arguments
    problem = getattr(fitting.FitProblem, "from_binned", fitting.FitProblem)
    return fitting, ref, problem(
        pipeline.read_binned_dir(scratch.parent / "paper_fit"), scale, init_from_frame0=True)


def fit(scratch):
    fitting, ref, problem = fit_problem(scratch)

    def call():
        return fitting.lm_fit(problem, ref["d0_nd"])

    result = call()
    peak = traced_peak_mb(call)
    return call, lambda: {"traced_peak_mb": peak, "d_opt_nd": result.d_opt_nd,
                          "cost": result.final_cost, "ci95_nd": result.ci95_nd,
                          "iterations": result.iterations}


def cost_curve(scratch):
    import numpy

    fitting, ref, problem = fit_problem(scratch)
    lo, hi = (f * ref["input"]["d_nd"] for f in ref["cost_curve_range"])
    points = numpy.linspace(lo, hi, ref["cost_curve_points"])
    return lambda: fitting.cost_curve(problem, points), dict


def reproduce_desk(scratch):
    from gasdiff import cli

    argv = ["reproduce", "--scale", "desk", "--seeds", "1", "--out",
            str(scratch / "reproduce")]

    def call():
        if cli.main(argv) != 0:
            raise RuntimeError(f"gasdiff {' '.join(argv)} failed")

    return call, dict


JOBS = {
    "md_init": md_init,
    "pair_search": pair_search,
    "forces": forces,
    "paper_md_1": lambda scratch: paper_md(1),
    "paper_md_7": lambda scratch: paper_md(7),
    "desk_md": lambda scratch: desk_md(scratch, write=False),
    "desk_md_write": lambda scratch: desk_md(scratch, write=True),
    "native_write": lambda scratch: native_io(scratch, read=False),
    "native_read": lambda scratch: native_io(scratch, read=True),
    "lammps_parse": lammps_parse,
    "binning": binning,
    "fd_solve": fd_solve,
    "fit": fit,
    "cost_curve": cost_curve,
    "reproduce_desk": reproduce_desk,
}


def serve(work: str) -> None:
    """One tree's process.  Reads lines ``JOB CALLS`` and answers each with
    a JSON line: ``{"s": seconds, "calls": n}`` for a block of CALLS calls
    (0: calls until BLOCK_S has passed), or ``{"missing": error}`` when the
    job's set-up or first block failed.  ``JOB summary`` answers with the
    job's summary."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # every process, one CPU
    reply_to, sys.stdout = sys.stdout, sys.stderr  # what a job prints stays out
    scratch = Path(tempfile.mkdtemp(dir=work))
    built = {}
    for line in sys.stdin:
        name, calls = line.split()
        if calls == "summary":
            reply = built[name][1]()
        else:
            new = name not in built
            try:
                if new:
                    built.clear()  # the last job's fixtures go before these are built
                    built[name] = JOBS[name](scratch)
                    built[name][0]()  # warm: every process makes this call
                call, calls, done = built[name][0], int(calls), 0
                start = time.perf_counter()
                while done < calls if calls else time.perf_counter() - start < BLOCK_S:
                    call()
                    done += 1
                reply = {"s": time.perf_counter() - start, "calls": done}
            except Exception as exc:
                if not new:
                    raise
                reply = {"missing": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(reply), file=reply_to, flush=True)


def ask(procs: dict, name: str, *words) -> dict:
    proc = procs[name]
    proc.stdin.write(" ".join(map(str, words)) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"the {name} process exited")
    return json.loads(line)


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4)[::2]


def pair_ratios(base: list, other: list) -> dict:
    """Per-pair ratios other / base, their median and quartiles, and the
    pairs that other won (ratio below 1)."""
    ratios = [b / a for a, b in zip(base, other)]
    return {"median": statistics.median(ratios), "quartiles": quartiles(ratios),
            "wins": sum(r < 1.0 for r in ratios), "pairs": len(ratios),
            "per_pair": ratios}


def run_job(procs: dict, job: str) -> dict:
    """BLOCKS blocks of one job in every process, in turn."""
    names, first = list(procs), next(iter(procs))
    blocks, calls, trees = {name: [] for name in names}, 0, {}
    for k in range(BLOCKS):
        if not names:  # every process missed the job
            break
        turn = k % len(names)
        order = names[turn:] + names[:turn]
        if k // len(names) % 2:
            order.reverse()
        for name in order:
            reply = ask(procs, name, job, calls)
            if "missing" in reply:  # only a job's first block can miss
                trees[name] = reply
                names.remove(name)
                del blocks[name]
                continue
            calls = reply["calls"]
            blocks[name].append(reply["s"])
    ratios = {}
    for name, spent in blocks.items():
        per_call = statistics.median(spent) / calls
        summary = ask(procs, name, job, "summary")
        trees[name] = {"median_ms": statistics.median(spent) * 1e3,
                       "quartiles_ms": [q * 1e3 for q in quartiles(spent)],
                       "ms_per_call": per_call * 1e3,
                       **{f"us_per_{unit}": per_call / count * 1e6
                          for unit, count in summary.pop("per_call", {}).items()},
                       **summary, "block_ms": [s * 1e3 for s in spent]}
        if name != first and first in blocks:
            ratios[f"{name}/{first}"] = pair_ratios(blocks[first], spent)
    return {"calls_per_block": calls, "trees": trees, "ratios": ratios}


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


def serve_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="*", metavar="NAME=SRC",
                    help="a label and the src directory to import gasdiff from")
    ap.add_argument("--out", help="JSON record to write")
    ap.add_argument("--serve", metavar="DIR",
                    help="be one tree's process; DIR holds the paper_fit input")
    args = ap.parse_args()

    if args.serve:
        serve(args.serve)
        return
    if not args.trees or not args.out:
        ap.error("give --out and at least one NAME=SRC")
    trees = dict(tree.split("=", 1) for tree in args.trees)
    first = next(iter(trees))
    jobs = {}
    with tempfile.TemporaryDirectory() as work:
        subprocess.run([sys.executable, str(PERFBENCH / "inputs.py"), "paper_fit", "1",
                        str(Path(work) / "paper_fit")], check=True)
        procs = {name: subprocess.Popen(
                     ["setarch", "-R", sys.executable, __file__, "--serve", work],
                     env=serve_env(src),
                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                 for name, src in {**trees, f"{first}_again": trees[first]}.items()}
        try:
            for job in JOBS:
                jobs[job] = result = run_job(procs, job)
                print(f"{job}: {result['calls_per_block']} calls per block; " + ", ".join(
                      f"{pair} {r['median']:.3f} ({r['wins']} of {r['pairs']} won)"
                      for pair, r in result["ratios"].items()), flush=True)
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait()
    src_lines = {name: src_lines_by_module(src) for name, src in trees.items()}
    src_code = {name: src_code_lines_by_module(src) for name, src in trees.items()}
    import numpy

    record = {
        "base": first, "blocks": BLOCKS, "block_s": BLOCK_S, "blas_threads": 1,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "src_lines": {name: sum(lines.values()) for name, lines in src_lines.items()},
        "src_lines_by_module": src_lines,
        "src_code_lines": {name: sum(lines.values())
                           for name, lines in src_code.items()},
        "src_code_lines_by_module": src_code,
        "jobs": jobs,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
