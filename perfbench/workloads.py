"""Benchmark workloads and their output checks (BENCHMARK.json lists two).

Every workload drives gasdiff the way a user does: the CLI workloads call
``gasdiff.cli.main([...])`` in-process, and ``paper_md`` calls the public
``md`` functions.  ``iteration`` runs the workload once and returns the
seconds spent inside the program; preparing inputs, checking outputs and
deleting them happen outside that time.  Every command run and every
output check counts as one attempt in ``Checks``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

_INPUTS = Path(__file__).resolve().parent / "inputs.py"


class Checks:
    """Attempted and failed operations: commands run plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _rel_err(value: float, reference: float) -> float:
    return abs(value / reference - 1.0)


def _scale_args(spec: dict) -> list[str]:
    return ["--scale-box-cm", repr(spec["box_side_a"] * 1e-8),
            "--scale-time-s", repr(spec["time_unit_s"])]


class Workload:
    name = ""
    #: layers the traced run must record spans for
    layers: tuple[str, ...] = ()

    def __init__(self, seed: int, ref: dict, checks: Checks, state: Path):
        self.seed = seed
        self.ref = ref
        self.checks = checks
        self.state = state
        self.work = state / "work" / self.name
        self.report: dict[str, tuple[float, str, str]] = {}
        self._count = 0

    def prepare(self) -> None:
        """Create the seeded inputs (untimed)."""

    def setup_code(self) -> str:
        """Python source that prints the seconds a user waits before the
        first unit of work: importing gasdiff, plus any per-run set-up."""
        return ("import time\nt0 = time.perf_counter()\nimport gasdiff.cli\n"
                "print(time.perf_counter() - t0)\n")

    def begin(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def end(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def iteration(self) -> float:
        raise NotImplementedError

    def _next_dir(self) -> Path:
        self._count += 1
        out = self.work / f"iter{self._count}"
        out.mkdir(parents=True)
        return out

    def _cli(self, argv: list[str]) -> float:
        """Run one gasdiff command; returns its wall seconds."""
        from gasdiff import cli

        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
        self.checks.check(code == 0, f"gasdiff {argv[0]} exited {code}")
        return seconds

    def _cached_input(self) -> Path:
        """Input directory for this seed, made once by inputs.py in a child
        process; inputs of other seeds of this workload are deleted to bound
        disk use."""
        root = self.state / "inputs" / self.name
        final = root / f"seed-{self.seed}"
        if not final.is_dir():
            shutil.rmtree(root, ignore_errors=True)
            tmp = root / f"seed-{self.seed}.tmp"
            subprocess.run([sys.executable, str(_INPUTS), self.name,
                            str(self.seed), str(tmp)], check=True, timeout=600)
            tmp.rename(final)
        return final


class DeskReproduce(Workload):
    """``gasdiff reproduce`` at desk scale for one seed: MD, trajectory
    write, MSD, binning and fit at N = 10 and 20."""

    name = "desk_reproduce"
    layers = ("cli", "pipeline", "md", "trajectory_io", "binning", "fields",
              "fd_solver", "fitting")

    def prepare(self) -> None:
        # The MD seed cycles through the seeds whose table.csv is recorded.
        seeds = sorted(self.ref["tables"], key=int)
        self.md_seed = int(seeds[self.seed % len(seeds)])

    def iteration(self) -> float:
        out = self._next_dir()
        seconds = self._cli(["reproduce", "--scale", "desk",
                             "--seeds", str(self.md_seed), "--N", "10,20",
                             "--threads", "1", "--out", str(out)])
        if (out / "report.json").is_file():
            self._check_outputs(out)
        shutil.rmtree(out)
        return seconds

    def _check_outputs(self, out: Path) -> None:
        run = json.loads((out / "report.json").read_text())["runs"][0]
        ratio = run["fits"]["20"]["d_opt_cm2_s"] / run["msd_d_cm2_s"]
        lo, hi = self.ref["fit_msd_ratio"]
        self.checks.check(lo <= ratio <= hi,
                          f"desk fit/MSD ratio {ratio:.3f} outside [{lo}, {hi}]")
        self.report["fit_msd_ratio"] = (ratio, "ratio", "fit D (N=20) / MSD D")
        rows = [[float(v) for v in line.split(",")]
                for line in (out / "table.csv").read_text().split()[1:]]
        expected = self.ref["tables"][str(self.md_seed)]
        rtol = self.ref["table_rtol"]
        same = len(rows) == len(expected) and all(
            len(r) == len(e) and all(abs(a - b) <= rtol * abs(b)
                                     for a, b in zip(r, e))
            for r, e in zip(rows, expected))
        self.checks.check(same, f"desk table.csv for MD seed {self.md_seed} "
                                f"differs from reference beyond rtol {rtol}")


class DeskPipeline(Workload):
    """The desk pipeline as four short CLI commands: ``md-run`` (500 + 500
    particles, 2000 steps), ``bin`` at N=20, ``fit`` and ``msd``."""

    name = "desk_pipeline"
    layers = ("cli", "pipeline", "md", "trajectory_io", "binning", "fields",
              "fd_solver", "fitting")

    def prepare(self) -> None:
        # The MD seed cycles through the seeds whose results are recorded.
        seeds = sorted(self.ref["results"], key=int)
        self.md_seed = int(seeds[self.seed % len(seeds)])

    def iteration(self) -> float:
        ref = self.ref
        out = self._next_dir()
        traj = str(out / "traj.txt")
        seconds = self._cli(["md-run", "--n-he", str(ref["n_he"]),
                             "--n-ar", str(ref["n_ar"]),
                             "--box", repr(ref["box_side_a"]),
                             "--dt", repr(ref["dt_fs"]),
                             "--steps", str(ref["steps"]),
                             "--stride", str(ref["stride"]),
                             "--temp", repr(ref["temperature_k"]),
                             "--seed", str(self.md_seed), "--out", traj])
        seconds += self._cli(["bin", "--traj", traj, "--N", str(ref["N"]),
                              "--species", "ar", "--out", str(out / "bin")])
        fit, msd = out / "fit" / "report.json", out / "msd" / "msd.json"
        seconds += self._cli(["fit", "--binned", str(out / "bin"),
                              "--d0", repr(ref["d0_nd"]), *_scale_args(ref),
                              "--init-from-frame0", "--out", str(fit)])
        seconds += self._cli(["msd", "--traj", traj, "--species", "ar",
                              "--out", str(msd)])
        if fit.is_file() and msd.is_file():
            got = (json.loads(fit.read_text())["d_opt_nd"],
                   json.loads(msd.read_text())["d_cm2_s"])
            expected = self.ref["results"][str(self.md_seed)]
            rtol = self.ref["rtol"]
            self.checks.check(
                all(abs(a - b) <= rtol * abs(b) for a, b in zip(got, expected)),
                f"fit and MSD D for MD seed {self.md_seed} are {got}, "
                f"recorded {expected} (rtol {rtol})")
        shutil.rmtree(out)
        return seconds


class PaperMD(Workload):
    """Velocity-Verlet steps at paper density, timed in fixed blocks."""

    name = "paper_md"
    layers = ("md",)

    def setup_code(self) -> str:
        spec = self.ref
        return (
            "import time\nt0 = time.perf_counter()\n"
            "from gasdiff import md\n"
            f"cfg = md.MDConfig(n_he={spec['n_he']}, n_ar={spec['n_ar']}, "
            f"dt={spec['dt_fs']!r}, temperature={spec['temperature_k']!r}, "
            f"seed={self.seed})\n"
            f"box = md.SimBox(side={spec['box_side_a']!r})\n"
            "md.compute_forces(md.init_state(cfg, box), box)\n"
            "print(time.perf_counter() - t0)\n")

    def begin(self) -> None:
        import numpy as np
        from gasdiff import md

        spec = self.ref
        self.cfg = md.MDConfig(n_he=spec["n_he"], n_ar=spec["n_ar"],
                               dt=spec["dt_fs"], temperature=spec["temperature_k"],
                               seed=self.seed)
        self.box = md.SimBox(side=spec["box_side_a"])
        self.state_md = md.init_state(self.cfg, self.box)
        self.forces, potential = md.compute_forces(self.state_md, self.box)
        self.energy0 = md.kinetic_energy(self.state_md) + potential
        self.potential = potential
        self.masses = md.MASS_G_MOL[self.state_md.species][:, None]
        momenta = self.masses * self.state_md.velocities
        self.p_prev = momenta.sum(axis=0)
        self.p_scale = float(np.abs(momenta).sum())
        self.worst_dp = 0.0
        self.step_times: list[float] = []

    def iteration(self) -> float:
        import numpy as np
        from gasdiff import md

        seconds = 0.0
        for _ in range(self.ref["block_steps"]):
            start = time.perf_counter()
            self.state_md, self.forces, self.potential = md.verlet_step(
                self.state_md, self.forces, self.cfg, self.box)
            step = time.perf_counter() - start
            self.step_times.append(step)
            seconds += step
            p_now = (self.masses * self.state_md.velocities).sum(axis=0)
            self.worst_dp = max(self.worst_dp,
                                float(np.max(np.abs(p_now - self.p_prev))))
            self.p_prev = p_now
        return seconds

    def end(self) -> None:
        from gasdiff import md

        steps = len(self.step_times)
        momentum = self.worst_dp / self.p_scale
        limit = self.ref["momentum_rel_per_step_max"]
        self.checks.check(momentum <= limit,
                          f"net momentum moved {momentum:.2e} rel in one step "
                          f"(limit {limit})")
        energy = md.kinetic_energy(self.state_md) + self.potential
        drift = abs(energy - self.energy0) / abs(self.energy0)
        limit = self.ref["energy_drift_rel_max"]
        self.checks.check(drift <= limit,
                          f"NVE energy drift {drift:.2e} over {steps} steps "
                          f"(limit {limit})")
        step_s = statistics.median(self.step_times)
        self.report["paper_hours_per_seed"] = (
            step_s * self.ref["paper_steps"] / 3600.0, "h",
            f"median step {step_s * 1e3:.2f} ms x {self.ref['paper_steps']:.0e} steps")
        self.report["momentum_rel_per_step"] = (momentum, "ratio",
                                                f"worst of {steps} steps")
        self.report["energy_drift_rel"] = (drift, "ratio", f"over {steps} steps")


class DumpAnalysis(Workload):
    """External-MD path: LAMMPS dump -> native, bin and fit at three N,
    then MSD, on a seeded Brownian dump with known D."""

    name = "dump_analysis"
    layers = ("cli", "pipeline", "md", "trajectory_io", "binning", "fields",
              "fd_solver", "fitting")

    def prepare(self) -> None:
        self.dump = self._cached_input() / "dump.lammpstrj"

    def iteration(self) -> float:
        spec, ref = self.ref["input"], self.ref
        out = self._next_dir()
        traj = str(out / "traj.txt")
        dt_fs = spec["frame_dt_fs"] / spec["timestep_stride"]
        seconds = self._cli(["convert", "--in", str(self.dump), "--to", "native",
                             "--species-map", "1=He,2=Ar", "--dt", repr(dt_fs),
                             "--out", traj])
        for n in ref["N"]:
            seconds += self._cli(["bin", "--traj", traj, "--N", str(n),
                                  "--species", "ar", "--out", str(out / f"bin_N{n}")])
            seconds += self._cli(["fit", "--binned", str(out / f"bin_N{n}"),
                                  "--d0", repr(ref["d0_nd"]), *_scale_args(spec),
                                  "--init-from-frame0",
                                  "--out", str(out / f"fit_N{n}" / "report.json")])
        seconds += self._cli(["msd", "--traj", traj, "--species", "ar",
                              "--out", str(out / "msd" / "msd.json")])
        fit = out / f"fit_N{ref['fit_N']}" / "report.json"
        msd = out / "msd" / "msd.json"
        if fit.is_file() and msd.is_file():
            d_err = _rel_err(json.loads(fit.read_text())["d_opt_nd"], spec["d_nd"])
            box_cm = spec["box_side_a"] * 1e-8
            d_cm2_s = spec["d_nd"] * box_cm ** 2 / spec["time_unit_s"]
            msd_err = _rel_err(json.loads(msd.read_text())["d_cm2_s"], d_cm2_s)
            self.checks.check(d_err <= ref["d_rel_err_max"],
                              f"fit D at N={ref['fit_N']} is off by {d_err:.3f} "
                              f"(limit {ref['d_rel_err_max']})")
            self.checks.check(msd_err <= ref["msd_rel_err_max"],
                              f"MSD D is off by {msd_err:.3f} "
                              f"(limit {ref['msd_rel_err_max']})")
            self.report["d_rel_err"] = (d_err, "ratio",
                                        f"fit at N={ref['fit_N']} vs generating D")
            self.report["msd_rel_err"] = (msd_err, "ratio", "MSD vs generating D")
        shutil.rmtree(out)
        return seconds


class PaperFit(Workload):
    """``fit`` plus a short ``cost-curve`` on a seeded paper-shape binned
    directory (N=100 x 1001 frames) with known D."""

    name = "paper_fit"
    layers = ("cli", "pipeline", "fields", "fd_solver", "fitting")

    def prepare(self) -> None:
        self.binned = self._cached_input()

    def iteration(self) -> float:
        spec, ref = self.ref["input"], self.ref
        out = self._next_dir()
        common = [*_scale_args(spec), "--init-from-frame0"]
        report, curve = out / "fit" / "report.json", out / "curve" / "curve.csv"
        seconds = self._cli(["fit", "--binned", str(self.binned),
                             "--d0", repr(ref["d0_nd"]), *common,
                             "--out", str(report)])
        lo, hi = (f * spec["d_nd"] for f in ref["cost_curve_range"])
        seconds += self._cli(["cost-curve", "--binned", str(self.binned),
                              "--d-min", repr(lo), "--d-max", repr(hi),
                              "--points", str(ref["cost_curve_points"]), *common,
                              "--out", str(curve)])
        if report.is_file() and curve.is_file():
            fit = json.loads(report.read_text())
            d_err = _rel_err(fit["d_opt_nd"], spec["d_nd"])
            self.checks.check(d_err <= ref["d_rel_err_max"],
                              f"fit D at N={spec['N']} is off by {d_err:.4f} "
                              f"(limit {ref['d_rel_err_max']})")
            costs = [float(line.split(",")[1])
                     for line in curve.read_text().split()[1:]]
            self.checks.check(fit["cost"] <= min(costs),
                              "fitted cost exceeds the cost-curve minimum")
            self.report["d_rel_err"] = (d_err, "ratio",
                                        f"fit at N={spec['N']} vs generating D")
        shutil.rmtree(out)
        return seconds


WORKLOADS = {w.name: w for w in (DeskReproduce, DeskPipeline, PaperMD,
                                  DumpAnalysis, PaperFit)}
