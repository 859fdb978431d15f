"""End-to-end orchestration: MD runs, binning, fitting, reporting.

Two presets are built in.  ``desk`` (500+500 particles in a 5e3 A box, 2e4
steps) runs one seed in 1.17 s, the median in BENCH_27.json; ``paper`` uses
the full production setup (3e4+3e4 particles in a 5e4 A box, 1e6 steps of
5 fs, sampled every 1000 steps).  Both walk the identical code path, only
the numbers differ.  A paper-scale step takes 0.539 ms (BENCH_27.json), or
9.0 minutes of MD per seed; the paper preset is not exercised by the test
suite.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import binning, fitting, md
from .errors import ParseError
from .fd_solver import FieldSeries
from .fields import (
    GridSpec,
    ScalarField,
    UnitScale,
    physical_to_nd_d,
    read_field_csv,
    write_field_csv,
    write_json,
    write_text,
)
from .trajectory_io import check_room, write_native_frames


@dataclass(frozen=True)
class Preset:
    name: str
    n_he: int
    n_ar: int
    box_side: float   # A
    dt: float         # fs
    n_steps: int
    sample_stride: int
    temperature: float
    n_values: tuple[int, ...]
    d0_nd: float      # fallback initial guess when the MSD estimate is unusable
    # Desk scale starts the FD model from binned frame 0, so the fit measures
    # the spreading from the observed start.  Paper scale starts from the
    # analytic patch, which the fit scales to binned frame 0's mass: binning
    # divides by the largest count, so the binned patch level lies below 1.
    init_from_frame0: bool = False

    @property
    def unit_scale(self) -> UnitScale:
        # box maps to the unit square; time is measured in nanoseconds
        return UnitScale(box_length_cm=self.box_side * 1e-8, time_unit_s=1e-9)

    def md_config(self, seed: int) -> md.MDConfig:
        return md.MDConfig(
            n_he=self.n_he,
            n_ar=self.n_ar,
            dt=self.dt,
            temperature=self.temperature,
            seed=seed,
            sample_stride=self.sample_stride,
        )


DESK = Preset(
    name="desk",
    n_he=500,
    n_ar=500,
    box_side=5.0e3,
    dt=5.0,
    n_steps=20000,
    sample_stride=200,
    temperature=300.0,
    n_values=(10, 20),
    d0_nd=0.05,
    init_from_frame0=True,
)

PAPER = Preset(
    name="paper",
    n_he=30000,
    n_ar=30000,
    box_side=5.0e4,
    dt=5.0,
    n_steps=1000000,
    sample_stride=1000,
    temperature=300.0,
    n_values=(20, 50, 100),
    d0_nd=3.0e-3,
)

PRESETS = {"desk": DESK, "paper": PAPER}


def write_binned_dir(series: binning.BinnedSeries, out_dir: Path,
                     source: str = "") -> None:
    """Per-frame concentration CSVs, with count CSVs when the series has a
    normalization_max, plus a binned.json manifest."""
    norm, times = series.normalization_max, series.times_fs.tolist()
    for i, (t, frame) in enumerate(zip(times, series.frames)):
        if norm is not None:
            write_field_csv(ScalarField(series.grid, np.rint(frame * norm)),
                            out_dir / f"counts_{i:04d}.csv", time=t)
        write_field_csv(ScalarField(series.grid, frame), out_dir / f"u_{i:04d}.csv", time=t)
    write_json(out_dir / "binned.json", {
        "n": series.grid.n,
        "d": series.grid.d,
        "normalization_max": norm,
        "species": series.species.label if series.species is not None else None,
        "times_fs": times,
        "source": source,
    })


def read_binned_dir(path: Path) -> binning.BinnedSeries:
    """The series that write_binned_dir wrote to ``path``, its times taken
    from binned.json.  A binned.json or a u_*.csv that is malformed, a
    u_*.csv whose time differs from binned.json's, a binned.json whose n
    and d are not u_0000.csv's grid, and a series that is not counts /
    normalization_max of one total are each a ParseError naming that file."""
    meta_path = path / "binned.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8", errors="replace"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"not JSON ({exc})", path=meta_path) from None
    if not isinstance(meta, dict):
        raise ParseError("expected a JSON object", path=meta_path)
    times, norm, species, n, d = (meta.get(key) for key in (
        "times_fs", "normalization_max", "species", "n", "d"))
    # an int beyond float range is not finite either
    if not (isinstance(times, list) and times and all(
            isinstance(t, (int, float)) and not isinstance(t, bool)
            and abs(t) <= sys.float_info.max for t in times)):
        raise ParseError("times_fs must be a nonempty list of finite numbers",
                         path=meta_path)
    if norm is not None and (not isinstance(norm, int) or isinstance(norm, bool)):
        raise ParseError(f"normalization_max must be an integer, got {norm!r}",
                         path=meta_path)
    # a list compares a JSON value that may be unhashable
    if species is not None and species not in [sp.label for sp in md.Species]:
        raise ParseError(f"unknown species {species!r}", path=meta_path)
    fields = []
    for i, t in enumerate(map(float, times)):
        field_path = path / f"u_{i:04d}.csv"
        f, t_csv = read_field_csv(field_path)
        if fields and f.grid != fields[0].grid:
            raise ParseError(f"grid {f.grid} differs from u_0000.csv's", path=field_path)
        if t_csv != t:
            raise ParseError(f"t={t_csv!r} differs from binned.json's times_fs[{i}] = {t!r}",
                             path=field_path)
        fields.append(f)
    grid = fields[0].grid
    # JSON's true and 2.0 equal ints, but are not a grid's
    if (n, d) != (grid.n, grid.d) or type(n) is not int or type(d) is not int:
        raise ParseError(f"n={n!r}, d={d!r} are not u_0000.csv's grid {grid}",
                         path=meta_path)
    try:
        return binning.BinnedSeries(grid, times, [f.values for f in fields], norm,
                                    md.Species[species.upper()] if species else None)
    except ValueError as exc:
        raise ParseError(str(exc), path=meta_path) from None


def write_fd_series_dir(series: FieldSeries, out_dir: Path,
                        oracle_frames=None) -> list[Path]:
    """Frame CSVs, oracle CSVs if given, and a series.json; returns the
    paths it wrote, in that order."""
    written = []
    for prefix, frames in (("frame", series.frames), ("oracle", oracle_frames or ())):
        for i, (frame, t) in enumerate(zip(frames, series.times)):
            written.append(out_dir / f"{prefix}_{i:04d}.csv")
            write_field_csv(frame, written[-1], time=float(t))
    cfg = series.config
    write_json(out_dir / "series.json", {
        "n": cfg.grid.n,
        "d": cfg.grid.d,
        "k": cfg.k,
        "diffusion": cfg.diffusion,
        "scheme": cfg.scheme.value,
        "n_max": cfg.n_max,
        "sample_stride": series.sample_stride,
        "times": [float(t) for t in series.times],
    })
    return written + [out_dir / "series.json"]


def fit_report_dict(result: fitting.FitResult) -> dict:
    return {
        "d_opt_nd": result.d_opt_nd,
        "d_opt_cm2_s": result.d_opt_cm2_s,
        "cost": result.final_cost,
        "iterations": result.iterations,
        "ci95": result.ci95_cm2_s,
        "ci95_nd": result.ci95_nd,
        "converged": result.converged,
        "cost_trace": list(result.cost_trace),
        "rejected_trials": result.rejected_trials,
    }


def _run_one_seed(preset: Preset, seed: int, seed_dir: Path,
                  manifest_writer=None):
    """MD run, MSD estimate, then bin+fit at every preset N.

    Each MD frame goes to the trajectory writer, the MSD and one binner per
    N as the run reaches it, and no frame is kept: memory is O(n + F N^2).
    ``manifest_writer(command, directory, config, outputs, wall_time_s)`` is
    called after each stage with that stage's wall time, its output writes
    included; the md-run stage includes the MSD and the binning counts.
    """
    started = time.perf_counter()
    box = md.SimBox(side=preset.box_side)
    cfg = preset.md_config(seed)
    msd_acc = md.MSDAccumulator(box.side, md.Species.AR)
    binners = {n: binning.Binner(box.side, GridSpec(d=2, n=n), md.Species.AR)
               for n in preset.n_values}

    def fan_out(frames):
        for frame in frames:
            for consumer in (msd_acc, *binners.values()):
                consumer.add(frame)
            yield frame

    traj_path = seed_dir / "trajectory.bin"
    write_native_frames(md.trajectory_header(cfg, box),
                        fan_out(md.iter_frames(cfg, box, preset.n_steps)), traj_path)
    if manifest_writer:
        manifest_writer("md-run", seed_dir, {"seed": seed}, [str(traj_path)],
                        time.perf_counter() - started)

    msd = msd_acc.estimate()
    scale = preset.unit_scale
    d0 = physical_to_nd_d(msd.diffusion_cm2_s, scale)
    if not np.isfinite(d0) or d0 <= 0:
        d0 = preset.d0_nd

    fits = {}
    for n in preset.n_values:
        started = time.perf_counter()
        series = binners[n].series()
        bin_dir = seed_dir / f"bin_N{n}"
        write_binned_dir(series, bin_dir, source=str(traj_path))
        if manifest_writer:
            manifest_writer("bin", bin_dir, {"N": n, "seed": seed},
                            [str(bin_dir / "binned.json")],
                            time.perf_counter() - started)
        started = time.perf_counter()
        result = fitting.lm_fit(fitting.FitProblem(
            series, scale, init_from_frame0=preset.init_from_frame0), d0)
        fits[n] = fit_report_dict(result)
        fit_dir = seed_dir / f"fit_N{n}"
        write_json(fit_dir / "report.json", fits[n])
        if manifest_writer:
            manifest_writer("fit", fit_dir, {"N": n, "seed": seed, "d0": d0},
                            [str(fit_dir / "report.json")],
                            time.perf_counter() - started)

    return {
        "seed": seed,
        "msd_d_cm2_s": msd.diffusion_cm2_s,
        "msd_r_squared": msd.r_squared,
        "fits": {str(n): fits[n] for n in preset.n_values},
    }


def run_reproduce(preset: Preset, seeds, out_dir: Path = Path("."),
                  manifest_writer=None) -> dict:
    """Full pipeline over seeds and binning resolutions, one seed after
    another.

    Writes per-seed artifacts under ``seed_<s>/``, a Table-2-shaped
    ``table.csv`` (N, mean D_opt, mean cost, mean CI) and ``report.json``
    holding the per-seed numbers that the averages came from.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("no seeds given")
    for name, values in (("seed", seeds), ("N", preset.n_values)):
        if repeated := [v for k, v in enumerate(values) if v in values[:k]]:
            raise ValueError(f"{name} {repeated[0]} is given more than once")
    out_dir = Path(out_dir)
    box = md.SimBox(side=preset.box_side)
    check_room(out_dir, [md.trajectory_header(preset.md_config(s), box) for s in seeds],
               preset.n_steps // preset.sample_stride + 1)

    runs = [_run_one_seed(preset, seed, out_dir / f"seed_{seed}", manifest_writer)
            for seed in seeds]

    summary = {}
    for n in preset.n_values:
        per_seed = [r["fits"][str(n)] for r in runs]
        summary[str(n)] = {
            "d_opt_cm2_s_mean": float(np.mean([f["d_opt_cm2_s"] for f in per_seed])),
            "cost_mean": float(np.mean([f["cost"] for f in per_seed])),
            "ci95_mean": float(np.mean([f["ci95"] for f in per_seed])),
        }

    report = {
        "preset": preset.name,
        "seeds": seeds,
        "n_values": list(preset.n_values),
        "runs": runs,
        "summary": summary,
    }
    write_json(out_dir / "report.json", report)

    lines = ["N,d_opt_cm2_s,cost,ci95"]
    for n in preset.n_values:
        s = summary[str(n)]
        lines.append(
            f"{n},{s['d_opt_cm2_s_mean']!r},{s['cost_mean']!r},{s['ci95_mean']!r}")
    write_text(out_dir / "table.csv", "\n".join(lines) + "\n")
    return report


# ---------------------------------------------------------------------------
# SVG heatmaps

_COLOR_LOW = (247, 251, 255)
_COLOR_HIGH = (8, 48, 107)
_COLOR_BINS = 16


def _bin_color(value: float) -> str:
    v = min(max(value, 0.0), 1.0)
    level = min(int(v * _COLOR_BINS), _COLOR_BINS - 1)
    frac = level / (_COLOR_BINS - 1)
    rgb = tuple(
        round(lo + frac * (hi - lo)) for lo, hi in zip(_COLOR_LOW, _COLOR_HIGH)
    )
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_heatmap_svg(field: ScalarField, cell_px: int = 8) -> str:
    """One colored rect per cell, linear 16-bin color map over [0, 1].

    Axis 0 of the field (x1) runs down the image, axis 1 (x2) runs right.
    """
    n = field.grid.n
    size = n * cell_px
    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {n} {n}" shape-rendering="crispEdges">'
    ]
    values = np.atleast_2d(field.values)
    for j1 in range(values.shape[0]):
        for j2 in range(values.shape[1]):
            color = _bin_color(float(values[j1, j2]))
            rows.append(f'<rect x="{j2}" y="{j1}" width="1" height="1" fill="{color}"/>')
    rows.append("</svg>")
    return "\n".join(rows) + "\n"
