"""Command-line interface.

One executable with subcommands covering the whole pipeline:

    gasdiff md-run     NVE Lennard-Jones simulation -> native trajectory
    gasdiff fd-run     FD solution of the diffusion equation -> CSV frames
    gasdiff bin        trajectory -> per-frame concentration fields
    gasdiff fit        binned series -> optimal diffusion coefficient
    gasdiff msd        mean-squared-displacement estimate
    gasdiff convert    native <-> LAMMPS dump trajectory formats
    gasdiff amp-plot   amplification factors near the critical step
    gasdiff cost-curve cost(D) table around the minimum
    gasdiff heatmap    field CSV -> SVG
    gasdiff reproduce  full multi-seed pipeline (desk or paper scale)

Each ``cmd_*`` does its work and returns its ``(inputs, outputs)``.  ``main``
does the rest once for every command: it times the command, writes exactly
one manifest.json next to its outputs, with that wall time and the values
the command ran with, and maps exceptions to exit codes: 0 success, 2 usage
error, 3 unreadable/malformed input, 4 numerical instability.

Every option's built-in default sits in its ``add_argument``.  A ``--config``
file's key=value lines become the chosen subcommand's defaults for the
options that take a value, so a flag beats the file and the file beats the
built-in default.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, binning, fitting, md, pipeline
from .errors import GasdiffError, InstabilityError, ParseError
from .fd_solver import (SchemeKind, SolverConfig, amplification_factors,
                        critical_time_step, make_patch_initial, solve)
from .analytic import patch_solution_on_grid
from .fields import GridSpec, UnitScale, read_field_csv, write_json, write_text
from .md import MDConfig, SimBox, Species
from .trajectory_io import (check_room, iter_lammps_dump, iter_native, write_lammps_dump,
                            write_native_frames)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INSTABILITY = 4

# Commands whose --out is a directory; the manifest goes inside it.  Every
# other command writes its manifest next to its --out file.
_OUT_DIR_COMMANDS = {"fd-run", "bin", "reproduce"}


def write_manifest(directory, command: str, config: dict, inputs, outputs,
                   wall_time_s: float, seed) -> None:
    write_json(Path(directory) / "manifest.json", dict(
        command=command, config=config, inputs=[str(p) for p in inputs],
        outputs=[str(p) for p in outputs], seed=seed, version=__version__,
        wall_time_s=wall_time_s))


def _load_config_file(path) -> dict:
    """key=value lines; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", path=path, line=lineno)
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _parse_species_map(text: str) -> dict[int, Species]:
    mapping = {}
    for item in text.split(","):
        if "=" not in item:
            raise ParseError(f"bad species-map entry {item!r} (use e.g. 1=He,2=Ar)")
        type_id, label = map(str.strip, item.split("=", 1))
        try:
            type_id = int(type_id)
        except ValueError:
            raise ParseError(f"bad type id in species-map entry {item!r}") from None
        if type_id in mapping:
            raise ParseError(f"type id {type_id} is given more than once in the species map")
        try:
            mapping[type_id] = Species[label.upper()]
        except KeyError:
            raise ParseError(f"unknown species {label!r} (use he or ar)") from None
    return mapping


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# subcommands: each returns (inputs, outputs) for its manifest


def cmd_md_run(args):
    cfg = MDConfig(n_he=args.n_he, n_ar=args.n_ar, dt=args.dt,
                   temperature=args.temp, seed=args.seed, sample_stride=args.stride)
    box = SimBox(side=args.box)
    out = Path(args.out)
    header, frames = md.trajectory_header(cfg, box), md.iter_frames(cfg, box, args.steps)
    check_room(out.parent, [header], args.steps // args.stride + 1)
    write_native_frames(header, frames, out)
    return [], [out]


def cmd_fd_run(args):
    grid = GridSpec(d=2, n=args.N)
    config = SolverConfig(grid=grid, k=args.k, diffusion=args.D,
                          scheme=SchemeKind(args.scheme), n_max=args.steps)
    series = solve(make_patch_initial(grid), config, sample_stride=args.stride)
    oracle = [patch_solution_on_grid(grid, float(t), config.diffusion, args.modes)
              for t in series.times] if args.oracle else None
    return [], pipeline.write_fd_series_dir(series, Path(args.out), oracle_frames=oracle)


def cmd_amp_plot(args):
    grid = GridSpec(d=args.d, n=args.N)
    factors = [float(f) for f in args.k_factors.split(",")]
    if bad := [f for f in factors if not 0.0 < f < np.inf]:
        raise ValueError(f"k factors must be positive and finite, got {bad[0]!r}")
    k_c = critical_time_step(grid, args.D)
    m = np.arange(grid.n // 2 + 1)
    header = ["m_over_n"] + [f"{s}_{f}kc" for s in ("fe", "cn") for f in factors]
    # each scheme's factor at the diagonal modes (m, ..., m)
    columns = [np.sqrt(grid.d) * m / grid.n] + [
        amplification_factors(scheme, f * k_c, args.D, grid)[(m,) * grid.d]
        for scheme in (SchemeKind.FORWARD_EULER, SchemeKind.CRANK_NICOLSON)
        for f in factors]
    rows = [",".join(header)]
    rows += [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    out = Path(args.out)
    write_text(out, "\n".join(rows) + "\n")
    return [], [out]


def cmd_bin(args):
    grid = GridSpec(d=2, n=args.N)
    frames = iter_native(args.traj)
    binner = binning.Binner(next(frames).box_side, grid, Species[args.species.upper()])
    for frame in frames:
        binner.add(frame)
    out_dir = Path(args.out)
    pipeline.write_binned_dir(binner.series(), out_dir, source=str(args.traj))
    return [args.traj], [out_dir / "binned.json"]


def _fit_problem(args) -> fitting.FitProblem:
    """The fit problem of ``fit`` and ``cost-curve``: the --binned series
    at the --scale-* units, --substeps and --init-from-frame0."""
    return fitting.FitProblem(
        pipeline.read_binned_dir(Path(args.binned)),
        UnitScale(box_length_cm=args.scale_box_cm, time_unit_s=args.scale_time_s),
        substeps=args.substeps, init_from_frame0=args.init_from_frame0)


def cmd_fit(args):
    result = fitting.lm_fit(_fit_problem(args), args.d0)
    out = Path(args.out)
    write_json(out, pipeline.fit_report_dict(result))
    return [args.binned], [out]


def cmd_cost_curve(args):
    curve = fitting.cost_curve(_fit_problem(args),
                               np.linspace(args.d_min, args.d_max, args.points))
    rows = ["d_nd,cost"] + [f"{float(d)!r},{float(c)!r}" for d, c in curve]
    out = Path(args.out)
    write_text(out, "\n".join(rows) + "\n")
    return [args.binned], [out]


def cmd_msd(args):
    frames = iter_native(args.traj)
    msd = md.MSDAccumulator(next(frames).box_side, Species[args.species.upper()])
    for frame in frames:
        msd.add(frame)
    result = msd.estimate(args.t_lo, args.t_hi, use_3d_factor=args.use_3d_factor)
    out = Path(args.out)
    write_json(out, dict(
        d_a2_fs=result.diffusion, d_cm2_s=result.diffusion_cm2_s,
        slope_a2_fs=result.slope, intercept_a2=result.intercept,
        r_squared=result.r_squared, n_frames=result.n_frames))
    return [args.traj], [out]


def cmd_convert(args):
    """Stream the trajectory one frame at a time each way.  ``next(frames)``
    checks the input (and --dt) and reads its header, which the writer
    takes first."""
    if args.to == "lammps" and args.dt is not None:
        raise ValueError("--dt applies only to dump input (--to native)")
    if args.to == "native":
        frames = iter_lammps_dump(args.infile, _parse_species_map(args.species_map),
                                  dt_fs=args.dt)
        write = write_native_frames
    else:
        frames, write = iter_native(args.infile), write_lammps_dump
    out = Path(args.out)
    write(next(frames), frames, out)
    return [args.infile], [out]


def cmd_heatmap(args):
    field, _ = read_field_csv(args.field)
    out = Path(args.out)
    write_text(out, pipeline.render_heatmap_svg(field))
    return [args.field], [out]


def cmd_reproduce(args):
    out_dir = Path(args.out)
    stage_manifests = []

    def stage_writer(command, directory, config, outputs, wall_time_s):
        write_manifest(directory, command, config, [], outputs, wall_time_s,
                       config.get("seed"))
        stage_manifests.append(str(Path(directory) / "manifest.json"))

    preset = pipeline.PRESETS[args.scale]
    if args.N:
        preset = replace(preset, n_values=tuple(_int_list(args.N)))
    pipeline.run_reproduce(preset, _int_list(args.seeds), out_dir=out_dir,
                           manifest_writer=stage_writer)
    return [], [out_dir / "report.json", out_dir / "table.csv", *stage_manifests]


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasdiff",
        description="Estimate gas diffusion coefficients from Lennard-Jones "
                    "MD simulations matched against finite-difference "
                    "solutions of the diffusion equation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value defaults file")
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("md-run", parents=[common], help="run an NVE MD simulation")
    p.add_argument("--n-he", type=int, default=500)
    p.add_argument("--n-ar", type=int, default=500)
    p.add_argument("--box", type=float, default=5.0e3, help="box side in Angstroms")
    p.add_argument("--dt", type=float, default=5.0, help="time step in fs")
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--stride", type=int, default=200, help="steps between saved frames")
    p.add_argument("--temp", type=float, default=300.0, help="temperature in K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="native trajectory file")
    p.set_defaults(func=cmd_md_run)

    p = sub.add_parser("fd-run", parents=[common],
                       help="solve the diffusion equation from the patch")
    p.add_argument("--N", type=int, default=50)
    p.add_argument("--D", type=float, default=3.18e-3, help="diffusion coefficient (nd)")
    p.add_argument("--k", type=float, default=5.0e-3, help="time step (nd)")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--scheme", choices=["fe", "cn"], default="cn")
    p.add_argument("--stride", type=int, default=100)
    p.add_argument("--oracle", action="store_true",
                   help="also write Fourier-oracle frames at the same times")
    p.add_argument("--modes", type=int, default=64, help="oracle truncation per axis")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fd_run)

    p = sub.add_parser("amp-plot", parents=[common],
                       help="amplification factors vs scaled wavenumber")
    p.add_argument("--N", type=int, default=50)
    p.add_argument("--D", type=float, default=1.0)
    p.add_argument("--d", type=int, choices=[1, 2], default=1)
    p.add_argument("--k-factors", default="0.5,1.0,1.5",
                   help="comma-separated multiples of the critical step")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_amp_plot)

    p = sub.add_parser("bin", parents=[common], help="bin a trajectory onto the FD grid")
    p.add_argument("--traj", required=True)
    p.add_argument("--N", type=int, default=20)
    p.add_argument("--species", choices=[sp.name.lower() for sp in Species], default="ar")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bin)

    p = sub.add_parser("fit", parents=[common],
                       help="fit the diffusion coefficient to a binned series")
    p.add_argument("--binned", required=True, help="directory from 'bin'")
    p.add_argument("--d0", type=float, default=3.0e-3, help="initial guess (nd units)")
    p.add_argument("--scale-box-cm", type=float, default=5.0e-4)
    p.add_argument("--scale-time-s", type=float, default=1.0e-9)
    p.add_argument("--substeps", type=int, default=1)
    p.add_argument("--init-from-frame0", action="store_true",
                   help="start the FD model from the binned frame 0 instead "
                        "of the idealized patch")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cost-curve", parents=[common],
                       help="tabulate cost(D) over a grid")
    p.add_argument("--binned", required=True)
    p.add_argument("--d-min", type=float, required=True)
    p.add_argument("--d-max", type=float, required=True)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--scale-box-cm", type=float, default=5.0e-4)
    p.add_argument("--scale-time-s", type=float, default=1.0e-9)
    p.add_argument("--substeps", type=int, default=1)
    p.add_argument("--init-from-frame0", action="store_true")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_cost_curve)

    p = sub.add_parser("msd", parents=[common],
                       help="mean-squared-displacement diffusion estimate")
    p.add_argument("--traj", required=True)
    p.add_argument("--species", choices=[sp.name.lower() for sp in Species], default="ar")
    p.add_argument("--t-lo", type=float, help="window start (fs)")
    p.add_argument("--t-hi", type=float, help="window end (fs)")
    p.add_argument("--use-3d-factor", action="store_true",
                   help="divide the slope by 6 instead of 2d=4")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_msd)

    p = sub.add_parser("convert", parents=[common],
                       help="convert between trajectory formats")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--to", required=True, choices=["native", "lammps"])
    p.add_argument("--species-map", default="1=He,2=Ar",
                   help="LAMMPS type ids, e.g. 1=He,2=Ar")
    p.add_argument("--dt", type=float, help="fs per timestep for dump input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("heatmap", parents=[common], help="render a field as SVG")
    p.add_argument("--field", required=True, help="field CSV")
    p.add_argument("--out", required=True, help="output SVG")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("reproduce", parents=[common],
                       help="run the full pipeline at a preset scale")
    p.add_argument("--scale", choices=["desk", "paper"], default="desk")
    p.add_argument("--seeds", default="1,2,3",
                   help="comma-separated seeds (default 1,2,3)")
    p.add_argument("--N", help="comma-separated binning resolutions")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            values = _load_config_file(args.config)
        except (OSError, ParseError, UnicodeDecodeError) as exc:
            print(f"gasdiff: cannot read config: {exc}", file=sys.stderr)
            return EXIT_INPUT
        # argparse casts a string default through the option's type, so a bad
        # value is a usage error (exit 2); store_true flags take no value.
        sub = parser._subparsers._group_actions[0].choices[args.command]
        applied = [a for a in sub._actions if a.dest in values and a.nargs != 0]
        sub.set_defaults(**{a.dest: values[a.dest] for a in applied})
        args = parser.parse_args(argv)
        try:  # argparse checks only a flag's value against the option's choices
            for action in applied:
                sub._check_value(action, getattr(args, action.dest))
        except argparse.ArgumentError as exc:
            sub.error(str(exc))
    try:
        started = time.perf_counter()
        inputs, outputs = args.func(args)
        wall_time_s = time.perf_counter() - started
        out = Path(args.out)
        config = {k: v for k, v in vars(args).items()
                  if k not in ("func", "config", "verbose")}
        write_manifest(out if args.command in _OUT_DIR_COMMANDS else out.parent,
                       args.command, config, inputs, outputs, wall_time_s,
                       getattr(args, "seed", None))
        if args.verbose:
            print(f"gasdiff {args.command}: exit {EXIT_OK} in {wall_time_s:.2f}s",
                  file=sys.stderr)
        return EXIT_OK
    except InstabilityError as exc:
        print(f"gasdiff: instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except (ParseError, OSError) as exc:
        print(f"gasdiff: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GasdiffError, ValueError) as exc:
        print(f"gasdiff: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
