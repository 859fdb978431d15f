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

Every command writes exactly one manifest.json next to its outputs.  Exit
codes: 0 success, 2 usage error, 3 unreadable/malformed input, 4 numerical
instability.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, binning, fitting, md, pipeline
from .errors import GasdiffError, InstabilityError, ParseError
from .fd_solver import (
    SchemeKind,
    SolverConfig,
    amplification_factor,
    critical_time_step,
    make_patch_initial,
    solve,
)
from .analytic import patch_solution_on_grid
from .fields import GridSpec, UnitScale, read_field_csv
from .md import MDConfig, SimBox, Species
from .trajectory_io import (
    iter_native,
    parse_lammps_dump,
    read_native,
    read_native_header,
    write_lammps_dump,
    write_native,
    write_native_frames,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INSTABILITY = 4


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: list
    outputs: list
    version: str
    wall_time_s: float
    seed: int | None = None


def _write_manifest(directory: Path, manifest: RunManifest) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "manifest.json"
    path.write_text(
        json.dumps(asdict(manifest), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def _manifest_for(command: str, args_dict: dict, inputs, outputs, started: float,
                  seed=None) -> RunManifest:
    config = {k: v for k, v in sorted(args_dict.items())
              if not k.startswith("_") and k not in ("func", "config", "verbose")}
    return RunManifest(
        command=command,
        config=config,
        inputs=[str(p) for p in inputs],
        outputs=[str(p) for p in outputs],
        version=__version__,
        wall_time_s=time.monotonic() - started,
        seed=seed,
    )


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


def _resolve(args, key, default, cast):
    """Precedence: command-line flag > config file > built-in default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    cfg = getattr(args, "_config_values", {})
    if key in cfg:
        return cast(cfg[key])
    return default


def _species_from_name(name: str) -> Species:
    try:
        return {"he": Species.HE, "ar": Species.AR}[name.lower()]
    except KeyError:
        raise ParseError(f"unknown species {name!r} (use he or ar)") from None


def _parse_species_map(text: str) -> dict[int, Species]:
    mapping = {}
    for item in text.split(","):
        if "=" not in item:
            raise ParseError(f"bad species-map entry {item!r} (use e.g. 1=He,2=Ar)")
        type_id, label = item.split("=", 1)
        try:
            mapping[int(type_id)] = _species_from_name(label.strip())
        except ValueError:
            raise ParseError(f"bad type id in species-map entry {item!r}") from None
    return mapping


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# subcommands


def cmd_md_run(args) -> int:
    started = time.monotonic()
    cfg = MDConfig(
        n_he=_resolve(args, "n_he", 500, int),
        n_ar=_resolve(args, "n_ar", 500, int),
        dt=_resolve(args, "dt", 5.0, float),
        temperature=_resolve(args, "temp", 300.0, float),
        seed=_resolve(args, "seed", 0, int),
        sample_stride=_resolve(args, "stride", 200, int),
    )
    box = SimBox(side=_resolve(args, "box", 5.0e3, float))
    steps = _resolve(args, "steps", 20000, int)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_native_frames(md.trajectory_header(cfg, box), md.iter_frames(cfg, box, steps),
                        out)
    _write_manifest(out.parent, _manifest_for(
        "md-run", vars(args), [], [out], started, seed=cfg.seed))
    return EXIT_OK


def cmd_fd_run(args) -> int:
    started = time.monotonic()
    grid = GridSpec(d=2, n=_resolve(args, "N", 50, int))
    config = SolverConfig(
        grid=grid,
        k=_resolve(args, "k", 5.0e-3, float),
        diffusion=_resolve(args, "D", 3.18e-3, float),
        scheme=SchemeKind(_resolve(args, "scheme", "cn", str)),
        n_max=_resolve(args, "steps", 1000, int),
    )
    stride = _resolve(args, "stride", 100, int)
    series = solve(make_patch_initial(grid), config, sample_stride=stride)
    oracle = None
    if args.oracle:
        modes = _resolve(args, "modes", 64, int)
        oracle = [
            patch_solution_on_grid(grid, float(t), config.diffusion, modes)
            for t in series.times
        ]
    out_dir = Path(args.out)
    pipeline.write_fd_series_dir(series, out_dir, oracle_frames=oracle)
    outputs = sorted(str(p) for p in out_dir.glob("*.csv")) + [str(out_dir / "series.json")]
    _write_manifest(out_dir, _manifest_for("fd-run", vars(args), [], outputs, started))
    return EXIT_OK


def cmd_amp_plot(args) -> int:
    started = time.monotonic()
    grid = GridSpec(d=_resolve(args, "d", 1, int), n=_resolve(args, "N", 50, int))
    diffusion = _resolve(args, "D", 1.0, float)
    factors = [float(f) for f in _resolve(args, "k_factors", "0.5,1.0,1.5", str).split(",")]
    k_c = critical_time_step(grid, diffusion)

    header = ["m_over_n"]
    for scheme in ("fe", "cn"):
        header.extend(f"{scheme}_{f}kc" for f in factors)
    rows = [",".join(header)]
    for m in range(grid.n // 2 + 1):
        mvec = (m,) * grid.d
        cells = [repr(float(np.sqrt(grid.d) * m / grid.n))]
        for scheme in (SchemeKind.FORWARD_EULER, SchemeKind.CRANK_NICOLSON):
            for f in factors:
                rho = amplification_factor(scheme, mvec, f * k_c, diffusion, grid)
                cells.append(repr(float(rho)))
        rows.append(",".join(cells))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_manifest(out.parent, _manifest_for(
        "amp-plot", vars(args), [], [out], started))
    return EXIT_OK


def cmd_bin(args) -> int:
    started = time.monotonic()
    grid = GridSpec(d=2, n=_resolve(args, "N", 20, int))
    species = _species_from_name(_resolve(args, "species", "ar", str))
    binner = binning.Binner(read_native_header(args.traj).box_side, grid, species)
    for frame in iter_native(args.traj):
        binner.add(frame)
    series = binner.series(per_frame_max=args.per_frame_max)
    out_dir = Path(args.out)
    pipeline.write_binned_dir(series, out_dir, source=str(args.traj))
    outputs = [str(out_dir / "binned.json")]
    _write_manifest(out_dir, _manifest_for(
        "bin", vars(args), [args.traj], outputs, started))
    return EXIT_OK


def cmd_fit(args) -> int:
    started = time.monotonic()
    series = pipeline.read_binned_dir(Path(args.binned))
    scale = UnitScale(
        box_length_cm=_resolve(args, "scale_box_cm", 5.0e-4, float),
        time_unit_s=_resolve(args, "scale_time_s", 1.0e-9, float),
    )
    result = pipeline.fit_binned(
        series, scale,
        d0_nd=_resolve(args, "d0", 3.0e-3, float),
        substeps=_resolve(args, "substeps", 1, int),
        init_from_frame0=args.init_from_frame0,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(pipeline.fit_report_dict(result), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    _write_manifest(out.parent, _manifest_for(
        "fit", vars(args), [args.binned], [out], started))
    return EXIT_OK


def cmd_cost_curve(args) -> int:
    started = time.monotonic()
    series = pipeline.read_binned_dir(Path(args.binned))
    scale = UnitScale(
        box_length_cm=_resolve(args, "scale_box_cm", 5.0e-4, float),
        time_unit_s=_resolve(args, "scale_time_s", 1.0e-9, float),
    )
    problem = fitting.FitProblem.from_binned(
        series, scale, substeps=_resolve(args, "substeps", 1, int),
        init_from_frame0=args.init_from_frame0,
    )
    d_values = np.linspace(args.d_min, args.d_max, _resolve(args, "points", 25, int))
    curve = fitting.cost_curve(problem, d_values)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = ["d_nd,cost"] + [f"{float(d)!r},{float(c)!r}" for d, c in curve]
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_manifest(out.parent, _manifest_for(
        "cost-curve", vars(args), [args.binned], [out], started))
    return EXIT_OK


def cmd_msd(args) -> int:
    started = time.monotonic()
    species = _species_from_name(_resolve(args, "species", "ar", str))
    msd = md.MSDAccumulator(read_native_header(args.traj).box_side, species)
    for frame in iter_native(args.traj):
        msd.add(frame)
    window = None
    if msd.times and (args.t_lo is not None or args.t_hi is not None):
        t_lo = args.t_lo if args.t_lo is not None else msd.times[0]
        t_hi = args.t_hi if args.t_hi is not None else msd.times[-1]
        window = (t_lo, t_hi)
    result = msd.estimate(fit_window=window, use_3d_factor=args.use_3d_factor)
    report = {
        "d_a2_fs": result.diffusion,
        "d_cm2_s": result.diffusion_cm2_s,
        "slope_a2_fs": result.slope,
        "intercept_a2": result.intercept,
        "r_squared": result.r_squared,
        "n_frames": result.n_frames,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                   encoding="utf-8")
    _write_manifest(out.parent, _manifest_for(
        "msd", vars(args), [args.traj], [out], started))
    return EXIT_OK


def cmd_convert(args) -> int:
    started = time.monotonic()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.to == "native":
        species_map = _parse_species_map(_resolve(args, "species_map", "1=He,2=Ar", str))
        traj = parse_lammps_dump(args.infile, species_map, dt_fs=args.dt)
        write_native(traj, out)
    else:
        traj = read_native(args.infile)
        write_lammps_dump(traj, out)
    _write_manifest(out.parent, _manifest_for(
        "convert", vars(args), [args.infile], [out], started))
    return EXIT_OK


def cmd_heatmap(args) -> int:
    started = time.monotonic()
    field, _ = read_field_csv(args.field)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(pipeline.render_heatmap_svg(field), encoding="utf-8")
    _write_manifest(out.parent, _manifest_for(
        "heatmap", vars(args), [args.field], [out], started))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    started = time.monotonic()
    preset = pipeline.PRESETS[args.scale]
    seeds = _int_list(_resolve(args, "seeds", "1,2,3", str))
    n_values = _int_list(args.N) if args.N else None
    out_dir = Path(args.out)
    stage_manifests = []

    def stage_writer(command, directory, config, outputs, wall_time_s):
        manifest = RunManifest(
            command=command, config=config, inputs=[], outputs=outputs,
            version=__version__, wall_time_s=wall_time_s, seed=config.get("seed"),
        )
        _write_manifest(Path(directory), manifest)
        stage_manifests.append(str(Path(directory) / "manifest.json"))

    pipeline.run_reproduce(
        preset, seeds, n_values=n_values, out_dir=out_dir,
        threads=_resolve(args, "threads", 1, int),
        manifest_writer=stage_writer,
    )
    outputs = [str(out_dir / "report.json"), str(out_dir / "table.csv")]
    _write_manifest(out_dir, _manifest_for(
        "reproduce", vars(args), [], outputs + stage_manifests, started))
    return EXIT_OK


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
    common.add_argument("--threads", type=int, default=None)
    common.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("md-run", parents=[common], help="run an NVE MD simulation")
    p.add_argument("--n-he", type=int, dest="n_he")
    p.add_argument("--n-ar", type=int, dest="n_ar")
    p.add_argument("--box", type=float, help="box side in Angstroms")
    p.add_argument("--dt", type=float, help="time step in fs")
    p.add_argument("--steps", type=int)
    p.add_argument("--stride", type=int, help="steps between saved frames")
    p.add_argument("--temp", type=float, help="temperature in K")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="native trajectory file")
    p.set_defaults(func=cmd_md_run)

    p = sub.add_parser("fd-run", parents=[common],
                       help="solve the diffusion equation from the patch")
    p.add_argument("--N", type=int, dest="N")
    p.add_argument("--D", type=float, dest="D", help="diffusion coefficient (nd)")
    p.add_argument("--k", type=float, help="time step (nd)")
    p.add_argument("--steps", type=int)
    p.add_argument("--scheme", choices=["fe", "cn"])
    p.add_argument("--stride", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="also write Fourier-oracle frames at the same times")
    p.add_argument("--modes", type=int, help="oracle truncation per axis")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fd_run)

    p = sub.add_parser("amp-plot", parents=[common],
                       help="amplification factors vs scaled wavenumber")
    p.add_argument("--N", type=int, dest="N")
    p.add_argument("--D", type=float, dest="D")
    p.add_argument("--d", type=int, choices=[1, 2])
    p.add_argument("--k-factors", dest="k_factors",
                   help="comma-separated multiples of the critical step")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_amp_plot)

    p = sub.add_parser("bin", parents=[common],
                       help="bin a trajectory onto the FD grid")
    p.add_argument("--traj", required=True)
    p.add_argument("--N", type=int, dest="N")
    p.add_argument("--species", choices=["he", "ar"])
    p.add_argument("--per-frame-max", action="store_true", dest="per_frame_max",
                   help="normalize each frame by its own peak")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bin)

    p = sub.add_parser("fit", parents=[common],
                       help="fit the diffusion coefficient to a binned series")
    p.add_argument("--binned", required=True, help="directory from 'bin'")
    p.add_argument("--d0", type=float, help="initial guess (nd units)")
    p.add_argument("--scale-box-cm", type=float, dest="scale_box_cm")
    p.add_argument("--scale-time-s", type=float, dest="scale_time_s")
    p.add_argument("--substeps", type=int)
    p.add_argument("--init-from-frame0", action="store_true",
                   dest="init_from_frame0",
                   help="start the FD model from the binned frame 0 instead "
                        "of the idealized patch")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cost-curve", parents=[common],
                       help="tabulate cost(D) over a grid")
    p.add_argument("--binned", required=True)
    p.add_argument("--d-min", type=float, required=True, dest="d_min")
    p.add_argument("--d-max", type=float, required=True, dest="d_max")
    p.add_argument("--points", type=int)
    p.add_argument("--scale-box-cm", type=float, dest="scale_box_cm")
    p.add_argument("--scale-time-s", type=float, dest="scale_time_s")
    p.add_argument("--substeps", type=int)
    p.add_argument("--init-from-frame0", action="store_true",
                   dest="init_from_frame0")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_cost_curve)

    p = sub.add_parser("msd", parents=[common],
                       help="mean-squared-displacement diffusion estimate")
    p.add_argument("--traj", required=True)
    p.add_argument("--species", choices=["he", "ar"])
    p.add_argument("--t-lo", type=float, dest="t_lo", help="window start (fs)")
    p.add_argument("--t-hi", type=float, dest="t_hi", help="window end (fs)")
    p.add_argument("--use-3d-factor", action="store_true", dest="use_3d_factor",
                   help="divide the slope by 6 instead of 2d=4")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_msd)

    p = sub.add_parser("convert", parents=[common],
                       help="convert between trajectory formats")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--to", required=True, choices=["native", "lammps"])
    p.add_argument("--species-map", dest="species_map",
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
    p.add_argument("--seeds", help="comma-separated seeds (default 1,2,3)")
    p.add_argument("--N", dest="N", help="comma-separated binning resolutions")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            args._config_values = _load_config_file(args.config)
        except OSError as exc:
            print(f"gasdiff: cannot read config: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except ParseError as exc:
            print(f"gasdiff: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        args._config_values = {}
    try:
        started = time.monotonic()
        code = args.func(args)
        if getattr(args, "verbose", False):
            print(f"gasdiff {args.command}: exit {code} "
                  f"in {time.monotonic() - started:.2f}s", file=sys.stderr)
        return code
    except InstabilityError as exc:
        print(f"gasdiff: instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except ParseError as exc:
        print(f"gasdiff: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"gasdiff: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GasdiffError, ValueError) as exc:
        print(f"gasdiff: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
