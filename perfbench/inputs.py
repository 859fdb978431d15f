"""Seeded synthetic inputs for the benchmark workloads.

Both generators use numpy only, never the gasdiff package, so a change to
the program cannot change its own inputs.  The same seed gives the same
bytes.  Argon starts uniformly in the centred quarter patch of the box and
helium uniformly over the box; every particle then takes independent
Gaussian steps of variance 2 D dt per axis (Brownian motion with a known
diffusion coefficient D).  The shapes and D live in ``reference.json``.

    python3 perfbench/inputs.py WORKLOAD SEED OUT_DIR

writes the input of one workload; the benchmark runs it in a child process
so that generating inputs leaves no trace in the measured process.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

# Distinct random streams per workload, so two workloads never share inputs.
_STREAM = {"dump_analysis": 1, "paper_fit": 2}


def _initial_positions(rng, n_he: int, n_ar: int) -> np.ndarray:
    """Unit-square positions: helium everywhere, argon in [1/4, 3/4)^2."""
    he = rng.uniform(0.0, 1.0, (n_he, 2))
    ar = rng.uniform(0.25, 0.75, (n_ar, 2))
    return np.concatenate([he, ar])


def _step_sigma(spec: dict) -> float:
    """Per-axis Brownian step between frames, in box units."""
    dt_nd = spec["frame_dt_fs"] / (spec["time_unit_s"] * 1e15)
    return float(np.sqrt(2.0 * spec["d_nd"] * dt_nd))


def write_brownian_dump(spec: dict, seed: int, path: Path) -> None:
    """LAMMPS text dump (id type x y z) of a Brownian He (type 1) / Ar
    (type 2) gas; atom rows are shuffled per frame, as in an unsorted dump."""
    rng = np.random.default_rng([_STREAM["dump_analysis"], seed])
    n_he, n_ar = spec["n_he"], spec["n_ar"]
    n = n_he + n_ar
    side = spec["box_side_a"]
    sigma = _step_sigma(spec)
    pos = _initial_positions(rng, n_he, n_ar)
    ids = np.arange(1, n + 1)
    types = np.concatenate([np.full(n_he, 1), np.full(n_ar, 2)])
    header = ("ITEM: TIMESTEP\n{step}\nITEM: NUMBER OF ATOMS\n{n}\n"
              "ITEM: BOX BOUNDS pp pp pp\n0.0 {side!r}\n0.0 {side!r}\n"
              "-0.5 0.5\nITEM: ATOMS id type x y z\n")
    with open(path, "w", encoding="utf-8") as fh:
        for f in range(spec["n_frames"]):
            if f:
                pos = pos + rng.normal(0.0, sigma, (n, 2))
            xy = np.mod(pos, 1.0) * side
            order = rng.permutation(n)
            fh.write(header.format(step=f * spec["timestep_stride"], n=n,
                                   side=float(side)))
            fh.writelines(
                f"{i} {t} {x:.6f} {y:.6f} 0.0\n"
                for i, t, x, y in zip(ids[order].tolist(), types[order].tolist(),
                                      xy[order, 0].tolist(), xy[order, 1].tolist()))


def write_brownian_binned_dir(spec: dict, seed: int, out_dir: Path) -> None:
    """Binned-series directory in the layout ``gasdiff bin`` writes
    (binned.json plus one u_XXXX.csv concentration file per frame), built
    from a Brownian argon cloud counted on an N x N grid and scaled by the
    global maximum count."""
    rng = np.random.default_rng([_STREAM["paper_fit"], seed])
    n, n_frames = spec["N"], spec["n_frames"]
    sigma = _step_sigma(spec)
    pos = _initial_positions(rng, 0, spec["n_ar"])
    counts = np.empty((n_frames, n, n), dtype=np.int64)
    for f in range(n_frames):
        if f:
            pos = pos + rng.normal(0.0, sigma, pos.shape)
        cell = np.floor(n * np.mod(pos, 1.0)).astype(np.int64) % n
        counts[f] = np.bincount(cell[:, 0] * n + cell[:, 1],
                                minlength=n * n).reshape(n, n)
    global_max = int(counts.max())
    times = [float(f * spec["frame_dt_fs"]) for f in range(n_frames)]
    out_dir.mkdir(parents=True, exist_ok=True)
    # every value is count / global_max, so format each distinct one once
    text = np.array([repr(k / global_max) for k in range(global_max + 1)])
    for f, t in enumerate(times):
        rows = text[counts[f]].tolist()
        with open(out_dir / f"u_{f:04d}.csv", "w", encoding="utf-8") as fh:
            fh.write(f"# N={n} d=2 t={t!r}\n")
            fh.write("\n".join(map(",".join, rows)) + "\n")
    meta = {"n": n, "d": 2, "normalization_max": global_max, "species": "Ar",
            "times_fs": times, "source": f"synthetic Brownian, seed {seed}"}
    (out_dir / "binned.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str]) -> None:
    workload, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    reference = json.loads(
        (Path(__file__).resolve().parent / "reference.json").read_text())
    spec = reference["workloads"][workload]["input"]
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "dump_analysis":
        write_brownian_dump(spec, seed, out_dir / "dump.lammpstrj")
    else:
        write_brownian_binned_dir(spec, seed, out_dir)


if __name__ == "__main__":
    main(sys.argv[1:])
