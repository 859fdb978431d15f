"""Row-by-row parsers of particle rows, the independent references for
``gasdiff.trajectory_io._parse_rows``: ``native_rows`` for native
trajectory rows and ``lammps_rows`` for one LAMMPS dump frame's ATOMS rows.
Each parses one row at a time, one field at a time, and raises ParseError
at the first malformed row, naming its first bad field.  ``native_text``
writes the native text format that the readers still accept."""

import numpy as np

from gasdiff.errors import ParseError
from gasdiff.md import SPECIES_BY_LABEL, SPECIES_LABELS
from gasdiff.trajectory_io import _parse_float, _parse_int


def native_text(traj) -> str:
    """``traj`` in the native text format, as its writer wrote it: the
    header's ``#key value`` lines, then per frame its FRAME line and one
    ``id species x y vx vy`` row per particle, every float by repr."""
    lines = ["#gasdiff-trajectory 1", f"#box {traj.box_side!r}"]
    if traj.dt is not None:
        lines.append(f"#dt {traj.dt!r}")
    lines.append(f"#units {traj.units}")
    lines += [f"#{key} {getattr(traj, key)}" for key in ("n_he", "n_ar", "seed")
              if getattr(traj, key) is not None]
    lines.append(f"#has_velocities {int(traj.has_velocities)}")
    for fr in traj.frames:
        energy = "" if fr.energy is None else f" {float(fr.energy)!r}"
        lines.append(f"FRAME {fr.timestep} {float(fr.time_fs)!r}{energy}")
        lines += [f"{i} {SPECIES_LABELS[s]} {x!r} {y!r} {vx!r} {vy!r}"
                  for i, s, (x, y), (vx, vy) in zip(
                      fr.ids.tolist(), fr.species.tolist(), fr.positions.tolist(),
                      fr.velocities.tolist())]
    return "".join(f"{line}\n" for line in lines)


def native_rows(rows, first_line, path):
    """ids, species, positions and velocities of native particle rows, the
    first of which is line ``first_line`` of the file."""
    ids, values = [], []
    for line, row in enumerate(rows, first_line):
        parts = row.split()
        if len(parts) != 6:
            raise ParseError(
                f"expected 6 columns in particle row, found {len(parts)}",
                path=path, line=line,
            )
        if parts[1] not in SPECIES_BY_LABEL:
            raise ParseError(f"unknown species {parts[1]!r}", path=path, line=line)
        ids.append(_parse_int(parts[0], path, line))
        try:
            values.append((int(SPECIES_BY_LABEL[parts[1]]), *map(float, parts[2:])))
        except ValueError:  # report the first bad field
            for p in parts[2:]:
                _parse_float(p, path, line)
    # ids stay integers: a float64 column would round ids above 2**53
    arr = np.array(values, dtype=np.float64).reshape(len(values), 5)
    return (np.array(ids, dtype=np.int64), arr[:, 0].astype(np.int64),
            arr[:, 1:3].copy(), arr[:, 3:5].copy())


def lammps_rows(lines, i, n_atoms, columns, lo, side, species_map, path):
    """ids, species, positions and velocities of the ``n_atoms`` rows that
    start at ``lines[i]``, in a frame whose ATOMS header lists ``columns``
    and whose box starts at ``lo`` and has side ``side``; sorted by id."""
    col = {name: k for k, name in enumerate(columns)}
    scaled = "xs" in col
    has_vel = "vx" in col and "vy" in col
    ids = np.empty(n_atoms, dtype=np.int64)
    species = np.empty(n_atoms, dtype=np.int64)
    positions = np.empty((n_atoms, 2))
    velocities = np.zeros((n_atoms, 2))
    for row in range(n_atoms):
        parts = lines[i + row].split()
        if len(parts) != len(columns):
            raise ParseError(
                f"expected {len(columns)} columns, found {len(parts)}",
                path=path, line=i + row + 1,
            )
        ids[row] = _parse_int(parts[col["id"]], path, i + row + 1)
        type_id = _parse_int(parts[col["type"]], path, i + row + 1)
        if type_id not in species_map:
            raise ParseError(
                f"atom type {type_id} not in species map", path=path,
                line=i + row + 1,
            )
        species[row] = int(species_map[type_id])
        if scaled:
            x = _parse_float(parts[col["xs"]], path, i + row + 1) * side
            y = _parse_float(parts[col["ys"]], path, i + row + 1) * side
        else:
            x = _parse_float(parts[col["x"]], path, i + row + 1) - lo
            y = _parse_float(parts[col["y"]], path, i + row + 1) - lo
        # double mod: a tiny negative coordinate can wrap to exactly side
        positions[row] = ((x % side) % side, (y % side) % side)
        if has_vel:
            velocities[row] = (
                _parse_float(parts[col["vx"]], path, i + row + 1),
                _parse_float(parts[col["vy"]], path, i + row + 1),
            )
    order = np.argsort(ids, kind="stable")
    return ids[order], species[order], positions[order], velocities[order]
