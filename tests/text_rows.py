"""A row-by-row parser of one LAMMPS dump frame's ATOMS rows, the
independent reference for ``gasdiff.trajectory_io._parse_rows``: it parses
one row at a time, one field at a time, and raises ParseError at the first
malformed row, naming its first bad field."""

import numpy as np

from gasdiff.errors import ParseError
from gasdiff.trajectory_io import _parse_float, _parse_int


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
