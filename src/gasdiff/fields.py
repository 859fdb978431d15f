"""Grid and scalar-field containers shared by the FD solver, binning and fitting.

The computational domain is the unit cube [0,1]^d (d = 1 or 2) split into N
cells per side, h = 1/N.  A field value with index j represents the cell
[j*h, (j+1)*h) and is sampled at the cell center x_j = (j + 1/2)*h.  Fields
are stored as C-ordered numpy arrays, so for d=2 the flat index is
j = j1*N + j2; the binning module relies on this layout bit-for-bit.

Every CSV, JSON and SVG output is written by write_text (write_json for
JSON), which makes the directories it needs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError

#: grams-per-mole / kcal-per-mole / Angstrom / femtosecond unit system:
#: 1 kcal/(mol*A) acting on 1 g/mol gives this acceleration in A/fs^2.
#: Also converts kcal/mol of kinetic energy to (g/mol)*(A/fs)^2 and back.
KCAL_PER_MOL_TO_MD = 4.184e-4

#: 1 A^2/fs expressed in cm^2/s.
A2_PER_FS_IN_CM2_PER_S = 0.1


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the unit cube: N cells per side, spacing h=1/N."""

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.n < 2:
            raise ValueError(f"need at least 2 cells per side, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def num_cells(self) -> int:
        return self.n**self.d

    def cell_centers_1d(self) -> np.ndarray:
        """Coordinates (j + 1/2)*h along one axis."""
        return (np.arange(self.n) + 0.5) * self.h


@dataclass(frozen=True)
class ScalarField:
    """One time level of a dimensionless concentration on a GridSpec.

    Immutable once constructed; the value array is marked read-only so a
    field can be shared freely across workers.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class UnitScale:
    """Physical meaning of the nondimensional units.

    The unit square maps to a physical box of side ``box_length_cm`` and one
    nondimensional time unit lasts ``time_unit_s`` seconds.  Defaults match a
    5e4 Angstrom box with time measured in nanoseconds.
    """

    box_length_cm: float = 5.0e-4
    time_unit_s: float = 1.0e-9

    def __post_init__(self):
        if not (0.0 < self.box_length_cm < np.inf and 0.0 < self.time_unit_s < np.inf):
            raise ValueError("unit scale factors must be positive and finite")

    @property
    def time_unit_fs(self) -> float:
        return self.time_unit_s * 1e15


def field_energy(f: ScalarField) -> float:
    """Squared 2-norm sum_j |f_j|^2, the discrete energy functional."""
    return float(np.sum(f.values * f.values))


def nd_to_physical_d(d_nd: float, scale: UnitScale) -> float:
    """Convert a diffusion coefficient from (unit box)^2 per time unit to cm^2/s."""
    return d_nd * scale.box_length_cm**2 / scale.time_unit_s


def physical_to_nd_d(d_cm2_s: float, scale: UnitScale) -> float:
    return d_cm2_s * scale.time_unit_s / scale.box_length_cm**2


_HEADER_RE = re.compile(r"^#\s*N=(\d+)\s+d=(\d+)\s+t=(\S+)\s*$")


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, making its missing directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_json(path, obj) -> None:
    """Write ``obj`` as a JSON artifact: sorted keys, two-space indent and a
    final newline."""
    write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_field_csv(f: ScalarField, path, time: float = 0.0) -> None:
    """Write a field as CSV: header '# N=<N> d=<d> t=<time>', then rows."""
    write_text(path, f"# N={f.grid.n} d={f.grid.d} t={float(time)!r}\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in np.atleast_2d(f.values)))


def read_field_csv(path) -> tuple[ScalarField, float]:
    """Inverse of write_field_csv; returns (field, time).  A malformed file,
    or a grid or values that make no ScalarField, is a ParseError."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ParseError("empty field file", path=path, line=1)
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ParseError("malformed field header", path=path, line=1)
    n, d = int(m.group(1)), int(m.group(2))
    try:
        t = float(m.group(3))
    except ValueError:
        raise ParseError("non-numeric time in header", path=path, line=1) from None
    data_lines = [(no, ln) for no, ln in enumerate(lines[1:], 2) if ln.strip()]
    expected_rows = n if d == 2 else 1
    if len(data_lines) != expected_rows:
        raise ParseError(
            f"expected {expected_rows} data rows, found {len(data_lines)}",
            path=path,
            line=len(lines),
        )
    rows = []
    for no, ln in data_lines:
        try:
            rows.append([float(v) for v in ln.split(",")])
        except ValueError:
            raise ParseError("non-numeric field value", path=path, line=no) from None
        if len(rows[-1]) != n:
            raise ParseError(f"expected {n} columns, found {len(rows[-1])}",
                             path=path, line=no)
    values = np.array(rows, dtype=np.float64)
    try:
        return ScalarField(GridSpec(d=d, n=n), values if d == 2 else values[0]), t
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None
