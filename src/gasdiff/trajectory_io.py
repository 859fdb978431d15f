"""Trajectory persistence: the native binary format and a LAMMPS dump
reader.

A native trajectory is one little-endian binary file:

- the magic ``gasdiff-native 2``, the int64 byte length of the header
  text, and the header text: ``#key value`` lines, the first one
  ``#gasdiff-trajectory 2``, then box, dt, units, n_he, n_ar, seed and
  has_velocities;
- per frame a ``<qdqd`` head (timestep, time_fs, 1 if there is an energy
  else 0, energy or 0.0), then the int64 ids and species codes and the
  float64 (n, 2) positions and velocities;
- a trailer: the particle and frame counts and the SHA-256 of every byte
  before it.

write_native_frames appends frames as they come, in the calling process,
and refuses a frame the reader would refuse (_frame_fault); iter_native
checks the magic, the trailer, the size and the SHA-256, then yields the
frameless header and the frames one at a time; write_native and
read_native run the same code for a Trajectory held in memory.  A file
that does not start with the magic, such as a text trajectory of format 1,
is a ParseError.  Both writers, native and LAMMPS, write ``path`` + ".tmp"
and rename it onto ``path`` (_replacing), which makes the directories they
need and removes what it made on any exception.

The LAMMPS reader, iter_lammps_dump, yields a frameless header and then
the frames one at a time, as iter_native does; parse_lammps_dump collects
them.  It handles text dumps of a square, orthogonal, fixed box
whose column layout, unscaled (x y) or scaled (xs ys) coordinates with or
without velocities, frame 0's ATOMS header sets and every frame repeats;
it ignores any z column.  It reads one numbered line stream, and its
particle rows go through one parser, _parse_rows, which converts whole
columns a block of rows at a time and, when a row is malformed, walks that
block's rows to the first bad one.  Every malformed input raises
ParseError, with a line number in a dump; no input may crash the parser.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ParseError
from .md import Species


@dataclass
class Frame:
    timestep: int
    time_fs: float
    ids: np.ndarray
    species: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    energy: float | None = None

    @property
    def n_particles(self) -> int:
        return len(self.ids)

    def finite_positions(self, rows: np.ndarray) -> np.ndarray:
        """``positions[rows]``; a non-finite coordinate among them is a
        ParseError that names the frame's timestep and the particle's id."""
        pos = self.positions[rows]
        bad = ~np.isfinite(pos).all(axis=1)
        if bad.any():
            raise ParseError(f"frame at timestep {self.timestep}: particle "
                             f"{self.ids[rows][bad][0]} has a non-finite position")
        return pos


@dataclass
class Trajectory:
    box_side: float
    frames: list[Frame] = field(default_factory=list)
    units: str = "real"
    dt: float | None = None
    seed: int | None = None
    n_he: int | None = None
    n_ar: int | None = None
    has_velocities: bool = True

    def __post_init__(self):
        if not 0.0 < self.box_side < math.inf:
            raise ValueError(f"box side must be positive and finite, got {self.box_side!r}")
        heads = [(fr.n_particles, fr.timestep, fr.time_fs) for fr in self.frames]
        for last, head in zip([None] + heads, heads):
            if (fault := _order_fault(last, *head)) is not None:
                raise ValueError(fault)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def n_particles(self) -> int:
        return self.frames[0].n_particles if self.frames else 0


def _order_fault(last, n: int, timestep, time_fs) -> str | None:
    """The frame-order rule: a frame of ``n`` particles at ``timestep`` and
    ``time_fs`` has a finite time and, after a frame whose (n, timestep,
    time_fs) is ``last`` (None before the first), its particle count, a
    later timestep and a later time.  A message naming the broken part, or
    None."""
    if not math.isfinite(time_fs):
        return f"frame at timestep {timestep} has a non-finite time {float(time_fs)!r}"
    if last is None:
        return None
    if n != last[0]:
        return f"frame at timestep {timestep} has {n} particles, expected {last[0]}"
    if timestep <= last[1]:
        return "frame timesteps must be strictly increasing"
    if time_fs <= last[2]:
        return (f"frame at timestep {timestep} has time {float(time_fs)!r} fs, "
                f"not after {float(last[2])!r}")
    return None


#: the leading bytes of a native trajectory
_MAGIC = b"gasdiff-native 2"
#: the byte length of the header text
_LENGTH = struct.Struct("<q")
#: timestep, time_fs, has energy, energy
_FRAME_HEAD = struct.Struct("<qdqd")
#: particles, frames, SHA-256 of every byte before the trailer
_TRAILER = struct.Struct("<qq32s")
#: ids, species, positions, velocities: the dtype of each and its columns;
#: the file stores them little-endian
_COLUMNS = tuple((np.dtype(t), cols) for t, cols in (
    (np.int64, ()), (np.int64, ()), (np.float64, (2,)), (np.float64, (2,))))
_ROW_BYTES = 48  # id, species, x, y, vx, vy: 8 bytes each
_BLOCK = 1 << 18  # bytes hashed at a time
_SPECIES_CODES = np.array([int(sp) for sp in Species])


def _header_text(header: Trajectory) -> str:
    lines = ["#gasdiff-trajectory 2", f"#box {float(header.box_side)!r}"]
    if header.dt is not None:
        lines.append(f"#dt {float(header.dt)!r}")
    lines.append(f"#units {header.units}")
    for key in ("n_he", "n_ar", "seed"):
        if getattr(header, key) is not None:
            lines.append(f"#{key} {getattr(header, key)}")
    lines.append(f"#has_velocities {int(header.has_velocities)}")
    return "".join(f"{line}\n" for line in lines)


def _header_bytes(header: Trajectory) -> bytes:
    """The header text of a binary trajectory; ValueError if it would not
    read back as written (a line break in the units, say)."""
    text = _header_text(header)
    try:
        same = _header_text(_native_header(text, None)) == text
    except ParseError:
        same = False
    if not same:
        raise ValueError(f"trajectory header {text!r} would not read back as written")
    return text.encode("utf-8")


def _frame_fault(fr: Frame, last) -> str | None:
    """Why the reader refuses ``fr`` after a frame whose (n, timestep,
    time_fs) is ``last`` (None before the first), or None: arrays other
    than int64 (n,) ids and species codes and float64 (n, 2) positions and
    velocities, a species code that is not He's or Ar's, a timestep that is
    not an int64, or a break of _order_fault's frame-order rule."""
    n, ts = len(fr.ids), fr.timestep
    if not all(isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == (n, *cols)
               for a, (dtype, cols) in zip(
                   (fr.ids, fr.species, fr.positions, fr.velocities), _COLUMNS)):
        return (f"frame at timestep {ts} does not hold int64 (n,) ids and species "
                "and float64 (n, 2) positions and velocities")
    if not np.isin(fr.species, _SPECIES_CODES).all():
        return f"frame at timestep {ts} has a species code other than He's or Ar's"
    if not isinstance(ts, (int, np.integer)) or not -2**63 <= ts < 2**63:
        return f"frame timestep {ts!r} is not an int64"
    return _order_fault(last, n, ts, fr.time_fs)


@contextlib.contextmanager
def _replacing(path):
    """``path`` + ".tmp" open for binary writing, renamed onto ``path`` when
    the block ends; missing directories are made first.  On any exception,
    the rename's included, the temporary file goes, and so does each
    directory made here that is left empty; the exception propagates."""
    tmp = Path(f"{path}.tmp")
    made = [d for d in tmp.absolute().parents if not d.exists()]  # nearest first
    try:
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        with contextlib.suppress(OSError):  # a directory that holds other files stays
            for directory in made:
                directory.rmdir()
        raise


def write_native_frames(header: Trajectory, frames: Iterable[Frame], path) -> None:
    """Write ``header``'s fields (not its frames), then each of ``frames`` as
    it comes, to ``path`` + ".tmp" as one binary trajectory, renamed onto
    ``path`` after the last frame (see _replacing).  A frame the reader
    would refuse raises ValueError.  If ``frames`` raises, a frame is
    refused or the rename fails, ``path`` is left as it was."""
    import hashlib

    digest = hashlib.sha256()
    with _replacing(path) as fh:
        def write(parts):
            for part in parts:
                digest.update(part)
            fh.writelines(parts)
            fh.flush()  # whole frames reach the file as the run makes them

        text = _header_bytes(header)
        write([_MAGIC, _LENGTH.pack(len(text)), text])
        last, count = None, 0  # (n, timestep, time_fs) of the last frame
        for fr in frames:
            if (fault := _frame_fault(fr, last)) is not None:
                raise ValueError(fault)
            energy = fr.energy
            write([_FRAME_HEAD.pack(fr.timestep, fr.time_fs, energy is not None,
                                    0.0 if energy is None else energy)]
                  + [np.ascontiguousarray(a, dtype.newbyteorder("<")).data
                     for a, (dtype, _) in zip(
                         (fr.ids, fr.species, fr.positions, fr.velocities), _COLUMNS)])
            last, count = (len(fr.ids), fr.timestep, float(fr.time_fs)), count + 1
        fh.write(_TRAILER.pack(last[0] if last else 0, count, digest.digest()))


def write_native(traj: Trajectory, path) -> None:
    write_native_frames(traj, traj.frames, path)


def check_room(directory, headers: Iterable[Trajectory], n_frames: int) -> None:
    """Raise OSError (ENOSPC) unless the file system of ``directory`` has
    room for one native trajectory of ``n_frames`` frames of n_he + n_ar
    particles per header in ``headers``; the message names the bytes needed
    and the bytes free.  ``directory`` need not exist yet: the free space is
    that of its nearest existing ancestor."""
    import errno
    import shutil

    needed = sum(len(_MAGIC) + _LENGTH.size + len(_header_bytes(h)) + _TRAILER.size
                 + n_frames * (_FRAME_HEAD.size + _ROW_BYTES * (h.n_he + h.n_ar))
                 for h in headers)
    existing = Path(directory).absolute()
    while not existing.exists():
        existing = existing.parent
    free = shutil.disk_usage(existing).free
    if needed > free:
        raise OSError(errno.ENOSPC, f"the trajectories need {needed} bytes, and "
                                    f"{directory} has {free} bytes free")


def _parse_float(token: str, path, line: int | None) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"non-numeric field {token!r}", path=path, line=line) from None


def _parse_int(token: str, path, line: int | None) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"non-integer field {token!r}", path=path, line=line) from None
    if abs(value) > 2**62:
        raise ParseError(f"integer out of range: {token!r}", path=path, line=line)
    return value


def _column(kind, tokens) -> np.ndarray:
    """``tokens`` parsed as ``kind``; ValueError, KeyError or OverflowError
    if one is malformed."""
    if isinstance(kind, tuple):  # (int, codes): the codes hold no key beyond 2**62
        tokens, kind = map(int, tokens), kind[1].__getitem__
    values = np.array(list(map(kind, tokens)), np.float64 if kind is float else np.int64)
    if kind is int and len(values) and not -2**62 <= values.min() <= values.max() <= 2**62:
        raise OverflowError
    return values


#: rows _parse_rows splits and converts at a time, bounding the tokens held
_ROW_BLOCK = 4096


def _parse_rows(rows: list[str], after: int, path, kinds):
    """Particle rows, the lines after line ``after``, parsed by column:
    per entry of ``kinds`` an int64 array (``int``, |v| <= 2**62), a float64
    array (``float``), the int64 codes that ``(int, codes)`` maps its
    integers to, or None (None skips the column).  A malformed row raises
    ParseError naming the first such row's line.  The rows are split and
    converted _ROW_BLOCK at a time."""
    columns = [None if kind is None else
               np.empty(len(rows), np.float64 if kind is float else np.int64)
               for kind in kinds]
    for start in range(0, len(rows), _ROW_BLOCK):
        fields = [row.split() for row in rows[start:start + _ROW_BLOCK]]
        if all(len(f) == len(kinds) for f in fields):
            try:
                for column, kind, tokens in zip(columns, kinds, zip(*fields)):
                    if kind is not None:
                        column[start:start + len(fields)] = _column(kind, tokens)
                continue
            except (ValueError, KeyError, OverflowError):
                pass
        # some row of the block is malformed: walk its rows to the first one
        for line, f in enumerate(fields, after + 1 + start):
            if len(f) != len(kinds):
                raise ParseError(f"expected {len(kinds)} columns, found {len(f)}",
                                 path=path, line=line)
            for kind, token in zip(kinds, f):
                if kind is int:
                    _parse_int(token, path, line)
                elif kind is float:
                    _parse_float(token, path, line)
                elif isinstance(kind, tuple):
                    if (value := _parse_int(token, path, line)) not in kind[1]:
                        raise ParseError(f"atom type {value} not in species map",
                                         path=path, line=line)
    return columns


def _lines(fh):
    """The lines of ``fh`` as ``fh.read().splitlines()`` splits them, read
    one at a time."""
    return (line for raw in fh for line in raw.splitlines())


def _native_header(text: str, path) -> Trajectory:
    """The frameless Trajectory that a native file's header text describes:
    the signature line, then ``#key value`` lines."""
    first, *lines = text.splitlines() or [""]
    if not first.startswith("#gasdiff-trajectory"):
        raise ParseError("missing '#gasdiff-trajectory' signature", path=path)
    header: dict[str, str] = {}
    for line in lines:
        parts = line[1:].split(None, 1)
        if not line.startswith("#") or len(parts) != 2:
            raise ParseError("malformed header line", path=path)
        header[parts[0]] = parts[1]
    if "box" not in header:
        raise ParseError("header is missing the box side", path=path)

    def number(key, parse):
        return parse(header[key], path, None) if key in header else None

    try:
        return Trajectory(
            box_side=number("box", _parse_float),
            units=header.get("units", "real"),
            dt=number("dt", _parse_float),
            seed=number("seed", _parse_int),
            n_he=number("n_he", _parse_int),
            n_ar=number("n_ar", _parse_int),
            has_velocities=header.get("has_velocities", "1") == "1",
        )
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None


@contextlib.contextmanager
def _open_binary(path):
    """``path`` open at its first frame record, with its header and its
    particle and frame counts.  Its leading bytes must be the magic, its
    trailer must be whole, its size must fit the counts and the bytes
    before the trailer must have its SHA-256, or ParseError."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ParseError("not a native binary trajectory (text trajectories, "
                             "format 1, are no longer read)", path=path)
        size = os.fstat(fh.fileno()).st_size
        body = size - _TRAILER.size
        start = len(_MAGIC) + _LENGTH.size
        if body < start:
            raise ParseError(f"binary trajectory is truncated at {size} bytes", path=path)
        (length,) = _LENGTH.unpack(fh.read(_LENGTH.size))
        fh.seek(body)
        n, count, digest = _TRAILER.unpack(fh.read(_TRAILER.size))
        if not (length >= 0 and n >= 0 and count >= 0 and body == start + length
                + count * (_FRAME_HEAD.size + _ROW_BYTES * n)):
            raise ParseError(f"binary trajectory of {size} bytes does not fit its "
                             f"trailer's {count} frames of {n} particles", path=path)
        fh.seek(0)
        if _sha256(fh, body) != digest:
            raise ParseError("binary trajectory does not match its SHA-256", path=path)
        fh.seek(start)
        text = fh.read(length).decode("utf-8", errors="replace")
        yield fh, _native_header(text, path), n, count


def _sha256(fh, size: int) -> bytes | None:
    """The SHA-256 of the next ``size`` bytes of ``fh``, read in fixed-size
    blocks; None if the file ends first."""
    import hashlib

    digest, block = hashlib.sha256(), memoryview(bytearray(_BLOCK))
    while size > 0:
        got = fh.readinto(block[:min(size, _BLOCK)])
        if not got:
            return None
        digest.update(block[:got])
        size -= got
    return digest.digest()


def _binary_frame(fh, n: int, path) -> Frame:
    """The next frame of a checked binary trajectory, each array its own."""
    head = fh.read(_FRAME_HEAD.size)
    arrays = [np.empty((n, *cols), dtype.newbyteorder("<")) for dtype, cols in _COLUMNS]
    if len(head) != _FRAME_HEAD.size or any(fh.readinto(a) != a.nbytes for a in arrays):
        raise ParseError("binary trajectory changed while it was read", path=path)
    timestep, time_fs, has_energy, energy = _FRAME_HEAD.unpack(head)
    return Frame(timestep, time_fs,
                 *(a.astype(dtype, copy=False) for a, (dtype, _) in zip(arrays, _COLUMNS)),
                 energy=energy if has_energy else None)


def iter_native(path) -> Iterator[Trajectory | Frame]:
    """Read a native trajectory, holding one frame at a time: check the file
    whole (magic, trailer, size and SHA-256), then yield the frameless
    Trajectory header, then each frame.  A frame the writer refuses raises
    ParseError."""
    with _open_binary(path) as (fh, header, n, count):
        yield header
        last = None  # (n, timestep, time_fs) of the last frame
        for _ in range(count):
            fr = _binary_frame(fh, n, path)
            if (fault := _frame_fault(fr, last)) is not None:
                raise ParseError(fault, path=path)
            last = n, fr.timestep, fr.time_fs
            yield fr


def _collect(stream: Iterator[Trajectory | Frame]) -> Trajectory:
    """A header-first stream of a reader collected into a Trajectory held in
    memory."""
    return replace(next(stream), frames=list(stream))


def read_native(path) -> Trajectory:
    """``iter_native`` collected into a Trajectory held in memory."""
    return _collect(iter_native(path))


def iter_lammps_dump(path, species_map: dict[int, Species],
                     dt_fs: float | None = None) -> Iterator[Trajectory | Frame]:
    """Read a LAMMPS text dump of a square, orthogonal, fixed box, holding
    one frame's lines at a time: yield the frameless Trajectory header as
    soon as frame 0's ``ITEM: ATOMS`` line is read, then each frame as it
    is parsed.

    ``species_map`` translates the dump's numeric atom types.  The column
    layout is taken from frame 0's ``ITEM: ATOMS`` header, which must
    include id, type and either x/y or xs/ys; vx/vy are used when both are
    present.  Every later frame must list the same columns, as LAMMPS fixes
    them when a dump is defined.  Rows are reordered by atom id so frames
    index consistently.  Every frame's x and y bounds must be frame 0's,
    whose y extent must equal its x extent to 1e-12 relative; x and y are
    measured from their own lower bounds.  LAMMPS dumps carry no time unit,
    so frame times are timestep * dt_fs when given (0 < dt_fs < inf), else
    the raw timestep.

    The lines come from one numbered stream, and a fault names the line it
    is found on, the last line when the file ends too soon.  The exceptions
    name a line of their section: a frame that breaks the frame-order rule
    its timestep line (as soon as the frame's atom count is read), and a
    box fault its bounds line.  Each fault, a bad dt_fs's ValueError too,
    is raised by the ``next`` that reaches it, so a fault in frame k comes
    after frames 0 to k-1 were yielded.
    """
    if dt_fs is not None and not 0.0 < dt_fs < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt_fs!r}")
    codes = {t: int(sp) for t, sp in species_map.items() if abs(t) <= 2**62}
    # frame 0's x and y bounds and ATOMS columns; the last frame's (n, timestep, time)
    box = columns = last = None
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines, no = _lines(fh), 0  # no: the number of the last line read

        def read():
            """The next line; None past the end, where ``no`` stays."""
            nonlocal no
            line = next(lines, None)
            no += line is not None
            return line

        def fault(message):
            return ParseError(message, path=path, line=no)

        def item(name, line):
            """``line``, the last one read, as the start of ``ITEM: name``."""
            if line is None:
                raise fault(f"missing 'ITEM: {name}' section")
            if not line.startswith(f"ITEM: {name}"):
                raise fault(f"expected 'ITEM: {name}', found {line[:40]!r}")
            return line

        def integer(name):
            """The integer on the line after ``ITEM: name``."""
            if (line := read()) is None:
                raise fault(f"file ends inside {name} section")
            return _parse_int(line.strip(), path, no)

        while (line := read()) is not None:
            if not line.strip():
                continue
            item("TIMESTEP", line)
            timestep, ts_line = integer("TIMESTEP"), no
            item("NUMBER OF ATOMS", read())
            if (n_atoms := integer("NUMBER OF ATOMS")) < 0:
                raise fault("negative atom count")
            time_fs = float(timestep) * (dt_fs if dt_fs is not None else 1.0)
            if (message := _order_fault(last, n_atoms, timestep, time_fs)) is not None:
                raise ParseError(message, path=path, line=ts_line)
            last = n_atoms, timestep, time_fs

            line = item("BOX BOUNDS", read())
            # only boundary flags (pp, fs, ...): tilt factors or abc vectors are triclinic
            if not all(len(f) == 2 and set(f) <= set("pfsm") for f in line.split()[3:]):
                raise fault(f"only an orthogonal box is supported, found {line[:40]!r}")
            bounds, at = [], [no]  # at: the section's line numbers, its ITEM line first
            while (line := read()) is not None and not line.startswith("ITEM:"):
                parts = line.split()
                if len(parts) < 2:
                    raise fault("malformed box bounds line")
                bounds.append((_parse_float(parts[0], path, no),
                               _parse_float(parts[1], path, no)))
                at.append(no)
            if len(bounds) < 2:
                raise ParseError("expected at least 2 box bounds lines",
                                 path=path, line=at[-1])
            bounds = bounds[:2]  # x and y; a z line is ignored
            (xlo, xhi), (ylo, yhi) = bounds
            side = xhi - xlo
            if not 0.0 < side < math.inf:
                raise ParseError(f"box extent must be positive and finite, got {side!r}",
                                 path=path, line=at[1])
            if not abs(yhi - ylo - side) <= 1e-12 * side:
                raise ParseError(f"box must be square: x extent {side!r}, "
                                 f"y extent {yhi - ylo!r}", path=path, line=at[2])
            if box is None:
                box = bounds
            elif bounds != box:
                raise ParseError(f"box bounds {bounds} differ from frame 0's {box}",
                                 path=path, line=at[1] if bounds[0] != box[0] else at[2])

            header = item("ATOMS", line).split()[2:]
            if columns is None:  # frame 0 sets the layout
                columns, col = header, {name: k for k, name in enumerate(header)}
                scaled = "xs" in col
                names = ["id", "type"] + (["xs", "ys"] if scaled else ["x", "y"])
                if missing := [c for c in names if c not in col]:
                    raise fault(f"unsupported ATOMS column layout {columns!r} "
                                f"(missing {missing})")
                if "vx" in col and "vy" in col:
                    names += ["vx", "vy"]
                kinds = [None] * len(columns)
                for name in names:
                    kinds[col[name]] = float
                kinds[col["id"]], kinds[col["type"]] = int, (int, codes)
                # side is every frame's x extent, as every frame has frame 0's bounds
                yield Trajectory(box_side=side, units="real", dt=dt_fs,
                                 has_velocities="vx" in names)
            elif header != columns:
                raise fault(f"ATOMS columns {header!r} differ from frame 0's {columns!r}")

            rows, atoms_line = list(itertools.islice(lines, n_atoms)), no
            no += len(rows)
            if len(rows) < n_atoms:
                raise fault(f"frame at timestep {timestep} is truncated "
                            f"({len(rows)} of {n_atoms} atom rows)")
            parsed = _parse_rows(rows, atoms_line, path, kinds)
            del rows  # before the next frame's rows are read
            ids, species, x, y, *v = (parsed[col[name]] for name in names)
            with np.errstate(all="ignore"):  # inf and nan pass, as in Python floats
                x, y = (x * side, y * side) if scaled else (x - xlo, y - ylo)
                # double mod: a tiny negative coordinate can wrap to exactly side
                positions = np.column_stack(((x % side) % side, (y % side) % side))
            velocities = np.column_stack(v) if v else np.zeros((n_atoms, 2))

            order = np.argsort(ids, kind="stable")
            yield Frame(
                timestep=timestep,
                time_fs=time_fs,
                ids=ids[order],
                species=species[order],
                positions=positions[order],
                velocities=velocities[order],
            )

    if columns is None:
        raise ParseError("no frames found", path=path, line=1)


def parse_lammps_dump(path, species_map: dict[int, Species],
                      dt_fs: float | None = None) -> Trajectory:
    """``iter_lammps_dump`` collected into a Trajectory held in memory."""
    return _collect(iter_lammps_dump(path, species_map, dt_fs))


def write_lammps_dump(header: Trajectory, frames: Iterable[Frame], path) -> None:
    """Emit ``frames`` as an orthogonal-box LAMMPS text dump of ``header``'s
    box side (z set to zero), with vx vy columns when the header has
    velocities, to ``path`` + ".tmp", renamed onto ``path`` after the last
    frame (see _replacing).  A species code c is LAMMPS type c + 1."""
    side = float(header.box_side)
    columns = "id type x y z" + (" vx vy" if header.has_velocities else "")
    with _replacing(path) as fh:
        for fr in frames:
            fh.write(f"ITEM: TIMESTEP\n{fr.timestep}\n"
                     f"ITEM: NUMBER OF ATOMS\n{fr.n_particles}\n"
                     f"ITEM: BOX BOUNDS pp pp pp\n0.0 {side!r}\n0.0 {side!r}\n-0.5 0.5\n"
                     f"ITEM: ATOMS {columns}\n".encode())
            values = [fr.positions, np.zeros((fr.n_particles, 1))]
            values += [fr.velocities] if header.has_velocities else []
            fh.write("".join(f"{i} {s + 1} {' '.join(map(repr, row))}\n" for i, s, row
                             in zip(fr.ids.tolist(), fr.species.tolist(),
                                    np.hstack(values).tolist())).encode())
