"""Trajectory persistence: native text format plus a LAMMPS dump reader.

The native format is line oriented and diffable:

    #gasdiff-trajectory 1
    #box 50000.0
    #dt 5.0
    #units real
    #n_he 2
    #n_ar 1
    #seed 7
    #has_velocities 1
    FRAME 0 0.0 [total_energy]
    1 He 12.5 99.0 0.001 -0.002
    ...

Header lines are ``#key value``; each frame is a ``FRAME <timestep>
<time_fs>`` line (with an optional trailing total energy) followed by one
``id species x y vx vy`` row per particle.  Velocities are written as zeros
when a source had none (``has_velocities 0``).

Native trajectories stream: write_native_frames appends frames as they
come and iter_native yields them one at a time; write_native and
read_native run the same code for a Trajectory held in memory.  The
caller writes the header and then forks a writer process, which formats,
hashes and writes each frame while the caller computes the next one, so
an MD run's write overlaps its steps.  Without ``os.fork``, or in a
process running other threads (a library caller's), the same writer runs
in the calling process.

Next to ``<path>`` the writer also streams a binary sidecar,
``<path>.frames``: per frame a little-endian ``<qdqd`` head (timestep,
time_fs, 1 if there is an energy else 0, energy or 0.0), then the int64
ids and species and the float64 (n, 2) positions and velocities.  A
trailer closes it: the magic ``gasdiff-frames 1``, the particle and frame
counts, the text's byte length and SHA-256, and the SHA-256 of the frame
records.  The writer keeps the sidecar only when every frame parses back
from its text bit for bit and would be accepted (finite values, |id| and
|timestep| <= 2**62, and _order_fault's frame-order rule).  iter_native
yields the sidecar's frames when its trailer, its records and the text all
match; otherwise it parses the text.

The LAMMPS reader handles text dumps of a square, orthogonal, fixed box
with header-driven column order, unscaled (x y) or scaled (xs ys)
coordinates, and ignores any z column.  Both text formats parse their
particle rows with one parser, _parse_rows, which converts whole columns a
block of rows at a time and, when a row is malformed, walks that block's
rows to the first bad one.  Every malformed input raises ParseError with a
line number; no input may crash the parser.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import struct
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ParseError
from .md import SPECIES_BY_LABEL, SPECIES_LABELS, Species


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
                raise ValueError(fault[1])

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def n_particles(self) -> int:
        return self.frames[0].n_particles if self.frames else 0


def _order_fault(last, n: int, timestep, time_fs) -> tuple[str, str] | None:
    """The frame-order rule: a frame of ``n`` particles at ``timestep`` and
    ``time_fs`` has a finite time and, after a frame whose (n, timestep,
    time_fs) is ``last`` (None before the first), its particle count, a
    later timestep and a later time.  The part broken ("count", "timestep"
    or "time") and a message, or None."""
    if not math.isfinite(time_fs):
        return "time", f"frame at timestep {timestep} has a non-finite time {float(time_fs)!r}"
    if last is None:
        return None
    if n != last[0]:
        return "count", f"frame at timestep {timestep} has {n} particles, expected {last[0]}"
    if timestep <= last[1]:
        return "timestep", "frame timesteps must be strictly increasing"
    if time_fs <= last[2]:
        return "time", (f"frame at timestep {timestep} has time {float(time_fs)!r} fs, "
                        f"not after {float(last[2])!r}")
    return None


_SIDECAR_MAGIC = b"gasdiff-frames 1"
#: timestep, time_fs, has energy, energy
_FRAME_HEAD = struct.Struct("<qdqd")
#: magic, particles, frames, text bytes, text SHA-256, frame records' SHA-256
_TRAILER = struct.Struct("<16sqqq32s32s")
#: ids, species, positions, velocities: the dtype the parser gives each
#: and its columns; the sidecar stores them little-endian
_COLUMNS = tuple((np.dtype(t), cols) for t, cols in (
    (np.int64, ()), (np.int64, ()), (np.float64, (2,)), (np.float64, (2,))))
_ROW_BYTES = 48  # id, species, x, y, vx, vy: 8 bytes each
_BLOCK = 1 << 18


def sidecar_path(path) -> Path:
    """The binary frame sidecar of the native trajectory at ``path``."""
    return Path(f"{path}.frames")


def _header_text(header: Trajectory) -> str:
    lines = ["#gasdiff-trajectory 1", f"#box {header.box_side!r}"]
    if header.dt is not None:
        lines.append(f"#dt {header.dt!r}")
    lines.append(f"#units {header.units}")
    for key in ("n_he", "n_ar", "seed"):
        if getattr(header, key) is not None:
            lines.append(f"#{key} {getattr(header, key)}")
    lines.append(f"#has_velocities {int(header.has_velocities)}")
    return "".join(f"{line}\n" for line in lines)


def _frame_text(fr: Frame) -> Iterator[str]:
    """The text of a frame in pieces: its FRAME line, then its rows in
    blocks of as many rows as a binary block holds, so that the Python
    objects of one block only are alive at a time."""
    if fr.energy is None:
        yield f"FRAME {fr.timestep} {float(fr.time_fs)!r}\n"
    else:
        yield f"FRAME {fr.timestep} {float(fr.time_fs)!r} {float(fr.energy)!r}\n"
    step = _BLOCK // _ROW_BYTES
    for lo in range(0, len(fr.ids), step):
        rows = zip(*(a[lo:lo + step].tolist()
                     for a in (fr.ids, fr.species, fr.positions, fr.velocities)))
        yield "".join(f"{i} {SPECIES_LABELS[s]} {x!r} {y!r} {vx!r} {vy!r}\n"
                      for i, s, (x, y), (vx, vy) in rows)


def _parses_back(fr: Frame, last) -> bool:
    """Whether the text of ``fr``, after a frame whose (n, timestep,
    time_fs) is ``last`` (None before the first), parses back to ``fr`` bit
    for bit: dtypes and shapes the parser makes, finite floats (their repr
    round-trips, -0.0 included), and nothing the readers reject."""
    ts, count = fr.timestep, len(fr.ids)
    arrays = (fr.ids, fr.species, fr.positions, fr.velocities)
    return ((type(ts) is int or isinstance(ts, np.integer)) and abs(int(ts)) <= 2**62
            and _order_fault(last, count, ts, float(fr.time_fs)) is None
            and all(isinstance(a, np.ndarray) and a.dtype == dtype
                    and a.shape == (count, *cols)
                    for a, (dtype, cols) in zip(arrays, _COLUMNS))
            and (fr.energy is None or math.isfinite(float(fr.energy)))
            and bool(np.isfinite(fr.positions).all() and np.isfinite(fr.velocities).all())
            and (count == 0 or -2**62 <= fr.ids.min() <= fr.ids.max() <= 2**62))


def _frame_record(fr: Frame) -> list[bytes]:
    energy = fr.energy
    head = _FRAME_HEAD.pack(int(fr.timestep), float(fr.time_fs), energy is not None,
                            0.0 if energy is None else float(energy))
    return [head] + [a.astype(dtype.newbyteorder("<"), copy=False).tobytes()
                     for a, (dtype, _) in zip(
                         (fr.ids, fr.species, fr.positions, fr.velocities), _COLUMNS)]


def write_native_frames(header: Trajectory, frames: Iterable[Frame], path) -> None:
    """Write ``header``'s fields (not its frames), then each of ``frames`` as
    it comes, to ``path`` + ".tmp", renamed onto ``path`` after the last
    frame; the binary sidecar goes the same way, or is removed when a frame
    would not parse back from the text identically.  If ``frames`` raises,
    both temporary files are removed.

    The frames are formatted, hashed and written by a forked child process
    while the caller makes the next ones; the caller writes only the header.
    Where there is no ``os.fork``, or the process runs other threads (which
    a fork would leave behind in the child), the same writer runs here."""
    import hashlib

    tmp, side_tmp = Path(f"{path}.tmp"), Path(f"{sidecar_path(path)}.tmp")
    text_sha = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh, open(side_tmp, "wb") as side_fh:
            head = _header_text(header)
            data = head.encode("utf-8")
            text_sha.update(data)
            fh.write(data)
            # a line break inside a header value would start another line
            exact = len(head.splitlines()) == head.count("\n")
            if hasattr(os, "fork") and threading.active_count() == 1:
                # the header is on disk, and no buffered byte is copied into the child
                fh.flush()
                side_fh.flush()
                _write_forked(fh, side_fh, path, text_sha, exact, frames)
            else:
                _write_frames(fh, side_fh, path, text_sha, exact, frames)
    except BaseException:
        tmp.unlink(missing_ok=True)
        side_tmp.unlink(missing_ok=True)
        raise


def _write_frames(fh, side_fh, path, text_sha, exact: bool, frames: Iterable[Frame]) -> None:
    """Append ``frames`` to the open text and sidecar files ``fh`` and
    ``side_fh`` of ``path``, whose header is written and in ``text_sha``;
    close both and move them into place.  ``exact`` is whether the header
    parses back as written."""
    import hashlib

    records_sha = hashlib.sha256()
    with fh, side_fh:
        last = None  # (n, timestep, time_fs) of the last frame recorded
        count = 0
        for fr in frames:
            for text in _frame_text(fr):
                data = text.encode("utf-8")
                text_sha.update(data)
                fh.write(data)
            exact = exact and _parses_back(fr, last)
            if exact:
                for part in _frame_record(fr):
                    records_sha.update(part)
                    side_fh.write(part)
                last, count = (len(fr.ids), fr.timestep, float(fr.time_fs)), count + 1
        if exact:
            side_fh.write(_TRAILER.pack(_SIDECAR_MAGIC, last[0] if last else 0, count,
                                        fh.tell(), text_sha.digest(), records_sha.digest()))
    side = sidecar_path(path)
    if exact:
        os.replace(f"{side}.tmp", side)
    else:
        os.unlink(f"{side}.tmp")
        side.unlink(missing_ok=True)
    os.replace(f"{path}.tmp", path)


def _send(fd: int, data: bytes) -> bool:
    """Write all of ``data`` to the pipe ``fd``; False if its reader has gone."""
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        return False
    return True


def _write_forked(fh, side_fh, path, text_sha, exact: bool, frames: Iterable[Frame]) -> None:
    """``_write_frames`` in a forked child, fed ``frames`` through a pipe.

    Each frame goes down the pipe as a pickled tuple of its fields (not the
    frame, whose class need not pickle), then None ends the run.  The child
    sends back on a second pipe a pickled None, or the exception it raised,
    which is raised here; a child that stops early closes the frame pipe, so
    its error is raised in place of the broken pipe.  If this side fails
    first (``frames`` raises, or an interrupt) the child is killed and
    reaped before the exception goes on; the caller removes the files."""
    import pickle
    import signal

    frame_r, frame_w = os.pipe()
    status_r, status_w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (frame_r, frame_w, status_r, status_w):
            os.close(fd)
        raise
    if pid == 0:
        try:
            os.close(frame_w)
            os.close(status_r)
            try:
                with open(frame_r, "rb") as pipe:
                    received = iter(lambda: pickle.load(pipe), None)
                    _write_frames(fh, side_fh, path, text_sha, exact,
                                  (Frame(*fields) for fields in received))
                report = pickle.dumps(None)
            except BaseException as exc:
                try:
                    report = pickle.dumps(exc)
                    pickle.loads(report)
                except Exception:  # an exception that does not pickle back
                    report = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            _send(status_w, report)
        finally:
            os._exit(0)
    os.close(frame_r)
    os.close(status_w)
    try:
        try:
            for fr in frames:
                fields = (fr.timestep, fr.time_fs, fr.ids, fr.species, fr.positions,
                          fr.velocities, fr.energy)
                if not _send(frame_w, pickle.dumps(fields, pickle.HIGHEST_PROTOCOL)):
                    break
            else:
                _send(frame_w, pickle.dumps(None))
        finally:
            os.close(frame_w)
        with open(status_r, "rb", closefd=False) as status:
            report = status.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(status_r)
        _, wait_status = os.waitpid(pid, 0)
    if not report:
        raise RuntimeError("the trajectory writer process ended without a report "
                           f"(wait status {wait_status})")
    error = pickle.loads(report)
    if error is not None:
        raise error


def write_native(traj: Trajectory, path) -> None:
    write_native_frames(traj, traj.frames, path)


def _parse_float(token: str, path, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"non-numeric field {token!r}", path=path, line=line) from None


def _parse_int(token: str, path, line: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"non-integer field {token!r}", path=path, line=line) from None
    if abs(value) > 2**62:
        raise ParseError(f"integer out of range: {token!r}", path=path, line=line)
    return value


_SPECIES_CODE = {label: int(sp) for label, sp in SPECIES_BY_LABEL.items()}


def _column(kind, tokens) -> np.ndarray:
    """``tokens`` parsed as ``kind``; ValueError, KeyError or OverflowError
    if one is malformed."""
    if isinstance(kind, tuple):  # (int, codes): the codes hold no key beyond 2**62
        tokens, kind = map(int, tokens), kind[1]
    parse = kind.__getitem__ if isinstance(kind, dict) else kind
    values = np.array(list(map(parse, tokens)), np.float64 if kind is float else np.int64)
    if kind is int and len(values) and not -2**62 <= values.min() <= values.max() <= 2**62:
        raise OverflowError
    return values


#: rows _parse_rows splits and converts at a time, bounding the tokens held
_ROW_BLOCK = 4096


def _parse_rows(rows: list[str], first_line: int, path, kinds, in_row: str = ""):
    """Particle rows, the first on line ``first_line``, parsed by column:
    per entry of ``kinds`` an int64 array (``int``, |v| <= 2**62), a float64
    array (``float``), the int64 codes of a dict's labels or of ``(int,
    codes)``'s integers, or None (None skips the column).  A malformed row
    raises ParseError at the first such line; ``in_row`` goes into the
    column-count message.  The rows are split and converted _ROW_BLOCK at a
    time."""
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
        for line, f in enumerate(fields, first_line + start):
            if len(f) != len(kinds):
                raise ParseError(f"expected {len(kinds)} columns{in_row}, found {len(f)}",
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
                elif kind is not None and token not in kind:
                    raise ParseError(f"unknown species {token!r}", path=path, line=line)
    return columns


def _lines(fh):
    """The lines of ``fh`` as ``fh.read().splitlines()`` splits them, read
    one at a time."""
    return (line for raw in fh for line in raw.splitlines())


def _native_header(lines, path):
    """A frameless Trajectory from the header at the start of ``lines``,
    the line after the header (None at the end) and its line number."""
    first = next(lines, None)
    if first is None or not first.startswith("#gasdiff-trajectory"):
        raise ParseError("missing '#gasdiff-trajectory' signature", path=path, line=1)
    header: dict[str, tuple[str, int]] = {}  # key -> (value, line number)
    line, lineno = next(lines, None), 2
    while line is not None and line.startswith("#"):
        parts = line[1:].split(None, 1)
        if len(parts) != 2:
            raise ParseError("malformed header line", path=path, line=lineno)
        header[parts[0]] = (parts[1], lineno)
        line, lineno = next(lines, None), lineno + 1
    if "box" not in header:
        raise ParseError("header is missing the box side", path=path, line=lineno - 1)

    def number(key, parse):
        if key not in header:
            return None
        text, at = header[key]
        return parse(text, path, at)

    box_side = number("box", _parse_float)
    if not 0.0 < box_side < math.inf:
        raise ParseError(f"box side must be positive and finite, got {box_side!r}",
                         path=path, line=header["box"][1])
    try:
        traj = Trajectory(
            box_side=box_side,
            units=header.get("units", ("real",))[0],
            dt=number("dt", _parse_float),
            seed=number("seed", _parse_int),
            n_he=number("n_he", _parse_int),
            n_ar=number("n_ar", _parse_int),
            has_velocities=header.get("has_velocities", ("1",))[0] == "1",
        )
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None
    return traj, line, lineno


def read_native_header(path) -> Trajectory:
    """The header of a native trajectory, as a Trajectory without frames."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return _native_header(_lines(fh), path)[0]


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


@contextlib.contextmanager
def _open_sidecar(path):
    """``path``'s sidecar open at its first frame, with its particle and frame
    counts, if its trailer, its frame records and the text at ``path`` all
    match what the writer recorded; else None."""
    try:
        fh = open(sidecar_path(path), "rb")
    except OSError:
        yield None
        return
    with fh:
        body = os.fstat(fh.fileno()).st_size - _TRAILER.size
        found = None
        if body >= 0:
            fh.seek(body)
            magic, n, count, text_bytes, text_sha, records_sha = _TRAILER.unpack(
                fh.read(_TRAILER.size))
            if (magic == _SIDECAR_MAGIC and n >= 0 and count >= 0
                    and body == count * (_FRAME_HEAD.size + _ROW_BYTES * n)
                    and os.path.getsize(path) == text_bytes):
                with open(path, "rb") as text:
                    matches = _sha256(text, text_bytes) == text_sha
                fh.seek(0)
                if matches and _sha256(fh, body) == records_sha:
                    fh.seek(0)
                    found = fh, n, count
        yield found


def _sidecar_frame(fh, n: int) -> Frame:
    """The next frame of a checked sidecar, each array its own."""
    head = fh.read(_FRAME_HEAD.size)
    arrays = [np.empty((n, *cols), dtype.newbyteorder("<")) for dtype, cols in _COLUMNS]
    if len(head) != _FRAME_HEAD.size or any(fh.readinto(a) != a.nbytes for a in arrays):
        raise ParseError("frame sidecar changed while it was read", path=fh.name)
    timestep, time_fs, has_energy, energy = _FRAME_HEAD.unpack(head)
    return Frame(timestep, time_fs,
                 *(a.astype(dtype, copy=False) for a, (dtype, _) in zip(arrays, _COLUMNS)),
                 energy=energy if has_energy else None)


def iter_native(path) -> Iterator[Frame]:
    """Yield the frames of a native trajectory one at a time: from its
    binary sidecar when that matches the text, else parsed from the text.

    A malformed line raises ParseError when the reader reaches it, after
    the frames before it were yielded.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = _lines(fh)
        _, line, lineno = _native_header(lines, path)
        with _open_sidecar(path) as found:
            if found is not None:
                side, n, count = found
                for _ in range(count):
                    yield _sidecar_frame(side, n)
                return
        last = None  # (n, timestep, time_fs) of the last frame
        while line is not None:
            if not line.strip():
                line, lineno = next(lines, None), lineno + 1
                continue
            tokens = line.split()
            if tokens[0] != "FRAME" or len(tokens) not in (3, 4):
                raise ParseError("expected a FRAME line", path=path, line=lineno)
            timestep = _parse_int(tokens[1], path, lineno)
            time_fs = _parse_float(tokens[2], path, lineno)
            energy = _parse_float(tokens[3], path, lineno) if len(tokens) == 4 else None
            rows, line = [], next(lines, None)
            while line is not None and line.strip() and not line.startswith("FRAME"):
                rows.append(line)
                line = next(lines, None)
            ids, species, x, y, vx, vy = _parse_rows(
                rows, lineno + 1, path, (int, _SPECIES_CODE, float, float, float, float),
                " in particle row")
            fault = _order_fault(last, len(ids), timestep, time_fs)
            if fault is not None:  # a count names the frame's last line, any other its FRAME line
                raise ParseError(fault[1], path=path,
                                 line={"count": lineno + len(rows)}.get(fault[0], lineno))
            last, lineno = (len(ids), timestep, time_fs), lineno + len(rows) + 1
            yield Frame(
                timestep=timestep,
                time_fs=time_fs,
                ids=ids,
                species=species,
                positions=np.column_stack((x, y)),
                velocities=np.column_stack((vx, vy)),
                energy=energy,
            )


def read_native(path) -> Trajectory:
    """``iter_native`` collected into a Trajectory held in memory."""
    return replace(read_native_header(path), frames=list(iter_native(path)))


def _expect_item(line, i, name, path):
    """``line``, line i + 1 of the file (None past its end), as the start of
    the ``ITEM: name`` section."""
    if line is None:
        raise ParseError(f"missing 'ITEM: {name}' section", path=path, line=i)
    if not line.startswith(f"ITEM: {name}"):
        raise ParseError(
            f"expected 'ITEM: {name}', found {line[:40]!r}", path=path, line=i + 1
        )
    return line


def _item_int(lines, line, i, name, path):
    """The integer of the one-line ``ITEM: name`` section that starts at
    ``line``, line i + 1 of the file; then the line after the section and
    its index, which is also the integer's line number."""
    _expect_item(line, i, name, path)
    line, i = next(lines, None), i + 1
    if line is None:
        raise ParseError(f"file ends inside {name} section", path=path, line=i)
    return _parse_int(line.strip(), path, i + 1), next(lines, None), i + 1


def parse_lammps_dump(path, species_map: dict[int, Species],
                      dt_fs: float | None = None) -> Trajectory:
    """Read a LAMMPS text dump of a square, orthogonal, fixed box, holding
    one frame's lines at a time.

    ``species_map`` translates the dump's numeric atom types.  Column order
    is taken from the ``ITEM: ATOMS`` header and must include id, type and
    either x/y or xs/ys; vx/vy are used when present.  Rows are reordered by
    atom id so frames index consistently.  Every frame's x and y bounds must
    be frame 0's, whose y extent must equal its x extent to 1e-12 relative;
    x and y are measured from their own lower bounds.  LAMMPS dumps carry no
    time unit, so frame times are timestep * dt_fs when given (0 < dt_fs <
    inf), else the raw timestep.  Each frame meets the frame-order rule or
    raises ParseError at its timestep as soon as it is read.
    """
    if dt_fs is not None and not 0.0 < dt_fs < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt_fs!r}")
    codes = {t: int(sp) for t, sp in species_map.items() if abs(t) <= 2**62}
    frames: list[Frame] = []
    box = last = None  # frame 0's x and y bounds; the last frame's (n, timestep, time)
    saw_velocities = False
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = _lines(fh)
        line, i = next(lines, None), 0  # line i + 1 of the file, None past its end
        while line is not None:
            if not line.strip():
                line, i = next(lines, None), i + 1
                continue
            timestep, line, i = _item_int(lines, line, i, "TIMESTEP", path)
            ts_line = i
            n_atoms, line, i = _item_int(lines, line, i, "NUMBER OF ATOMS", path)
            if n_atoms < 0:
                raise ParseError("negative atom count", path=path, line=i)
            time_fs = float(timestep) * (dt_fs if dt_fs is not None else 1.0)
            fault = _order_fault(last, n_atoms, timestep, time_fs)
            if fault is not None:
                raise ParseError(fault[1], path=path, line=ts_line)
            last = n_atoms, timestep, time_fs

            _expect_item(line, i, "BOX BOUNDS", path)
            # only boundary flags (pp, fs, ...): tilt factors or abc vectors are triclinic
            if not all(len(f) == 2 and set(f) <= set("pfsm") for f in line.split()[3:]):
                raise ParseError(f"only an orthogonal box is supported, found {line[:40]!r}",
                                 path=path, line=i + 1)
            line, i = next(lines, None), i + 1
            bounds = []
            while line is not None and not line.startswith("ITEM:"):
                parts = line.split()
                if len(parts) < 2:
                    raise ParseError("malformed box bounds line", path=path, line=i + 1)
                bounds.append((_parse_float(parts[0], path, i + 1),
                               _parse_float(parts[1], path, i + 1)))
                line, i = next(lines, None), i + 1
            if len(bounds) < 2:
                raise ParseError("expected at least 2 box bounds lines",
                                 path=path, line=i)
            (xlo, xhi), (ylo, yhi) = bounds[:2]
            side, at = xhi - xlo, i - len(bounds) + 1  # at: the x bounds line
            if not 0.0 < side < math.inf:
                raise ParseError(f"box extent must be positive and finite, got {side!r}",
                                 path=path, line=at)
            if not abs(yhi - ylo - side) <= 1e-12 * side:
                raise ParseError(f"box must be square: x extent {side!r}, "
                                 f"y extent {yhi - ylo!r}", path=path, line=at + 1)
            if box is None:
                box = bounds[:2]
            elif bounds[:2] != box:
                raise ParseError(f"box bounds {bounds[:2]} differ from frame 0's {box}",
                                 path=path, line=at if bounds[0] != box[0] else at + 1)

            columns = _expect_item(line, i, "ATOMS", path).split()[2:]
            col = {name: k for k, name in enumerate(columns)}
            scaled = "xs" in col
            names = ["id", "type"] + (["xs", "ys"] if scaled else ["x", "y"])
            missing = [c for c in names if c not in col]
            if missing:
                raise ParseError(
                    f"unsupported ATOMS column layout {columns!r} (missing {missing})",
                    path=path, line=i + 1,
                )
            if "vx" in col and "vy" in col:
                names += ["vx", "vy"]
                saw_velocities = True

            rows = list(itertools.islice(lines, n_atoms))
            first = i + 2  # the line number of the first row
            if len(rows) < n_atoms:
                raise ParseError(
                    f"frame at timestep {timestep} is truncated "
                    f"({len(rows)} of {n_atoms} atom rows)",
                    path=path, line=first - 1 + len(rows),
                )
            kinds = [None] * len(columns)
            for name in names:
                kinds[col[name]] = float
            kinds[col["id"]], kinds[col["type"]] = int, (int, codes)
            parsed = _parse_rows(rows, first, path, kinds)
            del rows  # before the next frame's rows are read
            ids, species, x, y, *v = (parsed[col[name]] for name in names)
            with np.errstate(all="ignore"):  # inf and nan pass, as in Python floats
                x, y = (x * side, y * side) if scaled else (x - xlo, y - ylo)
                # double mod: a tiny negative coordinate can wrap to exactly side
                positions = np.column_stack(((x % side) % side, (y % side) % side))
            velocities = np.column_stack(v) if v else np.zeros((n_atoms, 2))

            order = np.argsort(ids, kind="stable")
            frames.append(Frame(
                timestep=timestep,
                time_fs=time_fs,
                ids=ids[order],
                species=species[order],
                positions=positions[order],
                velocities=velocities[order],
            ))
            line, i = next(lines, None), i + 1 + n_atoms

    if not frames:
        raise ParseError("no frames found", path=path, line=1)
    # side is every frame's x extent, as every frame has frame 0's bounds
    return Trajectory(box_side=side, frames=frames, units="real", dt=dt_fs,
                      has_velocities=saw_velocities)


def write_lammps_dump(traj: Trajectory, path) -> None:
    """Emit frames as an orthogonal-box LAMMPS text dump (z set to zero)."""
    type_of = {int(Species.HE): 1, int(Species.AR): 2}
    with open(path, "w", encoding="utf-8") as fh:
        for fr in traj.frames:
            fh.write("ITEM: TIMESTEP\n")
            fh.write(f"{fr.timestep}\n")
            fh.write("ITEM: NUMBER OF ATOMS\n")
            fh.write(f"{fr.n_particles}\n")
            fh.write("ITEM: BOX BOUNDS pp pp pp\n")
            fh.write(f"0.0 {float(traj.box_side)!r}\n")
            fh.write(f"0.0 {float(traj.box_side)!r}\n")
            fh.write("-0.5 0.5\n")
            rows = zip(fr.ids.tolist(), fr.species.tolist(), fr.positions.tolist(),
                       fr.velocities.tolist())
            if traj.has_velocities:
                fh.write("ITEM: ATOMS id type x y z vx vy\n")
                fh.write("".join(f"{i} {type_of[s]} {x!r} {y!r} 0.0 {vx!r} {vy!r}\n"
                                 for i, s, (x, y), (vx, vy) in rows))
            else:
                fh.write("ITEM: ATOMS id type x y z\n")
                fh.write("".join(f"{i} {type_of[s]} {x!r} {y!r} 0.0\n"
                                 for i, s, (x, y), _ in rows))
