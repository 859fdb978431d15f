"""The native binary trajectory layout, written out from the format's
description and kept apart from ``gasdiff.trajectory_io``: ``raw_native``
writes a file from raw header text and frame records, with a trailer whose
counts and SHA-256 fit, and without the writer's checks, so that a test can
hand the reader a header or a frame the writer refuses; ``whole_file_native``
decodes a whole file at once, the reference the streaming reader is
compared with."""

import hashlib
import struct

import numpy as np

MAGIC = b"gasdiff-native 2"
LENGTH = struct.Struct("<q")  # byte length of the header text
FRAME_HEAD = struct.Struct("<qdqd")  # timestep, time_fs, has energy, energy
TRAILER = struct.Struct("<qq32s")  # particles, frames, SHA-256 of the bytes before


def raw_native(path, header: str, frames=()) -> None:
    """Write ``header`` (the header text, as given) and ``frames`` (each
    with timestep, time_fs, energy, ids, species, positions, velocities) to
    ``path``, every array as int64 or float64 little-endian, then the
    trailer: the last frame's particle count, the frame count and the
    SHA-256 of every byte before it."""
    text, frames = header.encode("utf-8"), list(frames)
    parts, n = [MAGIC, LENGTH.pack(len(text)), text], 0
    for fr in frames:
        parts.append(FRAME_HEAD.pack(fr.timestep, fr.time_fs, fr.energy is not None,
                                     0.0 if fr.energy is None else fr.energy))
        parts += [np.asarray(a, "<i8").tobytes() for a in (fr.ids, fr.species)]
        parts += [np.asarray(a, "<f8").tobytes() for a in (fr.positions, fr.velocities)]
        n = len(fr.ids)
    data = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(data + TRAILER.pack(n, len(frames), hashlib.sha256(data).digest()))


def whole_file_native(path):
    """The header text and the frames of the well-formed native file at
    ``path``, read at once: per frame (timestep, time_fs, ids, species,
    positions, velocities, energy or None), each array a native-endian copy.
    AssertionError if the file does not fit its trailer or its SHA-256."""
    with open(path, "rb") as fh:
        data = fh.read()
    assert data[:len(MAGIC)] == MAGIC
    body, trailer = data[:-TRAILER.size], data[-TRAILER.size:]
    n, count, digest = TRAILER.unpack(trailer)
    assert hashlib.sha256(body).digest() == digest
    (length,) = LENGTH.unpack_from(body, len(MAGIC))
    at = len(MAGIC) + LENGTH.size + length
    header, frames = body[len(MAGIC) + LENGTH.size:at].decode("utf-8"), []
    for _ in range(count):
        timestep, time_fs, has_energy, energy = FRAME_HEAD.unpack_from(body, at)
        at += FRAME_HEAD.size
        arrays = []
        for dtype, shape in (("<i8", (n,)), ("<i8", (n,)), ("<f8", (n, 2)), ("<f8", (n, 2))):
            size = 8 * int(np.prod(shape))
            arrays.append(np.frombuffer(body, dtype, size // 8, at).reshape(shape)
                          .astype(dtype[1:]))
            at += size
        frames.append((timestep, time_fs, *arrays, energy if has_energy else None))
    assert at == len(body)
    return header, frames
