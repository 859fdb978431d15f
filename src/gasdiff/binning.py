"""Convert particle trajectories into concentration fields on the FD grid.

A particle at physical position x lands in cell floor(N * x / side); cell j
therefore covers [j*side/N, (j+1)*side/N), matching the FD convention that
value j lives at the cell spanning [j*h, (j+1)*h) of the unit square.
Counts are taken on wrapped positions (the box is periodic, as is the FD
domain) and normalized by a single maximum taken over every frame and cell
of the series, so later frames keep their decayed peaks.

Frames stream through a Binner one at a time: it keeps each frame's N x N
counts, so binning a trajectory takes O(F N^2) memory, not O(F n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .fields import GridSpec, ScalarField
from .md import Species


@dataclass(frozen=True)
class BinnedFrame:
    time_fs: float
    counts: np.ndarray | None
    concentration: ScalarField


@dataclass(frozen=True)
class BinnedSeries:
    grid: GridSpec
    frames: tuple[BinnedFrame, ...]
    normalization_max: int | None
    species: Species | None = None

    def __post_init__(self):
        sums = {int(f.counts.sum()) for f in self.frames if f.counts is not None}
        if len(sums) > 1:
            raise ValueError(f"per-frame particle count varies: {sorted(sums)}")

    @property
    def times_fs(self) -> np.ndarray:
        return np.array([f.time_fs for f in self.frames])

    @classmethod
    def from_fields(cls, times_fs, fields) -> "BinnedSeries":
        """Wrap plain concentration fields (no counts), e.g. synthetic data."""
        frames = tuple(
            BinnedFrame(time_fs=float(t), counts=None, concentration=f)
            for t, f in zip(times_fs, fields)
        )
        return cls(grid=fields[0].grid, frames=frames, normalization_max=None)


def bin_counts(positions: np.ndarray, side: float, grid: GridSpec) -> np.ndarray:
    """Per-cell particle counts for one frame.

    ``positions`` are wrapped coordinates in Angstroms in a box of ``side``
    (0 < side < inf).  A coordinate exactly at the box side wraps to cell 0.
    """
    if grid.d != 2:
        raise ValueError("binning is defined for d=2 grids")
    idx = np.floor(grid.n * np.asarray(positions) / side).astype(np.int64)
    idx %= grid.n
    cells = np.bincount(idx[:, 0] * grid.n + idx[:, 1], minlength=grid.num_cells)
    return cells.reshape(grid.n, grid.n)


def normalize_series(count_frames, grid: GridSpec,
                     species: Species | None = None,
                     per_frame_max: bool = False) -> BinnedSeries:
    """Scale count frames to [0, 1] concentrations.

    ``count_frames`` is a sequence of (time_fs, counts).  The default
    normalizes every frame by the single global maximum; ``per_frame_max``
    pins each frame's own peak at 1 instead (for sensitivity studies).
    """
    count_frames = list(count_frames)
    if not count_frames:
        raise ValueError("no frames to normalize")
    global_max = int(max(int(np.max(c)) for _, c in count_frames))
    if global_max == 0:
        raise ValueError("cannot normalize an all-zero series")
    frames = []
    for t, counts in count_frames:
        denom = int(np.max(counts)) if per_frame_max else global_max
        if denom == 0:
            raise ValueError(f"frame at t={t} is all zero under per-frame scaling")
        frames.append(BinnedFrame(
            time_fs=float(t),
            counts=np.asarray(counts, dtype=np.int64),
            concentration=ScalarField(grid, np.asarray(counts, dtype=np.float64) / denom),
        ))
    return BinnedSeries(grid=grid, frames=tuple(frames),
                        normalization_max=global_max, species=species)


class Binner:
    """Per-cell counts of one species, added a frame at a time.

    Holds frame 0's species codes and one N x N count array per frame
    added, never the frames; a frame whose species codes differ from frame
    0's is a ParseError.  ``box_side`` is the trajectory's, which need not
    pass SimBox's MD rule.
    """

    def __init__(self, box_side: float, grid: GridSpec, species: Species = Species.AR):
        self.side = box_side
        self.grid = grid
        self.species = species
        self.count_frames: list[tuple[float, np.ndarray]] = []
        self._codes = None

    def add(self, frame) -> None:
        if self._codes is not None and not np.array_equal(frame.species, self._codes):
            raise ParseError(f"frame at timestep {frame.timestep} holds particles of "
                             "other species than frame 0")
        self._codes = frame.species  # frame 0's, as every later one must equal them
        positions = frame.finite_positions(frame.species == int(self.species))
        self.count_frames.append((frame.time_fs, bin_counts(positions, self.side,
                                                            self.grid)))

    def series(self, per_frame_max: bool = False) -> BinnedSeries:
        return normalize_series(self.count_frames, self.grid, species=self.species,
                                per_frame_max=per_frame_max)


def bin_trajectory(traj, grid: GridSpec, species: Species = Species.AR,
                   per_frame_max: bool = False) -> BinnedSeries:
    """Bin every frame of an in-memory trajectory for one species."""
    binner = Binner(traj.box_side, grid, species)
    for fr in traj.frames:
        binner.add(fr)
    return binner.series(per_frame_max)
