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
from .fields import GridSpec
from .md import Species


@dataclass(frozen=True)
class BinnedSeries:
    """Frame times and one read-only N x N concentration array per frame.

    With ``normalization_max`` set, each frame is integer counts divided by
    that one maximum, and every frame counts the same total; a series that
    breaks this rule is a ValueError.  So a series scaled frame by frame,
    which would gain or lose mass that the diffusion model conserves, is
    never fitted.
    """

    grid: GridSpec
    times_fs: np.ndarray
    frames: tuple[np.ndarray, ...]
    normalization_max: int | None
    species: Species | None = None

    def __post_init__(self):
        object.__setattr__(self, "times_fs", np.array(self.times_fs, dtype=np.float64))
        object.__setattr__(self, "frames", tuple(self.frames))
        norm, totals = self.normalization_max, set()
        for i, frame in enumerate(self.frames):  # one frame's temporaries at a time
            frame.flags.writeable = False
            if norm is not None:
                counts = np.rint(scaled := frame * norm)
                scaled -= counts  # k / norm * norm is k to a few ulps of k
                if norm < 1 or counts.min() < 0 or np.abs(scaled).max() > 1e-9 * norm:
                    raise ValueError(f"frame {i} is not counts / normalization_max {norm}")
                totals.add(int(counts.sum()))
        if len(totals) > 1:
            raise ValueError(f"per-frame particle count varies: {sorted(totals)}")


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
                     species: Species | None = None) -> BinnedSeries:
    """Scale count frames to [0, 1] concentrations by the single maximum
    count over every frame and cell.  ``count_frames`` is a sequence of
    (time_fs, counts)."""
    global_max = max((int(np.max(c)) for _, c in count_frames), default=0)
    if global_max == 0:
        raise ValueError("cannot normalize an empty or all-zero series")
    return BinnedSeries(grid, [t for t, _ in count_frames],
                        [np.divide(c, global_max) for _, c in count_frames],
                        global_max, species)


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

    def series(self) -> BinnedSeries:
        return normalize_series(self.count_frames, self.grid, species=self.species)


def bin_trajectory(traj, grid: GridSpec, species: Species = Species.AR) -> BinnedSeries:
    """Bin every frame of an in-memory trajectory for one species."""
    binner = Binner(traj.box_side, grid, species)
    for fr in traj.frames:
        binner.add(fr)
    return binner.series()
