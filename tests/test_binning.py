import numpy as np
import pytest

from gasdiff.binning import (
    BinnedSeries,
    Binner,
    bin_counts,
    bin_trajectory,
    normalize_series,
)
from gasdiff.fd_solver import SchemeKind, SolverConfig, make_patch_initial, solve
from gasdiff.fields import GridSpec
from gasdiff.md import SimBox, Species
from gasdiff.trajectory_io import Frame, Trajectory
from binned_fields import series_of_fields


class TestBinCounts:
    def test_counts_are_the_int64_tally_of_each_cell(self):
        rng = np.random.default_rng(3)
        side, grid = 250.0, GridSpec(d=2, n=9)
        pos = np.vstack([rng.uniform(0.0, side, (500, 2)),
                         [[250.0, 0.0], [0.0, 250.0], [np.nextafter(250.0, 0.0), 125.0]]])
        want = np.zeros((9, 9), dtype=np.int64)
        for x, y in pos:
            want[int(9 * x / 250.0) % 9, int(9 * y / 250.0) % 9] += 1
        counts = bin_counts(pos, side, grid)
        assert counts.dtype == np.int64 and counts.shape == (9, 9)
        assert np.array_equal(counts, want)
        assert not bin_counts(np.empty((0, 2)), side, grid).any()

    def test_single_particle_lands_in_cell_00(self):
        side = 1000.0
        counts = bin_counts(np.array([[300.0, 300.0]]), side, GridSpec(d=2, n=2))
        assert counts[0, 0] == 1
        assert counts.sum() == 1

    def test_one_particle_per_cell_center(self):
        n = 8
        side = 800.0
        grid = GridSpec(d=2, n=n)
        centers = (np.arange(n) + 0.5) * side / n
        xx, yy = np.meshgrid(centers, centers, indexing="ij")
        pos = np.column_stack([xx.ravel(), yy.ravel()])
        counts = bin_counts(pos, side, grid)
        assert np.array_equal(counts, np.ones((n, n), dtype=np.int64))

    def test_counts_partition_all_particles(self):
        rng = np.random.default_rng(0)
        side = 500.0
        pos = rng.uniform(0, side, (321, 2))
        counts = bin_counts(pos, side, GridSpec(d=2, n=7))
        assert counts.sum() == 321

    def test_boundary_wraps_to_cell_zero(self):
        side = 100.0
        counts = bin_counts(np.array([[100.0, 50.0]]), side, GridSpec(d=2, n=4))
        assert counts[0, 2] == 1

    def test_species_filter(self):
        side = 100.0
        pos = np.array([[10.0, 10.0], [60.0, 60.0]])
        species = np.array([int(Species.HE), int(Species.AR)])
        counts = bin_counts(pos[species == int(Species.AR)], side, GridSpec(d=2, n=2))
        assert counts.sum() == 1
        assert counts[1, 1] == 1

    def test_translation_by_one_cell_permutes_counts(self):
        rng = np.random.default_rng(5)
        side = 300.0
        grid = GridSpec(d=2, n=6)
        pos = rng.uniform(0, side, (100, 2))
        base = bin_counts(pos, side, grid)
        shifted = pos.copy()
        shifted[:, 0] = (shifted[:, 0] + side / grid.n) % side
        moved = bin_counts(shifted, side, grid)
        assert np.array_equal(moved, np.roll(base, 1, axis=0))


class TestNormalizeSeries:
    def test_single_frame_peak_is_one(self):
        grid = GridSpec(d=2, n=3)
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[1, 1] = 8
        counts[0, 0] = 2
        series = normalize_series([(0.0, counts)], grid)
        assert series.normalization_max == 8
        assert series.frames[0][1, 1] == 1.0
        assert series.frames[0][0, 0] == 0.25

    def test_global_max_rule_on_two_frames(self):
        grid = GridSpec(d=2, n=2)
        first = np.array([[10, 0], [0, 0]], dtype=np.int64)
        second = np.array([[4, 2], [3, 1]], dtype=np.int64)
        series = normalize_series([(0.0, first), (1.0, second)], grid)
        assert series.normalization_max == 10
        assert series.frames[0][0, 0] == 1.0
        assert series.frames[1].max() == pytest.approx(0.4)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        grid = GridSpec(d=2, n=5)
        side = 50.0
        frames = [
            (float(t), bin_counts(rng.uniform(0, side, (300, 2)), side, grid))
            for t in range(4)
        ]
        series = normalize_series(frames, grid)
        for f in series.frames:
            assert np.all(f >= 0.0)
            assert np.all(f <= 1.0)

    def test_all_zero_series_rejected(self):
        grid = GridSpec(d=2, n=2)
        with pytest.raises(ValueError):
            normalize_series([(0.0, np.zeros((2, 2), dtype=np.int64))], grid)

    def test_frames_with_different_totals_rejected(self):
        grid = GridSpec(d=2, n=2)
        first = np.array([[10, 0], [0, 0]], dtype=np.int64)
        second = np.array([[4, 2], [3, 2]], dtype=np.int64)
        with pytest.raises(ValueError, match=r"per-frame particle count varies: \[10, 11\]"):
            normalize_series([(0.0, first), (1.0, second)], grid)

    def test_frames_are_read_only_and_times_one_array(self):
        grid = GridSpec(d=2, n=2)
        counts = np.array([[4, 2], [3, 1]], dtype=np.int64)
        series = normalize_series([(0.0, counts), (5.0, counts[::-1])], grid)
        assert series.times_fs.dtype == np.float64 and series.times_fs.tolist() == [0.0, 5.0]
        for frame in series.frames:
            assert frame.dtype == np.float64 and frame.shape == (2, 2)
            with pytest.raises(ValueError, match="read-only"):
                frame[0, 0] = 0.0

    def test_global_normalization_preserves_argmax_and_order(self):
        rng = np.random.default_rng(2)
        grid = GridSpec(d=2, n=4)
        side = 100.0
        frames = [
            (float(t), bin_counts(rng.uniform(0, side, (200, 2)), side, grid))
            for t in range(3)
        ]
        series = normalize_series(frames, grid)
        for (_, counts), frame in zip(frames, series.frames):
            u = frame
            assert np.argmax(u) == np.argmax(counts)
            order_counts = np.argsort(counts.ravel(), kind="stable")
            order_u = np.argsort(u.ravel(), kind="stable")
            assert np.array_equal(order_counts, order_u)

    def test_mass_identity(self):
        # mean(U) * M * N^2 == particle count
        grid = GridSpec(d=2, n=4)
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[1, 1] = 7
        counts[2, 2] = 3
        series = normalize_series([(0.0, counts)], grid)
        u_mean = float(series.frames[0].mean())
        m = series.normalization_max
        assert u_mean * m * grid.num_cells == pytest.approx(10.0, rel=1e-12)


class TestBinTrajectory:
    def test_counts_sum_matches_argon_count(self):
        rng = np.random.default_rng(7)
        n_he, n_ar = 30, 50
        side = 400.0
        frames = []
        for i in range(3):
            frames.append(Frame(
                timestep=i * 10,
                time_fs=i * 50.0,
                ids=np.arange(n_he + n_ar),
                species=np.concatenate([np.zeros(n_he, dtype=np.int64),
                                        np.ones(n_ar, dtype=np.int64)]),
                positions=rng.uniform(0, side, (n_he + n_ar, 2)),
                velocities=np.zeros((n_he + n_ar, 2)),
            ))
        traj = Trajectory(box_side=side, frames=frames)
        series = bin_trajectory(traj, GridSpec(d=2, n=5), Species.AR)
        for f in series.frames:
            assert round(f.sum() * series.normalization_max) == n_ar

    def test_streamed_frames_bin_as_the_whole_trajectory(self, tmp_path):
        from gasdiff import md
        from gasdiff.trajectory_io import iter_native, read_native, write_native

        cfg = md.MDConfig(n_he=150, n_ar=150, seed=8, sample_stride=20)
        path = tmp_path / "traj.txt"
        write_native(md.run(cfg, SimBox(side=2000.0), 200), path)
        traj = read_native(path)
        grid = GridSpec(d=2, n=6)
        side = traj.box_side
        want = normalize_series(
            [(fr.time_fs, bin_counts(fr.positions[fr.species == int(Species.AR)], side, grid))
             for fr in traj.frames], grid, species=Species.AR)
        binner = Binner(traj.box_side, grid, Species.AR)
        frames = iter_native(path)
        assert next(frames).box_side == side
        for frame in frames:
            binner.add(frame)
        for series in (binner.series(), bin_trajectory(traj, grid, Species.AR)):
            assert series.normalization_max == want.normalization_max
            assert series.species == want.species and len(series.frames) == 11
            assert series.times_fs.tobytes() == want.times_fs.tobytes()
            for a, b in zip(series.frames, want.frames):
                assert a.tobytes() == b.tobytes()


def _fd_series(grid, k, n_frames, diffusion=0.1):
    cfg = SolverConfig(grid=grid, k=k, diffusion=diffusion,
                       scheme=SchemeKind.CRANK_NICOLSON, n_max=n_frames - 1)
    return solve(make_patch_initial(grid), cfg, sample_stride=1)


class TestBinnedSeriesFromFields:
    def test_wraps_plain_fields(self):
        grid = GridSpec(d=2, n=8)
        fd = _fd_series(grid, k=1e-3, n_frames=3)
        series = series_of_fields([0.0, 1.0, 2.0], list(fd.frames))
        assert series.normalization_max is None
        assert len(series.frames) == 3
        assert all(a is f.values for a, f in zip(series.frames, fd.frames))


class TestOneTotalRule:
    """A series with a normalization_max is integer counts divided by it,
    with one total over every frame."""

    GRID = GridSpec(d=2, n=2)

    def series(self, frames, norm=4):
        return BinnedSeries(self.GRID, np.arange(len(frames), dtype=np.float64),
                            [np.array(f, dtype=np.float64) for f in frames], norm)

    def test_counts_over_the_maximum_pass(self):
        series = self.series([[[1.0, 0.25], [0.0, 0.0]], [[0.5, 0.5], [0.25, 0.0]]])
        assert series.normalization_max == 4

    def test_a_value_off_the_counts_is_rejected(self):
        with pytest.raises(ValueError, match="frame 1 is not counts / normalization_max 4"):
            self.series([[[1.0, 0.25], [0.0, 0.0]], [[0.5, 0.5], [0.26, 0.0]]])

    def test_a_negative_count_is_rejected(self):
        with pytest.raises(ValueError, match="frame 0 is not counts"):
            self.series([[[1.0, 0.5], [-0.25, 0.0]]])

    def test_per_frame_scaling_is_rejected(self):
        # counts [[4, 0], [0, 0]] and [[2, 1], [1, 0]], each divided by its own
        # peak: frame 1 reads as 8 argon where both hold 4
        with pytest.raises(ValueError, match=r"per-frame particle count varies: \[4, 8\]"):
            self.series([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.5], [0.5, 0.0]]])

    @pytest.mark.parametrize("norm", [0, -3])
    def test_maximum_below_one_is_rejected(self, norm):
        with pytest.raises(ValueError, match=f"frame 0 is not counts / normalization_max {norm}"):
            self.series([[[0.0, 0.0], [0.0, 0.0]]], norm)
