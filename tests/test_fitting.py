import dataclasses
import tracemalloc

import numpy as np
import pytest

from gasdiff.binning import BinnedSeries
from gasdiff.errors import FitError
from gasdiff.fd_solver import (
    SchemeKind,
    SolverConfig,
    amplification_factors,
    laplacian_eigenvalues,
    make_patch_initial,
    solve,
)
from gasdiff import fitting
from gasdiff.fields import GridSpec, ScalarField, UnitScale, nd_to_physical_d
from gasdiff.fitting import (
    FitResult,
    FitProblem,
    confidence_interval_95,
    cost,
    cost_curve,
    lm_fit,
    residuals,
)

from binned_fields import series_of_fields
from fd_modes import laplacian_eigenvalue

SCALE = UnitScale()


def synthetic_observed(grid, d_true, k, n_frames, noise=0.0, seed=0):
    """Observed series produced by the FD solver itself (plus optional noise)."""
    cfg = SolverConfig(grid=grid, k=k, diffusion=d_true,
                       scheme=SchemeKind.CRANK_NICOLSON, n_max=n_frames - 1)
    series = solve(make_patch_initial(grid), cfg, sample_stride=1)
    fields = list(series.frames)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        fields = [ScalarField(grid, f.values + rng.normal(0, noise, f.values.shape))
                  for f in fields]
    times_fs = [float(t) * SCALE.time_unit_fs for t in series.times]
    return series_of_fields(times_fs, fields)


def make_problem(observed, **kwargs):
    return FitProblem(observed, SCALE, **kwargs)


GRID = GridSpec(d=2, n=20)
D_TRUE = 0.8
K = 5e-3
N_FRAMES = 11
OBSERVED = synthetic_observed(GRID, D_TRUE, K, N_FRAMES)
PROBLEM = make_problem(OBSERVED)


def solved_frames(problem, diffusion):
    """The problem's model frames from the FD solver, one per observed frame."""
    frames = problem.observed.frames
    u0 = (ScalarField(problem.grid, frames[0]) if problem.init_from_frame0
          else make_patch_initial(problem.grid))
    cfg = SolverConfig(grid=problem.grid, k=problem.k, diffusion=diffusion,
                       scheme=SchemeKind.CRANK_NICOLSON,
                       n_max=(len(frames) - 1) * problem.substeps)
    return solve(u0, cfg, sample_stride=problem.substeps).frames


def solved_residual_norm(problem, diffusion):
    """Sum over frames and cells of (observed - solve frame)^2: the per-cell
    residual the mode-space vector must reproduce (Parseval)."""
    return sum(float(np.sum((o - m.values) ** 2))
               for o, m in zip(problem.observed.frames,
                               solved_frames(problem, diffusion)))


def noisy_problem(n, substeps, init_from_frame0):
    """Noisy observed series on an N x N grid, so no D fits it exactly."""
    observed = synthetic_observed(GridSpec(d=2, n=n), D_TRUE, K, N_FRAMES,
                                  noise=0.01, seed=n)
    return make_problem(observed, substeps=substeps,
                        init_from_frame0=init_from_frame0)


ORACLE_CASES = pytest.mark.parametrize(
    "n, substeps, init_from_frame0",
    [(n, s, f) for n in (20, 21) for s in (1, 5) for f in (False, True)])


def model_jacobian(problem, diffusion):
    """Oracle for the fit's d(model)/dD, laid out like residuals(): frame f
    is f s rho^(f s - 1) drho/dD times the initial modes, with Laplacian
    eigenvalue lambda and drho/dD = k lambda / (1 - k D lambda / 2)^2, each
    frame's power taken on its own."""
    observed, initial = problem._modes
    half = np.s_[..., :problem.grid.n // 2 + 1]
    rho = amplification_factors(SchemeKind.CRANK_NICOLSON, problem.k, diffusion,
                                problem.grid)[half]
    lam = laplacian_eigenvalues(problem.grid)[half]
    drho = problem.k * lam / (1.0 - 0.5 * problem.k * diffusion * lam) ** 2
    n = problem.substeps * np.arange(len(observed)).reshape((-1,) + (1,) * rho.ndim)
    jac = n * rho ** np.maximum(n - 1, 0) * drho * initial
    return jac.view(np.float64).ravel()


def ci95_of_vectors(jacobian, residual, num_observations):
    """Oracle for the 95% half-width: 1.96 sqrt(s^2 / J.J) with
    s^2 = r.r / (num_observations - 1), from the vectors themselves."""
    s2 = float(np.dot(residual, residual)) / (num_observations - 1)
    return 1.96 * np.sqrt(s2 / float(np.dot(jacobian, jacobian)))


def as_modes(r, problem):
    """Residual-layout vector as complex modes, shaped (frame, row, column)."""
    n = problem.grid.n
    return r.view(np.complex128).reshape(len(problem.observed.frames), n, n // 2 + 1)


class TestResiduals:
    def test_self_residual_is_zero(self):
        r = residuals(PROBLEM, D_TRUE)
        assert np.max(np.abs(r)) < 1e-12

    def test_length_is_real_and_imaginary_half_spectrum_modes(self):
        r = residuals(PROBLEM, 0.3)
        assert len(r) == 2 * N_FRAMES * GRID.n * (GRID.n // 2 + 1)

    def test_uniform_offset_appears_only_in_mean_mode(self):
        delta = 0.037
        shifted = series_of_fields(
            OBSERVED.times_fs,
            [ScalarField(GRID, f + delta)
             for f in OBSERVED.frames],
        )
        problem = make_problem(shifted)
        modes = as_modes(residuals(problem, D_TRUE), problem)
        mean = modes[:, 0, 0].copy()
        modes[:, 0, 0] = 0.0
        assert np.max(np.abs(modes)) < 1e-12
        assert float(np.sum(np.abs(mean) ** 2)) == pytest.approx(
            N_FRAMES * GRID.num_cells * delta**2, rel=1e-12)

    @ORACLE_CASES
    def test_norm_equals_per_cell_sum_against_solver(self, n, substeps,
                                                     init_from_frame0):
        # odd N has no self-conjugate last column, so both weightings are hit
        problem = noisy_problem(n, substeps, init_from_frame0)
        for d in (0.3, D_TRUE, 2.5):
            r = residuals(problem, d)
            assert float(np.dot(r, r)) == pytest.approx(
                solved_residual_norm(problem, d), rel=1e-12)


def binned_patch_series(level, n_frames=31):
    """A CN patch solution (N = 20, k = 1e-3, D = 0.4) times ``level``, as
    binned counts over normalization_max M = 5 * 2**38: the counts follow
    the solution to 1e-12, frame 0 is ``level`` times the patch exactly,
    and each later frame gets frame 0's total in its centre cell, as CN
    conserves mass.  Binning scales counts by their largest value, so a
    binned patch holds less than the unit patch's mass."""
    observed = synthetic_observed(GridSpec(d=2, n=20), 0.4, 1e-3, n_frames)
    m = 5 * 2**38
    counts = [np.rint(level * f * m) for f in observed.frames]
    for c in counts[1:]:
        c[10, 10] += counts[0].sum() - c.sum()
    return BinnedSeries(observed.grid, observed.times_fs, [c / m for c in counts], m)


class TestBinnedPatchMass:
    def test_fit_recovers_d_of_a_scaled_patch(self):
        result = lm_fit(make_problem(binned_patch_series(0.6)), 0.1)
        assert result.converged
        assert abs(result.d_opt_nd - 0.4) / 0.4 < 1e-9

    def test_model_is_the_solve_from_the_scaled_patch(self):
        problem = make_problem(binned_patch_series(0.6, n_frames=6))
        cfg = SolverConfig(grid=problem.grid, k=problem.k, diffusion=0.7,
                           scheme=SchemeKind.CRANK_NICOLSON, n_max=5)
        u0 = ScalarField(problem.grid, 0.6 * make_patch_initial(problem.grid).values)
        expected = sum(float(np.sum((o - m.values) ** 2))
                       for o, m in zip(problem.observed.frames, solve(u0, cfg).frames))
        r = residuals(problem, 0.7)
        assert float(np.dot(r, r)) == pytest.approx(expected, rel=1e-12)

    def test_unbinned_series_keeps_the_unit_patch(self):
        series = dataclasses.replace(binned_patch_series(0.6, n_frames=6),
                                     normalization_max=None)
        problem = make_problem(series)
        r = residuals(problem, 0.4)
        assert float(np.dot(r, r)) == pytest.approx(
            solved_residual_norm(problem, 0.4), rel=1e-12)
        assert as_modes(r, problem)[0, 0, 0].real == pytest.approx(
            -0.4 * 0.25 * problem.grid.n, rel=1e-12)


class TestCost:
    def test_perfect_match_is_zero(self):
        assert cost(PROBLEM, D_TRUE) < 1e-25

    def test_uniform_offset_costs_frames_times_delta_squared(self):
        delta = 0.05
        shifted = series_of_fields(
            OBSERVED.times_fs,
            [ScalarField(GRID, f + delta)
             for f in OBSERVED.frames],
        )
        c = cost(make_problem(shifted), D_TRUE)
        assert c == pytest.approx(N_FRAMES * delta**2, rel=1e-10)

    def test_nonnegative_everywhere(self):
        for d in (0.1, 0.5, 2.0):
            assert cost(PROBLEM, d) >= 0.0

    def test_cost_equals_normalized_residual_norm(self):
        for d in (0.2, 0.8, 1.7):
            r = residuals(PROBLEM, d)
            assert cost(PROBLEM, d) == pytest.approx(
                float(np.dot(r, r)) / GRID.num_cells, rel=1e-12)

    @ORACLE_CASES
    def test_cost_forms_no_jacobian_and_is_the_fit_cost_bit_for_bit(
            self, monkeypatch, n, substeps, init_from_frame0):
        problem = noisy_problem(n, substeps, init_from_frame0)
        frames, asked = fitting._frames, []

        def recording(problem, diffusion, jacobian=True):
            asked.append(jacobian)
            for residual, derivative in frames(problem, diffusion, jacobian):
                assert (derivative is None) == (not jacobian)
                yield residual, derivative

        monkeypatch.setattr(fitting, "_frames", recording)
        for d in (0.3, D_TRUE, 2.5):
            assert cost(problem, d) == fitting._sums(problem, d)[0] / problem.grid.num_cells
            assert cost_curve(problem, [d])[0, 1] == cost(problem, d)
            residuals(problem, d)
        assert asked == [False, True, False, False, False] * 3


def single_mode_observed(grid, k, n_frames, m=(2, 1), amplitude=0.3):
    j = np.arange(grid.n)
    arg = (2 * np.pi / grid.n) * (m[0] * j[:, None] + m[1] * j[None, :])
    base = ScalarField(grid, amplitude * np.cos(arg))
    # observed frames are irrelevant for the jacobian; frame 0 seeds the model
    fields = [base] * n_frames
    times = [i * k * SCALE.time_unit_fs for i in range(n_frames)]
    return series_of_fields(times, fields)


class TestJacobian:
    def test_single_mode_matches_closed_form(self):
        # model initialized from a single cosine mode evolves as rho(D)^n;
        # d/dD of rho^n = n rho^(n-1) * k lambda / (1 - k D lambda / 2)^2.
        # The real FFT keeps the cosine's mode m (its conjugate N - m is in a
        # dropped column), with weight sqrt(2) / N.
        grid = GridSpec(d=2, n=16)
        m = (2, 1)
        k, n_frames, d0 = 2e-3, 6, 0.6
        observed = single_mode_observed(grid, k, n_frames, m=m)
        problem = make_problem(observed, init_from_frame0=True)
        jac = as_modes(model_jacobian(problem, d0), problem)

        lam = laplacian_eigenvalue(m, grid)
        a = 0.5 * k * d0 * lam
        rho = (1 + a) / (1 - a)
        drho = k * lam / (1 - a) ** 2
        u0 = observed.frames[0]
        u0_mode = np.fft.rfft2(u0)[m] * np.sqrt(2.0) / grid.n
        for n in range(1, n_frames):
            analytic = n * rho ** (n - 1) * drho * u0_mode
            assert abs(jac[n][m] - analytic) <= 1e-10 * abs(analytic)
            others = jac[n].copy()
            others[m] = 0.0
            assert np.max(np.abs(others)) <= 1e-10 * abs(analytic)

    @ORACLE_CASES
    def test_matches_central_difference_of_residuals(self, n, substeps,
                                                     init_from_frame0):
        problem = noisy_problem(n, substeps, init_from_frame0)
        d = 0.5
        delta = 1e-6 * d
        numeric = -(residuals(problem, d + delta)
                    - residuals(problem, d - delta)) / (2.0 * delta)
        jac = model_jacobian(problem, d)
        assert np.linalg.norm(jac - numeric) <= 1e-7 * np.linalg.norm(jac)

    @ORACLE_CASES
    def test_sums_equal_oracle_dot_products(self, n, substeps, init_from_frame0):
        # the fit's frame-by-frame sums against the whole-series vectors
        problem = noisy_problem(n, substeps, init_from_frame0)
        n_obs = len(problem.observed.frames) * problem.grid.num_cells
        for d in (0.3, D_TRUE, 2.5):
            rr, jtr, jtj = fitting._sums(problem, d)
            r, jac = residuals(problem, d), model_jacobian(problem, d)
            assert rr == pytest.approx(float(np.dot(r, r)), rel=1e-12)
            assert jtr == pytest.approx(float(np.dot(jac, r)), rel=1e-12)
            assert jtj == pytest.approx(float(np.dot(jac, jac)), rel=1e-12)
            assert confidence_interval_95(jtj, rr, n_obs) == pytest.approx(
                ci95_of_vectors(jac, r, n_obs), rel=1e-12)

    def test_fully_decayed_solution_has_flat_response(self):
        # substeps keep k D |lambda| resolved so every mode truly decays
        problem = make_problem(OBSERVED, substeps=100)
        jac = model_jacobian(problem, 60.0)
        assert np.max(np.abs(jac)) < 1e-3

    def test_mass_component_is_zero(self):
        # mass does not depend on D, so the (0, 0) mode of dU/dD vanishes in
        # every frame
        jac = as_modes(model_jacobian(PROBLEM, 0.4), PROBLEM)
        assert np.all(jac[:, 0, 0] == 0.0)


def lm_fit_every_trial(problem, d0):
    """lm_fit's loop evaluating every damped trial, a repeat of the trial
    just rejected included: the reference for skipping repeats.  A repeat
    is not counted as another rejected trial."""
    num_cells = problem.grid.num_cells
    d, lam, iterations, converged = d0, fitting.LAMBDA0, 0, False
    rejected, rejected_trials = None, 0
    rr, jtr, jtj = fitting._sums(problem, d)
    c = rr / num_cells
    trace = [c]
    for _ in range(fitting.MAX_ITER):
        if jtj > 0.0 and abs(jtr) / jtj < fitting.TOL_STEP * d:
            converged = True
            break
        for _ in range(fitting.MAX_REJECTS_PER_ITER):
            delta = jtr / (jtj + lam)
            d_trial = d + delta
            if d_trial > 0.0:
                trial = fitting._sums(problem, d_trial)
                c_trial = trial[0] / num_cells
                if np.isfinite(c_trial) and c_trial < c:
                    break
                rejected_trials += d_trial != rejected
                rejected = d_trial
            lam *= fitting.LAMBDA_UP
        else:
            break
        iterations += 1
        lam *= fitting.LAMBDA_DOWN
        cost_drop = c - c_trial
        d, c, (rr, jtr, jtj) = d_trial, c_trial, trial
        trace.append(c)
        if abs(delta) < fitting.TOL_STEP * d or cost_drop < fitting.TOL_COST:
            converged = True
            break
    ci = confidence_interval_95(jtj, rr, len(problem.observed.frames) * num_cells)
    return FitResult(d, nd_to_physical_d(d, problem.scale), c, iterations, ci,
                     nd_to_physical_d(ci, problem.scale), converged, tuple(trace),
                     rejected_trials)


class TestLMFit:
    @pytest.mark.parametrize("d0", [0.08, 8.0])
    def test_noiseless_recovery_within_1e6(self, d0):
        result = lm_fit(PROBLEM, d0)
        assert result.converged
        assert abs(result.d_opt_nd - D_TRUE) / D_TRUE < 1e-6

    def test_noisy_recovery_within_1_percent(self):
        grid = GridSpec(d=2, n=50)
        observed = synthetic_observed(grid, D_TRUE, K, N_FRAMES, noise=0.01, seed=3)
        result = lm_fit(make_problem(observed), 0.3)
        assert abs(result.d_opt_nd - D_TRUE) / D_TRUE < 0.01

    def test_accepted_cost_trace_strictly_decreasing(self):
        result = lm_fit(PROBLEM, 0.1)
        trace = result.cost_trace
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_result_independent_of_initial_guess(self):
        results = [lm_fit(PROBLEM, d0).d_opt_nd
                   for d0 in (0.08, 0.8, 8.0)]
        for r in results[1:]:
            assert abs(r - results[0]) / results[0] < 1e-6

    def test_repeated_rejected_trials_are_not_evaluated(self, monkeypatch):
        # With lambda far below J^T J, ten times lambda leaves the trial D as
        # it was; from d0 = 2 the first step overshoots and is rejected.
        monkeypatch.setattr(fitting, "LAMBDA0", 1.0e-30)
        calls = []
        evaluate = fitting._sums

        def counting(problem, d):
            calls.append(d)
            return evaluate(problem, d)

        monkeypatch.setattr(fitting, "_sums", counting)
        reference = lm_fit_every_trial(PROBLEM, 2.0)
        every_trial = len(calls)
        assert sum(a == b for a, b in zip(calls, calls[1:])) >= 5
        del calls[:]
        assert lm_fit(PROBLEM, 2.0) == reference
        assert len(calls) < every_trial
        assert not any(a == b for a, b in zip(calls, calls[1:]))

    def test_counts_the_rejected_trials(self, monkeypatch):
        # from d0 = 2 with lambda far below J^T J the first steps overshoot;
        # every evaluation but the first and the accepted ones is a rejection
        monkeypatch.setattr(fitting, "LAMBDA0", 1.0e-30)
        calls = []
        evaluate = fitting._sums
        monkeypatch.setattr(fitting, "_sums",
                            lambda problem, d: calls.append(d) or evaluate(problem, d))
        result = lm_fit(PROBLEM, 2.0)
        assert result.rejected_trials >= 1
        assert result.rejected_trials == len(calls) - 1 - result.iterations
        monkeypatch.setattr(fitting, "LAMBDA0", 1.0e-3)
        assert lm_fit(PROBLEM, 0.1).rejected_trials == 0

    def test_reports_physical_units(self):
        result = lm_fit(PROBLEM, 0.5)
        assert result.d_opt_cm2_s == pytest.approx(result.d_opt_nd * 250.0, rel=1e-12)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            lm_fit(PROBLEM, -1.0)

    def test_peak_memory_is_a_few_series_arrays(self):
        # the observed modes are about one F x N^2 float64 array; the model,
        # r and J are held one frame at a time
        n_frames = 201
        grid = GridSpec(d=2, n=40)
        observed = synthetic_observed(grid, D_TRUE, K, n_frames, noise=0.01, seed=11)
        one_series = n_frames * grid.num_cells * 8
        tracemalloc.start()
        try:
            lm_fit(make_problem(observed), 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * one_series


class TestConfidenceInterval:
    def test_zero_residuals_give_zero_halfwidth(self):
        assert confidence_interval_95(100.0, 0.0, 100) == 0.0

    def test_halfwidth_shrinks_with_more_data(self):
        rng = np.random.default_rng(0)
        jac_small = np.ones(200)
        res_small = rng.normal(0, 0.1, 200)
        jac_big = np.ones(400)
        res_big = rng.normal(0, 0.1, 400)
        assert (confidence_interval_95(jac_big @ jac_big, res_big @ res_big, 400)
                < confidence_interval_95(jac_small @ jac_small,
                                         res_small @ res_small, 200))

    def test_halfwidth_scales_linearly_with_noise(self):
        # doubling sigma doubles the halfwidth within 20% across seeds
        rng = np.random.default_rng(1)
        ratios = []
        for _ in range(20):
            jac = rng.normal(0, 1.0, 500)
            base = rng.normal(0, 0.05, 500)
            doubled = rng.normal(0, 0.10, 500)
            ratios.append(confidence_interval_95(jac @ jac, doubled @ doubled, 500)
                          / confidence_interval_95(jac @ jac, base @ base, 500))
        assert np.mean(ratios) == pytest.approx(2.0, rel=0.2)

    def test_degenerate_jacobian_rejected(self):
        with pytest.raises(FitError):
            confidence_interval_95(0.0, 50.0, 50)

    def test_fit_halfwidth_from_per_cell_quantities(self):
        # s^2 = residual sum of squares / (F N^2 - 1) over cells, not over
        # the longer mode vector, and J^T J of the solver's frames
        observed = synthetic_observed(GRID, D_TRUE, K, N_FRAMES, noise=0.01, seed=7)
        problem = make_problem(observed)
        result = lm_fit(problem, 0.5)
        d = result.d_opt_nd
        delta = 1e-6 * d
        jtj = sum(float(np.sum(((p.values - m.values) / (2.0 * delta)) ** 2))
                  for p, m in zip(solved_frames(problem, d + delta),
                                  solved_frames(problem, d - delta)))
        n_cells = N_FRAMES * GRID.num_cells
        s2 = result.final_cost * GRID.num_cells / (n_cells - 1)
        assert result.ci95_nd == pytest.approx(1.96 * np.sqrt(s2 / jtj), rel=1e-6)

    def test_fit_halfwidth_tracks_noise_level(self):
        grid = GridSpec(d=2, n=20)
        cis = []
        for noise in (0.005, 0.01):
            observed = synthetic_observed(grid, D_TRUE, K, N_FRAMES,
                                          noise=noise, seed=7)
            cis.append(lm_fit(make_problem(observed), 0.5).ci95_nd)
        assert cis[1] == pytest.approx(2.0 * cis[0], rel=0.2)


class TestCostCurve:
    def test_minimum_at_true_coefficient(self):
        d_grid = np.linspace(0.5, 1.1, 25)
        curve = cost_curve(PROBLEM, d_grid)
        d_min = curve[np.argmin(curve[:, 1]), 0]
        assert abs(d_min - D_TRUE) <= (d_grid[1] - d_grid[0])

    def test_curve_dominates_fit_optimum(self):
        result = lm_fit(PROBLEM, 0.5)
        curve = cost_curve(PROBLEM, np.linspace(0.4, 1.3, 19))
        assert np.all(curve[:, 1] >= result.final_cost - 1e-12)

    def test_unimodal_differences_change_sign_once(self):
        curve = cost_curve(PROBLEM, np.linspace(0.3, 1.5, 31))
        signs = np.sign(np.diff(curve[:, 1]))
        signs = signs[signs != 0]
        flips = np.count_nonzero(np.diff(signs))
        assert flips == 1

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            cost_curve(PROBLEM, np.array([-0.1, 0.5]))


class TestFitProblemConstruction:
    def test_rejects_single_frame(self):
        observed = series_of_fields([0.0], [make_patch_initial(GRID)])
        with pytest.raises(FitError):
            make_problem(observed)

    def test_rejects_nonuniform_spacing(self):
        fields = [make_patch_initial(GRID)] * 3
        observed = series_of_fields([0.0, 1.0, 3.0], fields)
        with pytest.raises(FitError):
            make_problem(observed)

    def test_rejects_series_not_starting_at_zero(self):
        # frames from a dump whose first timestep is 1000 (a frame every
        # 10 timesteps of 5 fs): the patch is not frame 0's initial state
        times = [(1000 + 10 * f) * 5.0 for f in range(N_FRAMES)]
        fields = [ScalarField(GRID, f) for f in OBSERVED.frames]
        observed = series_of_fields(times, fields)
        with pytest.raises(FitError, match="frame 0 is at t = 5000.0 fs"):
            make_problem(observed)
        problem = make_problem(observed, init_from_frame0=True)
        assert problem.k == pytest.approx(50.0 / SCALE.time_unit_fs)

    @pytest.mark.parametrize("offset, ok", [(0.5e-9, True), (-0.5e-9, True),
                                            (2e-9, False), (-2e-9, False)])
    def test_time_origin_tolerance_is_relative_to_spacing(self, offset, ok):
        spacing = OBSERVED.times_fs[1] - OBSERVED.times_fs[0]
        times = OBSERVED.times_fs + offset * spacing
        fields = [ScalarField(GRID, f) for f in OBSERVED.frames]
        observed = series_of_fields(times, fields)
        if ok:
            assert make_problem(observed).k == pytest.approx(K)
        else:
            with pytest.raises(FitError):
                make_problem(observed)

    def test_substeps_refine_internal_step(self):
        problem = make_problem(OBSERVED, substeps=5)
        assert problem.k == pytest.approx(K / 5)
        # the model takes five CN steps of k/5 per observed frame
        cfg = SolverConfig(grid=GRID, k=K / 5, diffusion=0.5,
                           scheme=SchemeKind.CRANK_NICOLSON, n_max=5 * (N_FRAMES - 1))
        model = solve(make_patch_initial(GRID), cfg, sample_stride=5).frames
        expected = sum(float(np.sum((o - m.values) ** 2))
                       for o, m in zip(OBSERVED.frames, model))
        r = residuals(problem, 0.5)
        assert float(np.dot(r, r)) == pytest.approx(expected, rel=1e-12)
