import numpy as np
import pytest

from gasdiff.binning import BinnedSeries
from gasdiff.errors import FitError
from gasdiff.fd_solver import (
    SchemeKind,
    SolverConfig,
    laplacian_eigenvalue,
    make_patch_initial,
    solve,
)
from gasdiff.fields import GridSpec, ScalarField, UnitScale
from gasdiff.fitting import (
    FitConfig,
    FitProblem,
    confidence_interval_95,
    cost,
    cost_curve,
    lm_fit,
    model_jacobian,
    residuals,
)

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
    return BinnedSeries.from_fields(times_fs, fields)


def make_problem(observed, **kwargs):
    return FitProblem.from_binned(observed, SCALE, **kwargs)


GRID = GridSpec(d=2, n=20)
D_TRUE = 0.8
K = 5e-3
N_FRAMES = 11
OBSERVED = synthetic_observed(GRID, D_TRUE, K, N_FRAMES)
PROBLEM = make_problem(OBSERVED)


class TestResiduals:
    def test_self_residual_is_zero(self):
        r = residuals(PROBLEM, D_TRUE)
        assert np.max(np.abs(r)) < 1e-12

    def test_length_is_frames_times_cells(self):
        r = residuals(PROBLEM, 0.3)
        assert len(r) == N_FRAMES * GRID.num_cells

    def test_uniform_offset_appears_verbatim(self):
        delta = 0.037
        shifted = BinnedSeries.from_fields(
            [f.time_fs for f in OBSERVED.frames],
            [ScalarField(GRID, f.concentration.values + delta)
             for f in OBSERVED.frames],
        )
        r = residuals(make_problem(shifted), D_TRUE)
        assert np.allclose(r, delta, atol=1e-12)


class TestCost:
    def test_perfect_match_is_zero(self):
        assert cost(PROBLEM, D_TRUE) < 1e-25

    def test_uniform_offset_costs_frames_times_delta_squared(self):
        delta = 0.05
        shifted = BinnedSeries.from_fields(
            [f.time_fs for f in OBSERVED.frames],
            [ScalarField(GRID, f.concentration.values + delta)
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


def single_mode_observed(grid, k, n_frames, m=(2, 1), amplitude=0.3):
    j = np.arange(grid.n)
    arg = (2 * np.pi / grid.n) * (m[0] * j[:, None] + m[1] * j[None, :])
    base = ScalarField(grid, amplitude * np.cos(arg))
    # observed frames are irrelevant for the jacobian; frame 0 seeds the model
    fields = [base] * n_frames
    times = [i * k * SCALE.time_unit_fs for i in range(n_frames)]
    return BinnedSeries.from_fields(times, fields)


class TestJacobian:
    def test_single_mode_matches_closed_form(self):
        # model initialized from a single cosine mode evolves as rho(D)^n;
        # d/dD of rho^n = n rho^(n-1) * k lambda / (1 - k D lambda / 2)^2
        grid = GridSpec(d=2, n=16)
        m = (2, 1)
        k, n_frames, d0 = 2e-3, 6, 0.6
        observed = single_mode_observed(grid, k, n_frames, m=m)
        problem = make_problem(observed, init_from_frame0=True)
        jac = model_jacobian(problem, d0, rel_step=1e-6).reshape(n_frames, -1)

        lam = laplacian_eigenvalue(m, grid)
        a = 0.5 * k * d0 * lam
        rho = (1 + a) / (1 - a)
        drho = k * lam / (1 - a) ** 2
        u0 = observed.frames[0].concentration.values.ravel()
        for n in range(1, n_frames):
            analytic = n * rho ** (n - 1) * drho * u0
            numeric = jac[n]
            big = np.abs(analytic) > 1e-3 * np.max(np.abs(analytic))
            rel = np.abs(numeric[big] - analytic[big]) / np.abs(analytic[big])
            assert np.max(rel) < 1e-6

    def test_fully_decayed_solution_has_flat_response(self):
        # substeps keep k D |lambda| resolved so every mode truly decays
        problem = make_problem(OBSERVED, substeps=100)
        jac = model_jacobian(problem, 60.0)
        assert np.max(np.abs(jac)) < 1e-3

    def test_mass_component_is_zero(self):
        # projection of dU/dD onto the constant mode: mass does not depend
        # on D, so the per-frame mean of the jacobian vanishes (roundoff only)
        jac = model_jacobian(PROBLEM, 0.4).reshape(N_FRAMES, -1)
        assert np.max(np.abs(jac.mean(axis=1))) <= 1e-9

    def test_richardson_consistency_across_step_sizes(self):
        j1 = model_jacobian(PROBLEM, 0.5, rel_step=1e-6)
        j2 = model_jacobian(PROBLEM, 0.5, rel_step=1e-7)
        denom = np.linalg.norm(j1)
        assert np.linalg.norm(j1 - j2) / denom < 1e-4

    def test_step_underflow_rejected(self):
        with pytest.raises(FitError):
            model_jacobian(PROBLEM, 0.5, rel_step=0.0)


class TestLMFit:
    @pytest.mark.parametrize("d0", [0.08, 8.0])
    def test_noiseless_recovery_within_1e6(self, d0):
        result = lm_fit(PROBLEM, FitConfig(d0=d0))
        assert result.converged
        assert abs(result.d_opt_nd - D_TRUE) / D_TRUE < 1e-6

    def test_noisy_recovery_within_1_percent(self):
        grid = GridSpec(d=2, n=50)
        observed = synthetic_observed(grid, D_TRUE, K, N_FRAMES, noise=0.01, seed=3)
        result = lm_fit(make_problem(observed), FitConfig(d0=0.3))
        assert abs(result.d_opt_nd - D_TRUE) / D_TRUE < 0.01

    def test_accepted_cost_trace_strictly_decreasing(self):
        result = lm_fit(PROBLEM, FitConfig(d0=0.1))
        trace = result.cost_trace
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_result_independent_of_initial_guess(self):
        results = [lm_fit(PROBLEM, FitConfig(d0=d0)).d_opt_nd
                   for d0 in (0.08, 0.8, 8.0)]
        for r in results[1:]:
            assert abs(r - results[0]) / results[0] < 1e-6

    def test_reports_physical_units(self):
        result = lm_fit(PROBLEM, FitConfig(d0=0.5))
        assert result.d_opt_cm2_s == pytest.approx(result.d_opt_nd * 250.0, rel=1e-12)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            FitConfig(d0=-1.0)
        with pytest.raises(ValueError):
            FitConfig(d0=1.0, lambda_up=0.5)


class TestConfidenceInterval:
    def test_zero_residuals_give_zero_halfwidth(self):
        jac = np.ones(100)
        assert confidence_interval_95(jac, np.zeros(100)) == 0.0

    def test_halfwidth_shrinks_with_more_data(self):
        rng = np.random.default_rng(0)
        jac_small = np.ones(200)
        res_small = rng.normal(0, 0.1, 200)
        jac_big = np.ones(400)
        res_big = rng.normal(0, 0.1, 400)
        assert (confidence_interval_95(jac_big, res_big)
                < confidence_interval_95(jac_small, res_small))

    def test_halfwidth_scales_linearly_with_noise(self):
        # doubling sigma doubles the halfwidth within 20% across seeds
        rng = np.random.default_rng(1)
        ratios = []
        for _ in range(20):
            jac = rng.normal(0, 1.0, 500)
            base = rng.normal(0, 0.05, 500)
            doubled = rng.normal(0, 0.10, 500)
            ratios.append(confidence_interval_95(jac, doubled)
                          / confidence_interval_95(jac, base))
        assert np.mean(ratios) == pytest.approx(2.0, rel=0.2)

    def test_degenerate_jacobian_rejected(self):
        with pytest.raises(FitError):
            confidence_interval_95(np.zeros(50), np.ones(50))

    def test_fit_halfwidth_tracks_noise_level(self):
        grid = GridSpec(d=2, n=20)
        cis = []
        for noise in (0.005, 0.01):
            observed = synthetic_observed(grid, D_TRUE, K, N_FRAMES,
                                          noise=noise, seed=7)
            cis.append(lm_fit(make_problem(observed), FitConfig(d0=0.5)).ci95_nd)
        assert cis[1] == pytest.approx(2.0 * cis[0], rel=0.2)


class TestCostCurve:
    def test_minimum_at_true_coefficient(self):
        d_grid = np.linspace(0.5, 1.1, 25)
        curve = cost_curve(PROBLEM, d_grid)
        d_min = curve[np.argmin(curve[:, 1]), 0]
        assert abs(d_min - D_TRUE) <= (d_grid[1] - d_grid[0])

    def test_curve_dominates_fit_optimum(self):
        result = lm_fit(PROBLEM, FitConfig(d0=0.5))
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
        observed = BinnedSeries.from_fields([0.0], [make_patch_initial(GRID)])
        with pytest.raises(FitError):
            make_problem(observed)

    def test_rejects_nonuniform_spacing(self):
        fields = [make_patch_initial(GRID)] * 3
        observed = BinnedSeries.from_fields([0.0, 1.0, 3.0], fields)
        with pytest.raises(FitError):
            make_problem(observed)

    def test_rejects_series_not_starting_at_zero(self):
        # frames from a dump whose first timestep is 1000 (a frame every
        # 10 timesteps of 5 fs): the patch is not frame 0's initial state
        times = [(1000 + 10 * f) * 5.0 for f in range(N_FRAMES)]
        fields = [f.concentration for f in OBSERVED.frames]
        observed = BinnedSeries.from_fields(times, fields)
        with pytest.raises(FitError, match="frame 0 is at t = 5000.0 fs"):
            make_problem(observed)
        problem = make_problem(observed, init_from_frame0=True)
        assert problem.k == pytest.approx(50.0 / SCALE.time_unit_fs)

    @pytest.mark.parametrize("offset, ok", [(0.5e-9, True), (-0.5e-9, True),
                                            (2e-9, False), (-2e-9, False)])
    def test_time_origin_tolerance_is_relative_to_spacing(self, offset, ok):
        spacing = OBSERVED.times_fs[1] - OBSERVED.times_fs[0]
        times = OBSERVED.times_fs + offset * spacing
        fields = [f.concentration for f in OBSERVED.frames]
        observed = BinnedSeries.from_fields(times, fields)
        if ok:
            assert make_problem(observed).k == pytest.approx(K)
        else:
            with pytest.raises(FitError):
                make_problem(observed)

    def test_substeps_refine_internal_step(self):
        problem = make_problem(OBSERVED, substeps=5)
        assert problem.k == pytest.approx(K / 5)
        model = problem.model_frames(D_TRUE)
        assert len(model) == N_FRAMES
