import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasdiff.analytic import patch_solution_on_grid
from gasdiff.errors import InstabilityError
from gasdiff.fd_solver import (
    SchemeKind,
    SolverConfig,
    amplification_factors,
    critical_time_step,
    make_patch_initial,
    solve,
)
from gasdiff.fields import GridSpec, ScalarField, field_energy

from fd_modes import amplification_factor, field_mass, laplacian_eigenvalue


def apply_discrete_laplacian(f: ScalarField) -> ScalarField:
    """Central-difference Laplacian with periodic wraparound."""
    u = f.values
    h2 = f.grid.h**2
    out = np.zeros_like(u)
    for axis in range(f.grid.d):
        out += np.roll(u, 1, axis=axis) - 2.0 * u + np.roll(u, -1, axis=axis)
    return ScalarField(f.grid, out / h2)


def forward_euler_stencil_step(f: ScalarField, config: SolverConfig) -> ScalarField:
    """Physical-space form of the FE update; agrees with one solve() step to roundoff."""
    lap = apply_discrete_laplacian(f)
    return ScalarField(f.grid, f.values + config.k * config.diffusion * lap.values)


def index_mode_field(grid, m, phase=0.0):
    """cos(2 pi m.j / N + phase) built on grid indices; exact DFT support
    at wavenumbers {m, -m}."""
    j = np.arange(grid.n)
    if grid.d == 1:
        return ScalarField(grid, np.cos(2 * np.pi * m[0] * j / grid.n + phase))
    arg = (2 * np.pi / grid.n) * (m[0] * j[:, None] + m[1] * j[None, :]) + phase
    return ScalarField(grid, np.cos(arg))


class TestEigenvalues:
    def test_zero_mode(self):
        assert laplacian_eigenvalue((0, 0), GridSpec(d=2, n=16)) == 0.0

    def test_nyquist_1d_reaches_lower_bound(self):
        grid = GridSpec(d=1, n=16)
        lam = laplacian_eigenvalue((8,), grid)
        assert lam == pytest.approx(-4.0 / grid.h**2, rel=1e-14)

    def test_nyquist_2d_reaches_minus_4d_over_h2(self):
        grid = GridSpec(d=2, n=16)
        lam = laplacian_eigenvalue((8, 8), grid)
        assert lam == pytest.approx(-8.0 / grid.h**2, rel=1e-14)

    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=63))
    def test_nonpositive_and_bounded(self, n, m):
        grid = GridSpec(d=1, n=n)
        lam = laplacian_eigenvalue((m % n,), grid)
        assert -4.0 / grid.h**2 - 1e-9 <= lam <= 0.0


class TestDiscreteLaplacian:
    def test_constant_field_maps_to_zero(self):
        f = ScalarField(GridSpec(d=2, n=8), np.full((8, 8), 3.7))
        out = apply_discrete_laplacian(f)
        assert np.max(np.abs(out.values)) < 1e-11

    @pytest.mark.parametrize("m", [(1, 0), (3, 2), (5, 5)])
    def test_single_mode_is_eigenvector(self, m):
        grid = GridSpec(d=2, n=16)
        f = index_mode_field(grid, m)
        out = apply_discrete_laplacian(f)
        lam = laplacian_eigenvalue(m, grid)
        assert np.max(np.abs(out.values - lam * f.values)) < 1e-10 * abs(lam)

    def test_delta_stencil_values(self):
        # delta at one cell, d=1, N=4: 16 * (-2, 1, 0, 1)
        grid = GridSpec(d=1, n=4)
        f = ScalarField(grid, np.array([1.0, 0.0, 0.0, 0.0]))
        out = apply_discrete_laplacian(f)
        assert np.allclose(out.values, 16.0 * np.array([-2.0, 1.0, 0.0, 1.0]))


class TestCriticalTimeStep:
    def test_paper_grid_value(self):
        # h=1/50, d=2, D=1 -> 1e-4
        assert critical_time_step(GridSpec(d=2, n=50), 1.0) == pytest.approx(1e-4)

    def test_1d_value(self):
        # h=0.1, d=1, D=0.5 -> 0.01
        assert critical_time_step(GridSpec(d=1, n=10), 0.5) == pytest.approx(0.01)

    def test_doubling_n_quarters_step(self):
        a = critical_time_step(GridSpec(d=2, n=20), 0.3)
        b = critical_time_step(GridSpec(d=2, n=40), 0.3)
        assert a == pytest.approx(4.0 * b, rel=1e-13)


class TestAmplification:
    def test_zero_mode_is_one_for_both_schemes(self):
        grid = GridSpec(d=2, n=16)
        for scheme in SchemeKind:
            assert amplification_factor(scheme, (0, 0), 0.02, 1.0, grid) == 1.0

    def test_forward_euler_at_critical_step_nyquist(self):
        grid = GridSpec(d=1, n=32)
        k_c = critical_time_step(grid, 2.0)
        rho = amplification_factor(SchemeKind.FORWARD_EULER, (16,), k_c, 2.0, grid)
        assert rho == pytest.approx(-1.0, rel=1e-13)

    def test_crank_nicolson_at_critical_step_nyquist(self):
        grid = GridSpec(d=1, n=32)
        k_c = critical_time_step(grid, 2.0)
        rho = amplification_factor(SchemeKind.CRANK_NICOLSON, (16,), k_c, 2.0, grid)
        assert rho == pytest.approx(0.0, abs=1e-14)

    @settings(max_examples=200)
    @given(
        st.integers(min_value=2, max_value=256),
        st.integers(min_value=0, max_value=255),
        st.floats(min_value=1e-8, max_value=1e4),
        st.floats(min_value=1e-6, max_value=1e2),
    )
    def test_crank_nicolson_unconditionally_stable(self, n, m, k, diffusion):
        grid = GridSpec(d=1, n=n)
        rho = amplification_factor(SchemeKind.CRANK_NICOLSON, (m % n,), k, diffusion, grid)
        assert abs(rho) <= 1.0 + 1e-14


class TestStep:
    def test_constant_field_unchanged(self):
        grid = GridSpec(d=2, n=8)
        f = ScalarField(grid, np.full((8, 8), 0.4))
        cfg = SolverConfig(grid=grid, k=0.01, diffusion=1.0, n_max=1)
        out = solve(f, cfg).frames[1]
        assert np.max(np.abs(out.values - 0.4)) < 1e-14

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_single_mode_scaled_by_rho(self, scheme):
        grid = GridSpec(d=2, n=16)
        m = (3, 1)
        f = index_mode_field(grid, m, phase=0.3)
        cfg = SolverConfig(grid=grid, k=2e-4, diffusion=0.7, scheme=scheme, n_max=1)
        rho = amplification_factor(scheme, m, cfg.k, cfg.diffusion, grid)
        out = solve(f, cfg).frames[1]
        assert np.max(np.abs(out.values - rho * f.values)) < 1e-12

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_mass_preserved(self, scheme):
        rng = np.random.default_rng(7)
        grid = GridSpec(d=2, n=16)
        f = ScalarField(grid, rng.uniform(size=(16, 16)))
        cfg = SolverConfig(grid=grid, k=1e-3, diffusion=0.2, scheme=scheme, n_max=1)
        out = solve(f, cfg).frames[1]
        assert field_mass(out) == pytest.approx(field_mass(f), abs=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_fe_stencil_equals_fe_spectral(self, seed):
        rng = np.random.default_rng(seed)
        grid = GridSpec(d=2, n=12)
        f = ScalarField(grid, rng.normal(size=(12, 12)))
        cfg = SolverConfig(grid=grid, k=1e-4, diffusion=0.5,
                           scheme=SchemeKind.FORWARD_EULER, n_max=1)
        spectral = solve(f, cfg).frames[1]
        stencil = forward_euler_stencil_step(f, cfg)
        assert np.max(np.abs(spectral.values - stencil.values)) < 1e-12


class TestPatchInitial:
    def test_n4_center_cells(self):
        grid = GridSpec(d=2, n=4)
        f = make_patch_initial(grid)
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 1.0
        assert np.array_equal(f.values, expected)

    @pytest.mark.parametrize("n", [4, 5, 8, 10, 20, 50, 64])
    def test_patch_is_centred_with_mass_quarter(self, n):
        f = make_patch_initial(GridSpec(d=2, n=n))
        assert field_mass(f) == pytest.approx(0.25, abs=1e-15)
        x = f.grid.cell_centers_1d()
        for axis in (0, 1):
            profile = f.values.sum(axis=axis)
            assert (profile * x).sum() / profile.sum() == pytest.approx(0.5, abs=1e-15)

    def test_edge_cells_hold_the_fraction_inside(self):
        # at N = 10 the patch edges 2.5 and 7.5 (cell units) halve cells 2 and 7
        f = make_patch_initial(GridSpec(d=2, n=10))
        edge = [0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0]
        assert np.array_equal(f.values, np.outer(edge, edge))

    def test_cell_centre_indicator_when_divisible_by_four(self):
        for n in range(4, 129, 4):
            x = GridSpec(d=2, n=n).cell_centers_1d()
            inside = (x >= 0.25) & (x < 0.75)
            f = make_patch_initial(GridSpec(d=2, n=n))
            assert f.values.tobytes() == np.outer(inside, inside).astype(np.float64).tobytes()


class TestSolve:
    def test_zero_steps_returns_initial(self):
        grid = GridSpec(d=2, n=8)
        u0 = make_patch_initial(grid)
        cfg = SolverConfig(grid=grid, k=1e-3, diffusion=1.0, n_max=0)
        series = solve(u0, cfg)
        assert len(series.frames) == 1
        assert np.array_equal(series.frames[0].values, u0.values)

    def test_frame_count_contract(self):
        grid = GridSpec(d=2, n=8)
        u0 = make_patch_initial(grid)
        cfg = SolverConfig(grid=grid, k=1e-3, diffusion=0.5, n_max=10)
        series = solve(u0, cfg, sample_stride=3)
        assert len(series.frames) == 10 // 3 + 1
        assert np.allclose(series.times, [0.0, 3e-3, 6e-3, 9e-3])

    def test_cn_second_order_convergence_to_oracle(self):
        # smooth regime (t = 0.3): each halving of h divides the L2 error
        # by 4 +- 20%; frozen from the convergence study
        diffusion, t_final, k = 3.18e-3, 0.3, 5e-4
        steps = round(t_final / k)
        errors = {}
        for n in (32, 64, 128):
            grid = GridSpec(d=2, n=n)
            cfg = SolverConfig(grid=grid, k=k, diffusion=diffusion,
                               scheme=SchemeKind.CRANK_NICOLSON, n_max=steps)
            fd = solve(make_patch_initial(grid), cfg, sample_stride=steps)
            oracle = patch_solution_on_grid(grid, t_final, diffusion, modes=64)
            errors[n] = np.sqrt(np.mean((fd.frames[-1].values - oracle.values) ** 2))
        assert errors[32] / errors[64] == pytest.approx(4.0, rel=0.2)
        assert errors[64] / errors[128] == pytest.approx(4.0, rel=0.2)

    def test_max_error_halves_twice_from_64_to_128(self):
        # k=1e-3 variant: max |u_j - exact| drops ~4x when N doubles
        diffusion, t_final, k = 3.18e-3, 0.05, 1e-3
        steps = round(t_final / k)
        errs = {}
        for n in (64, 128):
            grid = GridSpec(d=2, n=n)
            cfg = SolverConfig(grid=grid, k=k, diffusion=diffusion,
                               scheme=SchemeKind.CRANK_NICOLSON, n_max=steps)
            fd = solve(make_patch_initial(grid), cfg, sample_stride=steps)
            oracle = patch_solution_on_grid(grid, t_final, diffusion, modes=64)
            errs[n] = np.max(np.abs(fd.frames[-1].values - oracle.values))
        assert errs[64] / errs[128] == pytest.approx(4.0, rel=0.2)

    def test_forward_euler_above_critical_step_grows_nyquist_energy(self):
        grid = GridSpec(d=1, n=32)
        diffusion = 1.0
        k_c = critical_time_step(grid, diffusion)
        u0 = index_mode_field(grid, (16,))
        cfg = SolverConfig(grid=grid, k=1.01 * k_c, diffusion=diffusion,
                           scheme=SchemeKind.FORWARD_EULER, n_max=300)
        series = solve(u0, cfg, sample_stride=1)
        energies = [field_energy(f) for f in series.frames]
        assert all(b > a for a, b in zip(energies, energies[1:]))
        assert energies[-1] > 10.0 * energies[0]

    def test_instability_detected_far_above_critical_step(self):
        grid = GridSpec(d=1, n=32)
        k_c = critical_time_step(grid, 1.0)
        u0 = index_mode_field(grid, (16,))
        cfg = SolverConfig(grid=grid, k=20.0 * k_c, diffusion=1.0,
                           scheme=SchemeKind.FORWARD_EULER, n_max=100)
        with pytest.raises(InstabilityError):
            solve(u0, cfg, sample_stride=1)

    @pytest.mark.parametrize("scheme,k_factor", [
        (SchemeKind.FORWARD_EULER, 0.99),
        (SchemeKind.CRANK_NICOLSON, 100.0),
    ])
    def test_energy_nonincreasing_in_stable_regime(self, scheme, k_factor):
        grid = GridSpec(d=2, n=16)
        diffusion = 0.3
        k = k_factor * critical_time_step(grid, diffusion)
        cfg = SolverConfig(grid=grid, k=k, diffusion=diffusion, scheme=scheme,
                           n_max=100)
        series = solve(make_patch_initial(grid), cfg, sample_stride=1)
        energies = [field_energy(f) for f in series.frames]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_mass_conserved_over_thousand_steps(self, scheme):
        grid = GridSpec(d=2, n=20)
        diffusion = 0.25
        k = 0.9 * critical_time_step(grid, diffusion)
        cfg = SolverConfig(grid=grid, k=k, diffusion=diffusion, scheme=scheme,
                           n_max=1000)
        series = solve(make_patch_initial(grid), cfg, sample_stride=100)
        m0 = field_mass(series.frames[0])
        for f in series.frames[1:]:
            assert abs(field_mass(f) - m0) <= 1e-13

    def test_temporal_orders(self):
        # single mode: semi-discrete exact decay is exp(lambda D t); halving k
        # halves the FE error and quarters the CN error
        grid = GridSpec(d=1, n=16)
        m = (1,)
        diffusion = 0.1
        t_final = 0.4
        lam = laplacian_eigenvalue(m, grid)
        u0 = index_mode_field(grid, m)
        exact = np.exp(lam * diffusion * t_final) * u0.values

        def error(scheme, k):
            steps = round(t_final / k)
            cfg = SolverConfig(grid=grid, k=k, diffusion=diffusion,
                               scheme=scheme, n_max=steps)
            out = solve(u0, cfg, sample_stride=steps)
            return np.max(np.abs(out.frames[-1].values - exact))

        fe = [error(SchemeKind.FORWARD_EULER, k) for k in (2e-3, 1e-3)]
        cn = [error(SchemeKind.CRANK_NICOLSON, k) for k in (2e-2, 1e-2)]
        assert fe[0] / fe[1] == pytest.approx(2.0, rel=0.1)
        assert cn[0] / cn[1] == pytest.approx(4.0, rel=0.1)

    def test_grid_mismatch_rejected(self):
        u0 = make_patch_initial(GridSpec(d=2, n=8))
        cfg = SolverConfig(grid=GridSpec(d=2, n=16), k=1e-3, diffusion=1.0, n_max=1)
        with pytest.raises(ValueError):
            solve(u0, cfg)
