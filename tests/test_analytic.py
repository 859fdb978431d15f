import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasdiff.analytic import _patch_axis_sum, patch_coefficient_1d, patch_solution_on_grid
from gasdiff.fd_solver import make_patch_initial
from gasdiff.fields import GridSpec

from fd_modes import field_mass, mode_decay_factor, patch_fourier_coefficient


def exact_solution(x, t: float, diffusion: float, modes: int = 64,
                   coefficients=None) -> float:
    """Pointwise truncated Fourier solution at position x and time t.

    Sums wavenumbers with |m_i| <= modes.  By default the initial condition
    is the square patch; pass ``coefficients`` as a dict {m_tuple: c} to use
    an explicit list instead (conjugate symmetry is the caller's job there).
    The symmetric sum is real up to roundoff; the imaginary part is dropped.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    d = x.size
    if coefficients is not None:
        total = 0.0 + 0.0j
        for m, c in coefficients.items():
            mv = np.atleast_1d(np.asarray(m, dtype=np.float64))
            total += (complex(c) * mode_decay_factor(m, diffusion, t)
                      * np.exp(2.0j * np.pi * float(np.dot(mv, x))))
        return float(total.real)

    # The patch factorizes over axes, as does the decay factor,
    # so the d-dimensional sum is a product of 1D sums.
    out = 1.0
    for axis in range(d):
        out *= _patch_axis_sum(np.array([x[axis]]), t, diffusion, modes)[0]
    return float(out)


def truncated_energy(t: float, diffusion: float, modes: int = 64) -> float:
    """sum over |m_i| <= modes of |u_hat_m(t)|^2 for the patch problem."""
    ms = np.arange(-modes, modes + 1)
    coeffs = np.array([patch_coefficient_1d(int(m)) for m in ms])
    decay = np.exp(-4.0 * np.pi**2 * ms.astype(np.float64) ** 2 * diffusion * t)
    axis = coeffs * decay
    # |c_(m1,m2)|^2 = |c_m1|^2 |c_m2|^2 summed over the square of modes.
    return float(np.sum(axis**2) ** 2)


def quadrature_patch_coefficient(m1, m2, panels=2048):
    """Independent oracle: composite-Simpson integral of exp(-2 pi i m.x)
    over [1/4,3/4]^2, using the separable structure."""
    x = np.linspace(0.25, 0.75, panels + 1)
    step = 0.5 / panels
    w = np.full(panels + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= step / 3.0

    def axis(m):
        return np.sum(w * np.exp(-2j * np.pi * m * x))

    return axis(m1) * axis(m2)


class TestPatchCoefficient:
    def test_zero_mode_is_patch_area(self):
        assert patch_fourier_coefficient((0, 0)) == pytest.approx(0.25)

    def test_mode_10_closed_form(self):
        # -1/(2 pi), cross-checked against quadrature
        c = patch_fourier_coefficient((1, 0))
        assert c.real == pytest.approx(-1.0 / (2.0 * np.pi), rel=1e-12)
        assert abs(c.imag) < 1e-15
        assert c == pytest.approx(quadrature_patch_coefficient(1, 0), abs=1e-10)

    def test_mode_20_vanishes(self):
        assert patch_fourier_coefficient((2, 0)) == pytest.approx(0.0, abs=1e-15)
        assert abs(quadrature_patch_coefficient(2, 0)) < 1e-10

    @pytest.mark.parametrize("m1,m2", [(1, 1), (3, 0), (0, 5), (-3, 2), (7, -7)])
    def test_against_quadrature(self, m1, m2):
        c = patch_fourier_coefficient((m1, m2))
        assert c == pytest.approx(quadrature_patch_coefficient(m1, m2), abs=1e-9)

    def test_conjugate_symmetry(self):
        for m in [(1, 2), (3, -1), (-4, 5)]:
            neg = tuple(-x for x in m)
            assert patch_fourier_coefficient(neg) == pytest.approx(
                np.conj(patch_fourier_coefficient(m)), abs=1e-15)


class TestModeDecay:
    def test_zero_mode_never_decays(self):
        assert mode_decay_factor((0, 0), 5.0, 123.0) == 1.0

    def test_unit_mode_efolding(self):
        # |m|^2 = 1, D = 1, t = 1/(4 pi^2) gives exactly one e-folding
        t = 1.0 / (4.0 * np.pi**2)
        assert mode_decay_factor((1, 0), 1.0, t) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_long_time_limit(self):
        assert mode_decay_factor((3, 2), 0.5, 1e6) == 0.0

    @settings(max_examples=50)
    @given(
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-8, max_value=8),
        st.floats(min_value=1e-4, max_value=1.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_multiplicative_in_time(self, m1, m2, d, t1, t2):
        m = (m1, m2)
        combined = mode_decay_factor(m, d, t1 + t2)
        split = mode_decay_factor(m, d, t1) * mode_decay_factor(m, d, t2)
        assert combined == pytest.approx(split, rel=1e-12, abs=1e-300)


class TestExactSolution:
    def test_long_time_flattens_to_average(self):
        for x in [(0.1, 0.9), (0.5, 0.5)]:
            assert exact_solution(x, t=100.0, diffusion=0.1) == pytest.approx(0.25, abs=1e-12)

    def test_initial_value_inside_patch(self):
        # partial sums converge to 1 at the patch center (O(1/M) tail)
        coarse = exact_solution((0.5, 0.5), t=0.0, diffusion=1.0, modes=64)
        fine = exact_solution((0.5, 0.5), t=0.0, diffusion=1.0, modes=512)
        assert abs(fine - 1.0) < abs(coarse - 1.0)
        assert fine == pytest.approx(1.0, abs=5e-3)

    def test_mass_is_quarter_at_any_time(self):
        grid = GridSpec(d=2, n=64)
        for t in (0.0, 0.01, 0.3):
            f = patch_solution_on_grid(grid, t, diffusion=3.18e-3, modes=64)
            assert field_mass(f) == pytest.approx(0.25, abs=1e-6)

    def test_grid_evaluation_matches_pointwise(self):
        grid = GridSpec(d=2, n=8)
        f = patch_solution_on_grid(grid, t=0.02, diffusion=0.05, modes=32)
        x = grid.cell_centers_1d()
        for j1 in (0, 3, 7):
            for j2 in (1, 4):
                expected = exact_solution((x[j1], x[j2]), 0.02, 0.05, modes=32)
                assert f.values[j1, j2] == pytest.approx(expected, rel=1e-10)

    def test_explicit_coefficient_list(self):
        # single cosine mode: c e^{2 pi i x} + c e^{-2 pi i x} = 2 c cos(2 pi x)
        coeffs = {(1, 0): 0.5, (-1, 0): 0.5}
        val = exact_solution((0.3, 0.9), t=0.0, diffusion=1.0, coefficients=coeffs)
        assert val == pytest.approx(np.cos(2 * np.pi * 0.3), rel=1e-12)

    def test_energy_nonincreasing_in_time(self):
        times = [0.0, 0.005, 0.02, 0.1, 0.5]
        energies = [truncated_energy(t, diffusion=0.1) for t in times]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))

    def test_reproduces_fd_initial_within_truncation_bound(self):
        # L2 distance between the truncated series at t=0 and the sampled
        # indicator is controlled by the tail mass sum_{|m|>M} |c_m|^2
        grid = GridSpec(d=2, n=32)
        modes = 64
        f = patch_solution_on_grid(grid, t=0.0, diffusion=1.0, modes=modes)
        u0 = make_patch_initial(grid)
        l2 = np.sqrt(np.mean((f.values - u0.values) ** 2))
        full_energy = 0.25  # integral of the indicator squared
        tail = full_energy - truncated_energy(0.0, diffusion=1.0, modes=modes)
        assert l2 <= np.sqrt(tail) + 1e-12
