"""Single-mode and whole-field forms of what ``gasdiff`` computes on arrays,
for the tests that check one wavenumber or one field: the eigenvalue and
amplification factor of one mode (scalar forms of
``gasdiff.fd_solver.laplacian_eigenvalues`` and ``amplification_factors``),
the patch's Fourier coefficient and the exact decay factor of one mode,
and the mass of a field."""

import numpy as np

from gasdiff.analytic import patch_coefficient_1d
from gasdiff.fd_solver import SchemeKind
from gasdiff.fields import GridSpec, ScalarField


def laplacian_eigenvalue(m, grid: GridSpec) -> float:
    m = np.atleast_1d(np.asarray(m, dtype=np.int64))
    if m.size != grid.d:
        raise ValueError(f"wavenumber has {m.size} components, grid is {grid.d}-d")
    s = np.sin(np.pi * (m % grid.n) / grid.n)
    return float(-4.0 / grid.h**2 * np.sum(s * s))


def amplification_factor(scheme: SchemeKind, m, k: float, diffusion: float,
                         grid: GridSpec) -> float:
    lam = laplacian_eigenvalue(m, grid)
    a = k * diffusion * lam
    if scheme is SchemeKind.FORWARD_EULER:
        return 1.0 + a
    return (1.0 + 0.5 * a) / (1.0 - 0.5 * a)


def patch_fourier_coefficient(m) -> complex:
    """Initial Fourier coefficient of the square patch, product of 1D factors."""
    out = 1.0
    for mi in np.atleast_1d(np.asarray(m, dtype=np.int64)):
        out *= patch_coefficient_1d(int(mi))
    return complex(out)


def mode_decay_factor(m, diffusion: float, t: float) -> float:
    """exp(-4 pi^2 |m|^2 D t), the exact decay of wavenumber vector m."""
    m = np.atleast_1d(np.asarray(m, dtype=np.float64))
    return float(np.exp(-4.0 * np.pi**2 * float(np.dot(m, m)) * diffusion * t))


def field_mass(f: ScalarField) -> float:
    """Average concentration (1/N^d) * sum_j f_j; conserved by both FD schemes."""
    return float(np.mean(f.values))
