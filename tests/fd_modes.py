"""Per-mode eigenvalue and amplification factor of one wavenumber, the
scalar forms of ``gasdiff.fd_solver.laplacian_eigenvalues`` and
``amplification_factors``, for the tests that check single modes."""

import numpy as np

from gasdiff.fd_solver import SchemeKind
from gasdiff.fields import GridSpec


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
