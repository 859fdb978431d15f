"""Exact Fourier-series solution of the periodic diffusion equation.

Serves as the convergence oracle for the finite-difference solver and the
fd-run --oracle frames, for the centered square patch (indicator of
[1/4,3/4]^2).  Each wavenumber m evolves independently:
u_hat_m(t) = u_hat_m(0) * exp(-4 pi^2 |m|^2 D t).
"""

from __future__ import annotations

import numpy as np

from .fields import GridSpec, ScalarField


def patch_coefficient_1d(m: int) -> float:
    """Fourier coefficient of the 1D indicator of [1/4, 3/4].

    integral_{1/4}^{3/4} exp(-2 pi i m x) dx = (-1)^m sin(pi m / 2) / (pi m),
    which is real; m=0 gives the interval length 1/2.
    """
    if m == 0:
        return 0.5
    return (-1.0) ** m * np.sin(np.pi * m / 2.0) / (np.pi * m)


def _patch_axis_sum(x: np.ndarray, t: float, diffusion: float, modes: int) -> np.ndarray:
    """1D truncated series of the diffused interval indicator at positions x."""
    ms = np.arange(-modes, modes + 1)
    coeffs = np.array([patch_coefficient_1d(int(m)) for m in ms])
    decay = np.exp(-4.0 * np.pi**2 * ms.astype(np.float64) ** 2 * diffusion * t)
    phases = np.exp(2.0j * np.pi * np.outer(x, ms))
    return (phases @ (coeffs * decay)).real


def patch_solution_on_grid(grid: GridSpec, t: float, diffusion: float,
                           modes: int = 64) -> ScalarField:
    """Truncated exact solution of the patch problem sampled at cell centers."""
    if grid.d != 2:
        raise ValueError("patch initial condition is defined for d=2")
    x = grid.cell_centers_1d()
    line = _patch_axis_sum(x, t, diffusion, modes)
    return ScalarField(grid, np.outer(line, line))
