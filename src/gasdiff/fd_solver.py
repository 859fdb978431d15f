"""Finite-difference solution of the periodic diffusion equation.

Both time discretizations (forward Euler and Crank-Nicolson) act diagonally
on discrete Fourier modes, so a time step is one forward FFT, a per-mode
multiply by the amplification factor, and an inverse FFT.  The implicit CN
system is never assembled; the FFT route costs O(N^d log N) per step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError
from .fields import GridSpec, ScalarField

#: solve() aborts once any field value passes this magnitude.
BLOWUP_LIMIT = 1.0e6


class SchemeKind(enum.Enum):
    FORWARD_EULER = "fe"
    CRANK_NICOLSON = "cn"


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    k: float
    diffusion: float
    scheme: SchemeKind = SchemeKind.CRANK_NICOLSON
    n_max: int = 0

    def __post_init__(self):
        if not 0.0 < self.k < np.inf:
            raise ValueError(f"time step must be positive and finite, got {self.k!r}")
        if not 0.0 < self.diffusion < np.inf:
            raise ValueError("diffusion coefficient must be positive and finite, "
                             f"got {self.diffusion!r}")
        if self.n_max < 0:
            raise ValueError("step count must be nonnegative")


@dataclass(frozen=True)
class FieldSeries:
    """Frames sampled every ``sample_stride`` steps, frame 0 included."""

    config: SolverConfig
    frames: tuple[ScalarField, ...]
    sample_stride: int

    @property
    def times(self) -> np.ndarray:
        k = self.config.k
        return np.array([i * self.sample_stride * k for i in range(len(self.frames))])


def laplacian_eigenvalues(grid: GridSpec) -> np.ndarray:
    """Eigenvalues lambda_m = -(4/h^2) sum_i sin^2(pi m_i / N) for all m in [N]^d."""
    n = grid.n
    axis = -4.0 / grid.h**2 * np.sin(np.pi * np.arange(n) / n) ** 2
    if grid.d == 1:
        return axis
    return axis[:, None] + axis[None, :]


def critical_time_step(grid: GridSpec, diffusion: float) -> float:
    """Largest stable forward Euler step, h^2 / (2 d D)."""
    if not 0.0 < diffusion < np.inf:
        raise ValueError("diffusion coefficient must be positive and finite, "
                         f"got {diffusion!r}")
    return grid.h**2 / (2.0 * grid.d * diffusion)


def amplification_factors(scheme: SchemeKind, k: float, diffusion: float,
                          grid: GridSpec) -> np.ndarray:
    """Per-mode multipliers for one step, shaped like the mode grid."""
    a = k * diffusion * laplacian_eigenvalues(grid)
    if scheme is SchemeKind.FORWARD_EULER:
        return 1.0 + a
    return (1.0 + 0.5 * a) / (1.0 - 0.5 * a)


def make_patch_initial(grid: GridSpec) -> ScalarField:
    """The centered square patch [1/4, 3/4)^2 averaged over each cell.

    On each axis cell j, [j, j + 1) in cell units, holds the fraction of it
    that lies in [N/4, 3N/4), and a cell holds the product of its two.  For
    N divisible by 4 that is 1 on the cells whose centers lie in the patch
    and 0 elsewhere; for every N the patch is centered at 1/2 with mass 1/4.
    """
    if grid.d != 2:
        raise ValueError("patch initial condition is defined for d=2")
    j = np.arange(grid.n, dtype=np.float64)
    inside = np.clip(np.minimum(j + 1, 0.75 * grid.n) - np.maximum(j, 0.25 * grid.n), 0, 1)
    return ScalarField(grid, np.outer(inside, inside))


def _check_frame(values: np.ndarray, step_index: int) -> None:
    if np.any(np.isnan(values)) or np.any(np.abs(values) > BLOWUP_LIMIT):
        raise InstabilityError(
            f"solution blew up at step {step_index}: "
            f"max |u| = {np.nanmax(np.abs(values)):.3e}"
        )


def solve(u0: ScalarField, config: SolverConfig, sample_stride: int = 1) -> FieldSeries:
    """March n_max steps from u0, recording every sample_stride-th frame.

    The evolution stays in Fourier space between samples; each recorded
    frame is transformed back and checked for blow-up.
    """
    if sample_stride < 1:
        raise ValueError("sample stride must be >= 1")
    if u0.grid != config.grid:
        raise ValueError("initial field and solver config use different grids")
    rho = amplification_factors(config.scheme, config.k, config.diffusion, config.grid)
    frames = [u0]
    u_hat = np.fft.fftn(u0.values)
    for n in range(1, config.n_max + 1):
        u_hat = rho * u_hat
        if n % sample_stride == 0:
            values = np.fft.ifftn(u_hat).real
            _check_frame(values, n)
            frames.append(ScalarField(config.grid, values))
    return FieldSeries(config=config, frames=tuple(frames), sample_stride=sample_stride)
