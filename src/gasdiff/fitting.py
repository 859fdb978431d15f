"""Least-squares estimation of the diffusion coefficient.

The observed series is fitted by Crank-Nicolson solutions of the diffusion
equation with damped Gauss-Newton steps delta_D = J^T r / (J^T J + lambda),
where r stacks (observed - model) over frames and J = d(model)/dD; lambda
shrinks after an accepted step and grows after a failed one.  The cost is
||r||^2 / N^2, summed over frames without a frame-count normalization.

CN is diagonal in Fourier modes, so no solve is run: with s FD steps per
observed frame, model frame f is rho(D)^(f s) times the initial modes, and J
is exactly f s rho^(f s - 1) drho/dD times them.  The modes are each frame's
real-FFT half spectrum, weighted so that ||r||^2 is the sum over cells.  The
fit reads only r.r, J^T r and J^T J, summed one frame at a time; the cost
and the cost curve form r alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fd_solver
from .binning import BinnedSeries
from .errors import FitError
from .fields import GridSpec, UnitScale, nd_to_physical_d

#: Levenberg-Marquardt damping (initial value, factors after a rejected and
#: an accepted trial), stopping rules, and rejected trials allowed per step.
LAMBDA0 = 1.0e-3
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.1
MAX_ITER = 100
TOL_STEP = 1.0e-8
TOL_COST = 1.0e-12
MAX_REJECTS_PER_ITER = 60


@dataclass(frozen=True)
class FitResult:
    d_opt_nd: float
    d_opt_cm2_s: float
    final_cost: float
    iterations: int
    ci95_nd: float
    ci95_cm2_s: float
    converged: bool
    cost_trace: tuple[float, ...]
    rejected_trials: int


@dataclass(frozen=True)
class FitProblem:
    """Observed series plus its Crank-Nicolson model, which starts from the
    idealized patch indicator or from observed frame 0 and takes
    ``substeps`` FD steps of ``k`` between observed frames.  Binning scales
    counts by their largest value, not by the patch density, so for a binned
    series (``normalization_max`` set) the patch is scaled to the mass of
    observed frame 0: CN conserves mass, and a patch of the wrong mass could
    only shed the difference by spreading faster."""

    observed: BinnedSeries
    scale: UnitScale
    substeps: int = 1
    init_from_frame0: bool = False

    def __post_init__(self):
        """The patch initial condition holds at t = 0, so without
        ``init_from_frame0`` observed frame 0 must be at t = 0 (to 1e-9 of
        the frame spacing); a series that starts later is an error, not a
        shifted fit."""
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")
        times = self.observed.times_fs
        if len(times) < 2:
            raise FitError("need at least two observed frames to fit")
        spacing = np.diff(times)
        if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
            raise FitError("observed frames are not uniformly spaced in time")
        if not self.init_from_frame0 and not abs(times[0]) <= 1e-9 * abs(spacing[0]):
            raise FitError(
                f"observed frame 0 is at t = {float(times[0])!r} fs, but the patch "
                f"initial condition is at t = 0; fit from frame 0 instead "
                f"(--init-from-frame0)")

    @cached_property
    def k(self) -> float:
        """The FD time step: the observed frame spacing over ``substeps``."""
        times = self.observed.times_fs
        return float(times[1] - times[0]) / self.scale.time_unit_fs / self.substeps

    @property
    def grid(self) -> GridSpec:
        return self.observed.grid

    @cached_property
    def _modes(self) -> tuple[np.ndarray, np.ndarray]:
        """Half-spectrum modes of every observed frame and of model frame 0.
        Column j has weight sqrt(w / N^d), w = 1 if 2j = 0 mod N and 2 where
        the real FFT drops its conjugate column: sum |mode|^2 = sum u^2."""
        j = np.arange(self.grid.n // 2 + 1)
        weights = np.sqrt(np.where(2 * j % self.grid.n == 0, 1.0, 2.0)
                          / self.grid.num_cells)
        frames = self.observed.frames
        observed = np.empty((len(frames),) + self.grid.shape[:-1] + j.shape,
                            dtype=np.complex128)
        for f, frame in enumerate(frames):
            observed[f] = np.fft.rfftn(frame) * weights
        if self.init_from_frame0:
            return observed, observed[0]
        patch = np.fft.rfftn(fd_solver.make_patch_initial(self.grid).values) * weights
        if self.observed.normalization_max is not None:
            patch *= observed[0, 0, 0].real / patch[0, 0].real
        return observed, patch


def _frames(problem: FitProblem, diffusion: float, jacobian: bool = True):
    """Run the CN model frame by frame, yielding in reused buffers frame f's
    residual modes and d(model)/dD: f s times model frame f - 1 times lead.
    Without ``jacobian`` the second is None and is not formed."""
    if not 0.0 < diffusion < np.inf:
        raise ValueError("diffusion coefficient must be positive and finite, "
                         f"got {diffusion!r}")
    observed, initial = problem._modes
    s = problem.substeps
    half = np.s_[..., :problem.grid.n // 2 + 1]
    rho = fd_solver.amplification_factors(
        fd_solver.SchemeKind.CRANK_NICOLSON, problem.k, diffusion, problem.grid)[half]
    lam = fd_solver.laplacian_eigenvalues(problem.grid)[half]
    # d(rho^s)/dD / s, with drho/dD = k lambda (1 + rho)^2 / 4
    lead = rho ** (s - 1) * (problem.k * lam * (1.0 + rho) ** 2 / 4.0)
    # both factors are real: repeated for each mode's real and imaginary part,
    # they scale the float views at half the work of a complex product
    lead, rho_frame = (np.repeat(x, 2, axis=-1) for x in (lead, rho ** s))
    residual, derivative = np.empty_like(initial), np.zeros_like(initial)
    obs, r, j = (a.view(np.float64) for a in (observed, residual, derivative))
    model = initial.view(np.float64).copy()
    for f in range(len(observed)):
        if f:
            if jacobian:
                np.multiply(lead, f * s, out=j)
                j *= model
            model *= rho_frame
        np.subtract(obs[f], model, out=r)
        yield residual, derivative if jacobian else None


def _sums(problem: FitProblem, diffusion: float) -> tuple[float, float, float]:
    """r.r, J^T r and J^T J of the whole series, added up frame by frame."""
    rr = jtr = jtj = 0.0
    for residual, jacobian in _frames(problem, diffusion):
        # complex dots: N <= 140 (10000 modes) keeps OpenBLAS on one thread
        rr += np.vdot(residual, residual).real
        jtr += np.vdot(jacobian, residual).real
        jtj += np.vdot(jacobian, jacobian).real
    return float(rr), float(jtr), float(jtj)


def residuals(problem: FitProblem, diffusion: float) -> np.ndarray:
    """Weighted modes of (observed - model) over all frames as one float
    vector (real and imaginary parts interleaved): r.r is the sum over cells."""
    frames = [residual.copy() for residual, _ in _frames(problem, diffusion, False)]
    return np.concatenate(frames, axis=None).view(np.float64)


def cost(problem: FitProblem, diffusion: float) -> float:
    """Mean-square deviation r.r / N^2 (no frame-count factor)."""
    rr = sum(np.vdot(r, r).real for r, _ in _frames(problem, diffusion, False))
    return float(rr) / problem.grid.num_cells


def confidence_interval_95(jtj: float, rr: float, num_observations: int) -> float:
    """Half-width of the standard asymptotic 95% interval for the scalar fit,
    from J^T J, r.r and ``num_observations`` (frames x cells, not len(r))."""
    if jtj < 1.0e-300:
        raise FitError("degenerate fit: model does not respond to D")
    if num_observations < 2:
        raise FitError("too few residuals for a confidence interval")
    s2 = rr / (num_observations - 1)
    return 1.96 * np.sqrt(s2 / jtj)


def lm_fit(problem: FitProblem, d0: float) -> FitResult:
    """Levenberg-Marquardt minimization of the cost from the guess d0 > 0.
    Steps to D <= 0 or to inf are failed trials.  Stops on a small relative step or
    cost drop, or after MAX_ITER steps, or when a step finds no trial with a
    lower cost in MAX_REJECTS_PER_ITER damping increases; raises FitError if
    the first step finds none.
    ``rejected_trials`` counts the trial D whose cost was evaluated and did
    not drop."""
    if not 0.0 < d0 < np.inf:
        raise ValueError(f"initial diffusion guess must be positive and finite, got {d0!r}")
    num_cells = problem.grid.num_cells
    d_current = d0
    rr, jtr, jtj = _sums(problem, d_current)
    c = rr / num_cells
    if not np.isfinite(c):
        raise FitError(f"initial cost is not finite at D={d_current}")

    lam = LAMBDA0
    trace = [c]
    iterations = rejected_trials = 0
    converged = False

    for _ in range(MAX_ITER):
        if jtj > 0.0 and abs(jtr) / jtj < TOL_STEP * d_current:
            # the undamped Gauss-Newton step is already below tolerance
            converged = True
            break

        rejected = None
        for _ in range(MAX_REJECTS_PER_ITER):
            delta = jtr / (jtj + lam)
            d_trial = d_current + delta
            # while lam << J^T J, raising lam can leave d_trial as it was: the
            # same trial is rejected again without evaluating it
            if 0.0 < d_trial < np.inf and d_trial != rejected:
                trial = _sums(problem, d_trial)
                c_trial = trial[0] / num_cells
                if np.isfinite(c_trial) and c_trial < c:
                    break
                rejected = d_trial
                rejected_trials += 1
            lam *= LAMBDA_UP
        else:
            break  # no trial accepted

        iterations += 1
        lam *= LAMBDA_DOWN
        cost_drop = c - c_trial
        d_current, c, (rr, jtr, jtj) = d_trial, c_trial, trial
        trace.append(c)
        if abs(delta) < TOL_STEP * d_current or cost_drop < TOL_COST:
            converged = True
            break

    if iterations == 0 and not converged:
        raise FitError(f"no trial D lowered the cost in the first step from D0={d0}")

    ci_nd = confidence_interval_95(jtj, rr, len(problem.observed.times_fs) * num_cells)
    return FitResult(
        d_opt_nd=d_current,
        d_opt_cm2_s=nd_to_physical_d(d_current, problem.scale),
        final_cost=c,
        iterations=iterations,
        ci95_nd=ci_nd,
        ci95_cm2_s=nd_to_physical_d(ci_nd, problem.scale),
        converged=converged,
        cost_trace=tuple(trace),
        rejected_trials=rejected_trials,
    )


def cost_curve(problem: FitProblem, d_values) -> np.ndarray:
    """Pointwise cost over a sorted positive grid; rows of (D, cost)."""
    d_values = np.asarray(d_values, dtype=np.float64)
    if not len(d_values):
        raise ValueError("diffusion grid is empty")
    if not np.all((d_values > 0) & (d_values < np.inf)):
        raise ValueError("diffusion grid must be positive and finite")
    if np.any(np.diff(d_values) <= 0):
        raise ValueError("diffusion grid must be strictly increasing")
    return np.array([[d, cost(problem, d)] for d in d_values])
