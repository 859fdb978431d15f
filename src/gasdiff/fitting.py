"""Least-squares estimation of the diffusion coefficient.

The observed concentration series is compared against Crank-Nicolson
solutions of the diffusion equation; the scalar coefficient is updated by
damped Gauss-Newton steps

    delta_D = J^T r / (J^T J + lambda),

where r stacks the per-frame, per-cell differences (observed - model) and
J = d(model)/dD is a central finite difference.  The damping factor shrinks
after an accepted step and grows when a step fails to reduce the cost,
interpolating between Newton-like and gradient-descent-like behavior.  The
cost is the paper-style mean-square deviation: ||r||^2 / N^2, summed over
frames without a frame-count normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import BinnedSeries
from .errors import FitError
from .fd_solver import SchemeKind, SolverConfig, make_patch_initial, solve
from .fields import GridSpec, ScalarField, UnitScale, nd_to_physical_d


@dataclass(frozen=True)
class FitConfig:
    d0: float
    lambda0: float = 1.0e-3
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    max_iter: int = 100
    tol_step: float = 1.0e-8
    tol_cost: float = 1.0e-12
    jacobian_rel_step: float = 1.0e-6

    def __post_init__(self):
        if self.d0 <= 0:
            raise ValueError("initial diffusion guess must be positive")
        if self.lambda_up <= 1.0 or not (0.0 < self.lambda_down < 1.0):
            raise ValueError("damping multipliers must satisfy up > 1 > down > 0")


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


@dataclass(frozen=True)
class FitProblem:
    """Observed series plus the solver template used to model it.

    The model runs Crank-Nicolson from either the idealized patch indicator
    or the observed frame 0, taking ``substeps`` FD steps between observed
    frames.
    """

    observed: BinnedSeries
    scale: UnitScale
    k: float
    substeps: int = 1
    init_from_frame0: bool = False

    @classmethod
    def from_binned(cls, observed: BinnedSeries, scale: UnitScale,
                    substeps: int = 1,
                    init_from_frame0: bool = False) -> "FitProblem":
        """Derive the FD time step from the observed frame spacing.

        The patch initial condition holds at t = 0, so without
        ``init_from_frame0`` observed frame 0 must be at t = 0 (to 1e-9 of
        the frame spacing); a series that starts later is an error, not a
        shifted fit.
        """
        times = observed.times_fs
        if len(times) < 2:
            raise FitError("need at least two observed frames to fit")
        spacing = np.diff(times)
        if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
            raise FitError("observed frames are not uniformly spaced in time")
        if not init_from_frame0 and not abs(times[0]) <= 1e-9 * abs(spacing[0]):
            raise FitError(
                f"observed frame 0 is at t = {float(times[0])!r} fs, but the patch "
                f"initial condition is at t = 0; fit from frame 0 instead "
                f"(--init-from-frame0)")
        k = float(spacing[0]) / scale.time_unit_fs / substeps
        return cls(observed=observed, scale=scale, k=k, substeps=substeps,
                   init_from_frame0=init_from_frame0)

    @property
    def grid(self) -> GridSpec:
        return self.observed.grid

    def initial_field(self) -> ScalarField:
        if self.init_from_frame0:
            return self.observed.frames[0].concentration
        return make_patch_initial(self.grid)

    def model_frames(self, diffusion: float) -> list[ScalarField]:
        config = SolverConfig(
            grid=self.grid,
            k=self.k,
            diffusion=diffusion,
            scheme=SchemeKind.CRANK_NICOLSON,
            n_max=(len(self.observed.frames) - 1) * self.substeps,
        )
        series = solve(self.initial_field(), config, sample_stride=self.substeps)
        return list(series.frames)


def residuals(problem: FitProblem, diffusion: float) -> np.ndarray:
    """Flattened (observed - model) over all frames and cells."""
    model = problem.model_frames(diffusion)
    obs = problem.observed.frames
    return np.concatenate([
        (o.concentration.values - m.values).ravel()
        for o, m in zip(obs, model)
    ])


def cost(problem: FitProblem, diffusion: float) -> float:
    """Mean-square deviation ||residuals||^2 / N^2 (no frame-count factor)."""
    r = residuals(problem, diffusion)
    return float(np.dot(r, r)) / problem.grid.num_cells


def model_jacobian(problem: FitProblem, diffusion: float,
                   rel_step: float = 1.0e-6) -> np.ndarray:
    """d(model)/dD by central difference, ordered like the residual vector."""
    delta = rel_step * diffusion
    if delta <= 0 or diffusion - delta <= 0:
        raise FitError(f"jacobian step underflow at D={diffusion}")
    plus = problem.model_frames(diffusion + delta)
    minus = problem.model_frames(diffusion - delta)
    return np.concatenate([
        ((p.values - m.values) / (2.0 * delta)).ravel()
        for p, m in zip(plus, minus)
    ])


def confidence_interval_95(jacobian: np.ndarray, residual: np.ndarray) -> float:
    """Half-width of the standard asymptotic 95% interval for the scalar fit."""
    jtj = float(np.dot(jacobian, jacobian))
    if jtj < 1.0e-300:
        raise FitError("degenerate fit: model does not respond to D")
    n = len(residual)
    if n < 2:
        raise FitError("too few residuals for a confidence interval")
    s2 = float(np.dot(residual, residual)) / (n - 1)
    return 1.96 * np.sqrt(s2 / jtj)


def lm_fit(problem: FitProblem, config: FitConfig,
           max_rejects_per_iter: int = 60) -> FitResult:
    """Levenberg-Marquardt minimization of the diffusion-coefficient cost.

    Steps to a nonpositive coefficient are treated as failed trials.  Stops
    on a small relative step, a small cost reduction, or max_iter; raises
    FitError if not a single step is ever accepted.
    """
    num_cells = problem.grid.num_cells
    d_current = config.d0
    r = residuals(problem, d_current)
    c = float(np.dot(r, r)) / num_cells
    if not np.isfinite(c):
        raise FitError(f"initial cost is not finite at D={d_current}")

    lam = config.lambda0
    trace = [c]
    iterations = 0
    converged = False
    any_accept = False

    for _ in range(config.max_iter):
        jac = model_jacobian(problem, d_current, config.jacobian_rel_step)
        jtj = float(np.dot(jac, jac))
        jtr = float(np.dot(jac, r))
        if jtj > 0.0 and abs(jtr) / jtj < config.tol_step * d_current:
            # undamped Gauss-Newton step already below tolerance (e.g. the
            # initial guess sits at the minimum)
            converged = True
            break

        accepted = False
        delta = 0.0
        for _ in range(max_rejects_per_iter):
            delta = jtr / (jtj + lam)
            d_trial = d_current + delta
            if d_trial > 0.0:
                r_trial = residuals(problem, d_trial)
                c_trial = float(np.dot(r_trial, r_trial)) / num_cells
                if np.isfinite(c_trial) and c_trial < c:
                    accepted = True
                    break
            lam *= config.lambda_up
        if not accepted:
            break

        any_accept = True
        iterations += 1
        lam *= config.lambda_down
        cost_drop = c - c_trial
        d_current, r, c = d_trial, r_trial, c_trial
        trace.append(c)
        if abs(delta) < config.tol_step * d_current or cost_drop < config.tol_cost:
            converged = True
            break

    if not any_accept and not converged:
        raise FitError(
            f"no step accepted in {config.max_iter} iterations from D0={config.d0}"
        )

    jac = model_jacobian(problem, d_current, config.jacobian_rel_step)
    ci_nd = confidence_interval_95(jac, r)
    return FitResult(
        d_opt_nd=d_current,
        d_opt_cm2_s=nd_to_physical_d(d_current, problem.scale),
        final_cost=c,
        iterations=iterations,
        ci95_nd=ci_nd,
        ci95_cm2_s=nd_to_physical_d(ci_nd, problem.scale),
        converged=converged,
        cost_trace=tuple(trace),
    )


def cost_curve(problem: FitProblem, d_values) -> np.ndarray:
    """Pointwise cost over a sorted positive grid; rows of (D, cost)."""
    d_values = np.asarray(d_values, dtype=np.float64)
    if np.any(d_values <= 0):
        raise ValueError("diffusion grid must be positive")
    if np.any(np.diff(d_values) <= 0):
        raise ValueError("diffusion grid must be strictly increasing")
    return np.array([[d, cost(problem, d)] for d in d_values])
