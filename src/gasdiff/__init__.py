"""Diffusion-coefficient estimation for 2D Lennard-Jones gas mixtures.

Simulates argon diffusing through helium with an NVE molecular-dynamics
engine, solves the periodic continuum diffusion equation with FFT-based
finite-difference schemes, and recovers the diffusion coefficient by
Levenberg-Marquardt minimization of the binned-MD vs FD discrepancy.
"""

__version__ = "0.1.0"

from .fields import (  # noqa: F401
    GridSpec,
    ScalarField,
    UnitScale,
    field_energy,
    field_mass,
    nd_to_physical_d,
)
from .fd_solver import (  # noqa: F401
    FieldSeries,
    SchemeKind,
    SolverConfig,
    critical_time_step,
    make_patch_initial,
    solve,
)
from .md import MDConfig, SimBox, Species  # noqa: F401
from .binning import BinnedSeries, bin_trajectory  # noqa: F401
from .fitting import FitProblem, FitResult, lm_fit  # noqa: F401
from .trajectory_io import Trajectory, parse_lammps_dump, read_native, write_native  # noqa: F401
