"""Diffusion-coefficient estimation for 2D Lennard-Jones gas mixtures.

Simulates argon diffusing through helium with an NVE molecular-dynamics
engine, solves the periodic continuum diffusion equation with FFT-based
finite-difference schemes, and recovers the diffusion coefficient by
Levenberg-Marquardt minimization of the binned-MD vs FD discrepancy.
"""

__version__ = "0.1.0"
