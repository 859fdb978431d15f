#!/usr/bin/env python3
"""Demonstrate the forward Euler critical time step and Crank-Nicolson
unconditional stability.

Evolves the Nyquist-seeded field at k/k_c in {0.5, 0.99, 1.01} with forward
Euler, and the patch at k = 100 k_c with Crank-Nicolson, printing the
discrete energy every few steps.  Also writes the amplification-factor
table that the `gasdiff amp-plot` command produces.
"""

import argparse

import numpy as np

from gasdiff.cli import main as gasdiff_main
from gasdiff.errors import InstabilityError
from gasdiff.fd_solver import SchemeKind, SolverConfig, critical_time_step, solve
from gasdiff.fields import GridSpec, ScalarField, field_energy


def energy_trace(scheme, k_factor, n_steps=60):
    grid = GridSpec(d=1, n=64)
    diffusion = 1.0
    k = k_factor * critical_time_step(grid, diffusion)
    seeded = ScalarField(grid, np.cos(np.pi * np.arange(grid.n)))
    cfg = SolverConfig(grid=grid, k=k, diffusion=diffusion, scheme=scheme,
                       n_max=n_steps)
    try:
        frames = solve(seeded, cfg, sample_stride=10).frames
        return [field_energy(f) for f in frames]
    except InstabilityError as exc:
        return str(exc)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--amp-csv", default="amp_factors.csv")
    args = ap.parse_args()

    print("forward Euler, Nyquist-mode energy every 10 steps:")
    for factor in (0.5, 0.99, 1.01):
        trace = energy_trace(SchemeKind.FORWARD_EULER, factor)
        if isinstance(trace, str):
            print(f"  k = {factor:4.2f} k_c: aborted ({trace})")
        else:
            formatted = "  ".join(f"{e:9.3e}" for e in trace)
            print(f"  k = {factor:4.2f} k_c: {formatted}")

    print("Crank-Nicolson at k = 100 k_c:")
    trace = energy_trace(SchemeKind.CRANK_NICOLSON, 100.0)
    print("            " + "  ".join(f"{e:9.3e}" for e in trace))

    code = gasdiff_main(["amp-plot", "--N", "64", "--D", "1.0", "--out", args.amp_csv])
    if code:
        raise SystemExit(code)
    print(f"amplification factors written to {args.amp_csv}")


if __name__ == "__main__":
    main()
