"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Criteria:
  1 convergence of the CN solver against the Fourier oracle
  2 stability thresholds around the critical step
  3 discrete mass conservation
  4 MD force/integration correctness
  5 estimator self-consistency and noise tolerance
  6 desk-scale end-to-end agreement between the two estimators
  7 trajectory parser robustness (fixtures + fuzz)
  8 binning exactness
"""

import json
import time

import numpy as np
import pytest

from gasdiff import binning, md
from gasdiff.analytic import patch_solution_on_grid
from gasdiff.binning import bin_counts, normalize_series
from gasdiff.cli import main as cli_main
from gasdiff.errors import ParseError
from gasdiff.fd_solver import (
    SchemeKind,
    SolverConfig,
    amplification_factors,
    critical_time_step,
    make_patch_initial,
    solve,
)
from gasdiff.fields import GridSpec, ScalarField, UnitScale, field_energy
from gasdiff.fitting import FitProblem, lm_fit
from gasdiff.md import MDConfig, ParticleState, SimBox, Species
from gasdiff.trajectory_io import parse_lammps_dump
from binned_fields import series_of_fields
from fd_modes import field_mass
from lj_pairs import pair_params

SPECIES_MAP = {1: Species.HE, 2: Species.AR}


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """One full desk-scale reproduce through the CLI, shared by criteria 4/6/8."""
    out = tmp_path_factory.mktemp("reproduce") / "desk"
    code = cli_main(["reproduce", "--scale", "desk", "--seeds", "1",
                     "--N", "10,20", "--out", str(out)])
    assert code == 0
    report_data = json.loads((out / "report.json").read_text())
    return out, report_data


def test_criterion_1_fd_vs_analytic_convergence():
    started = time.monotonic()
    diffusion, t_final, k = 3.18e-3, 0.05, 1e-4
    steps = round(t_final / k)
    errors = {}
    for n in (32, 64, 128):
        grid = GridSpec(d=2, n=n)
        cfg = SolverConfig(grid=grid, k=k, diffusion=diffusion,
                           scheme=SchemeKind.CRANK_NICOLSON, n_max=steps)
        fd = solve(make_patch_initial(grid), cfg, sample_stride=steps)
        oracle = patch_solution_on_grid(grid, t_final, diffusion, modes=64)
        errors[n] = float(np.sqrt(np.mean((fd.frames[-1].values - oracle.values) ** 2)))
    # empirical convergence rate per halving of h across the 32->64->128 chain
    rate = (errors[32] / errors[128]) ** 0.5
    elapsed = time.monotonic() - started
    report(1, 3.2 <= rate <= 4.8 and elapsed < 10.0,
           f"L2 error rate/halving = {rate:.2f} (target 4.0 +- 20%), "
           f"errors {errors[32]:.2e} -> {errors[64]:.2e} -> {errors[128]:.2e}, "
           f"runtime {elapsed:.1f}s < 10s")


def test_criterion_2_stability_thresholds():
    grid1 = GridSpec(d=1, n=64)
    diffusion = 1.0
    k_c = critical_time_step(grid1, diffusion)

    # FE just below critical: energy never increases over 500 steps
    cfg = SolverConfig(grid=grid1, k=0.99 * k_c, diffusion=diffusion,
                       scheme=SchemeKind.FORWARD_EULER, n_max=500)
    u0 = ScalarField(grid1, np.where(np.arange(64) % 2 == 0, 1.0, -0.5))
    energies = [field_energy(f) for f in solve(u0, cfg, sample_stride=1).frames]
    fe_stable = all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    # FE just above critical on the Nyquist-seeded field: >= 10x growth in 200
    seeded = ScalarField(grid1, np.cos(np.pi * np.arange(64)))  # (-1)^j
    cfg = SolverConfig(grid=grid1, k=1.01 * k_c, diffusion=diffusion,
                       scheme=SchemeKind.FORWARD_EULER, n_max=200)
    grown = [field_energy(f) for f in solve(seeded, cfg, sample_stride=1).frames]
    fe_unstable = grown[-1] >= 10.0 * grown[0]

    # CN far above critical: still non-increasing
    grid2 = GridSpec(d=2, n=32)
    k_c2 = critical_time_step(grid2, diffusion)
    cfg = SolverConfig(grid=grid2, k=100.0 * k_c2, diffusion=diffusion,
                       scheme=SchemeKind.CRANK_NICOLSON, n_max=200)
    cn_energies = [field_energy(f)
                   for f in solve(make_patch_initial(grid2), cfg, sample_stride=1).frames]
    cn_stable = all(b <= a + 1e-12 for a, b in zip(cn_energies, cn_energies[1:]))

    # |rho_CN| <= 1 over 1e4 random (m, k, N)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10000):
        n = int(rng.integers(2, 257))
        m = int(rng.integers(0, n))
        k = float(10.0 ** rng.uniform(-8, 4))
        d = float(10.0 ** rng.uniform(-6, 2))
        grid = GridSpec(d=1, n=n)
        lam = -4.0 / grid.h**2 * np.sin(np.pi * m / n) ** 2
        a = k * d * lam
        rho = (1.0 + 0.5 * a) / (1.0 - 0.5 * a)
        worst = max(worst, abs(rho))
    cn_bounded = worst <= 1.0 + 1e-14

    report(2, fe_stable and fe_unstable and cn_stable and cn_bounded,
           f"FE@0.99kc non-increasing: {fe_stable}; "
           f"FE@1.01kc growth x{grown[-1]/grown[0]:.0f} >= 10: {fe_unstable}; "
           f"CN@100kc non-increasing: {cn_stable}; max|rho_CN| = {worst:.15f}")


def test_criterion_3_mass_conservation():
    grid = GridSpec(d=2, n=20)
    diffusion = 0.25
    drifts = {}
    for scheme in SchemeKind:
        k = 0.9 * critical_time_step(grid, diffusion)
        cfg = SolverConfig(grid=grid, k=k, diffusion=diffusion, scheme=scheme,
                           n_max=1000)
        series = solve(make_patch_initial(grid), cfg, sample_stride=1)
        m0 = field_mass(series.frames[0])
        drifts[scheme.value] = max(abs(field_mass(f) - m0) for f in series.frames)
    ok = all(v <= 1e-13 for v in drifts.values())
    report(3, ok, "mass drift over 1e3 steps: "
           + ", ".join(f"{s} {v:.2e}" for s, v in drifts.items()) + " (<= 1e-13)")


def _independent_brute_forces(positions, species, side):
    n = len(positions)
    forces = np.zeros_like(positions)
    for i in range(n):
        for j in range(i + 1, n):
            d = positions[i] - positions[j]
            d = d - side * np.floor(d / side + 0.5)
            r = float(np.hypot(d[0], d[1]))
            p = pair_params(Species(int(species[i])), Species(int(species[j])))
            if r >= p.r_cut:
                continue
            sr6 = (p.sigma / r) ** 6
            fvec = 24.0 * p.epsilon / r * (2.0 * sr6**2 - sr6) * d / r
            forces[i] += fvec
            forces[j] -= fvec
    return forces


def test_criterion_4_md_correctness(desk_run):
    # cell list vs an independently written all-pairs oracle, 500 particles
    rng = np.random.default_rng(77)
    n = 500
    box = SimBox(side=600.0)
    positions = rng.uniform(0, box.side, (n, 2))
    species = rng.integers(0, 2, n)
    state = ParticleState(positions=positions,
                          velocities=np.zeros((n, 2)), species=species)
    cell_forces, _ = md.compute_forces(state, box)
    brute_forces = _independent_brute_forces(positions, species, box.side)
    force_gap = float(np.max(np.abs(cell_forces - brute_forces)))
    forces_ok = force_gap < 1e-10

    # momentum conservation per step
    cfg = MDConfig(n_he=100, n_ar=100, seed=31, sample_stride=1)
    small_box = SimBox(side=1200.0)
    st = md.init_state(cfg, small_box)
    forces, _ = md.compute_forces(st, small_box)
    masses = md.MASS_G_MOL[st.species][:, None]
    p_prev = (masses * st.velocities).sum(axis=0)
    p_scale = float(np.abs(masses * st.velocities).sum())
    worst_dp = 0.0
    for _ in range(100):
        st, forces, _ = md.verlet_step(st, forces, cfg, small_box)
        p_now = (masses * st.velocities).sum(axis=0)
        worst_dp = max(worst_dp, float(np.max(np.abs(p_now - p_prev))))
        p_prev = p_now
    momentum_ok = worst_dp <= 1e-9 * p_scale

    # NVE drift over 1e4 steps at dt=5 fs with 1000 particles, from the
    # desk reproduce run (dt 5 fs, 500+500 particles, energies per frame)
    out_dir, _ = desk_run
    from gasdiff.trajectory_io import read_native
    traj = read_native(out_dir / "seed_1" / "trajectory.bin")
    energies = np.array([f.energy for f in traj.frames])
    steps = np.array([f.timestep for f in traj.frames])
    in_window = steps <= 10000
    drift = float(np.max(np.abs(energies[in_window] - energies[0]))
                  / abs(energies[0]))
    nve_ok = drift <= 1e-3

    # equipartition at init with >= 1e4 particles
    eq_cfg = MDConfig(n_he=5000, n_ar=5000, seed=13)
    eq_state = md.init_state(eq_cfg, SimBox(side=5.0e4))
    mean_ke = md.kinetic_energy(eq_state) / eq_state.n_particles
    kbt = md.KB * eq_cfg.temperature
    equi_ok = abs(mean_ke - kbt) / kbt <= 0.02

    report(4, forces_ok and momentum_ok and nve_ok and equi_ok,
           f"cell-vs-brute gap {force_gap:.1e} (<=1e-10); "
           f"momentum step drift {worst_dp/p_scale:.1e} rel (<=1e-9); "
           f"NVE drift {drift:.1e} over 1e4 steps (<=1e-3); "
           f"KE/particle {mean_ke:.4f} vs kBT {kbt:.4f} (+-2%)")


def test_criterion_5_estimator_oracle():
    started = time.monotonic()
    scale = UnitScale()
    grid = GridSpec(d=2, n=50)
    d_true, k, n_frames = 0.8, 5e-3, 11
    cfg = SolverConfig(grid=grid, k=k, diffusion=d_true,
                       scheme=SchemeKind.CRANK_NICOLSON, n_max=n_frames - 1)
    series = solve(make_patch_initial(grid), cfg, sample_stride=1)
    times_fs = [float(t) * scale.time_unit_fs for t in series.times]

    observed = series_of_fields(times_fs, list(series.frames))
    problem = FitProblem(observed, scale)
    rel_errors = {}
    traces_ok = True
    for d0 in (0.08, 8.0):
        result = lm_fit(problem, d0)
        rel_errors[d0] = abs(result.d_opt_nd - d_true) / d_true
        traces_ok = traces_ok and all(
            b < a for a, b in zip(result.cost_trace, result.cost_trace[1:]))
    noiseless_ok = all(v < 1e-6 for v in rel_errors.values())

    rng = np.random.default_rng(5)
    noisy_fields = [ScalarField(grid, f.values + rng.normal(0, 0.01, f.values.shape))
                    for f in series.frames]
    noisy = series_of_fields(times_fs, noisy_fields)
    noisy_result = lm_fit(FitProblem(noisy, scale), 0.3)
    noisy_rel = abs(noisy_result.d_opt_nd - d_true) / d_true
    elapsed = time.monotonic() - started

    report(5, noiseless_ok and noisy_rel < 0.01 and traces_ok and elapsed < 30.0,
           f"noiseless rel err {max(rel_errors.values()):.1e} (<1e-6) from D0 in "
           f"{{0.08, 8}}; noisy rel err {noisy_rel:.2%} (<1%); "
           f"traces strictly decreasing: {traces_ok}; runtime {elapsed:.1f}s < 30s")


def test_criterion_6_desk_scale_consistency(desk_run):
    out_dir, report_data = desk_run
    run = report_data["runs"][0]
    msd_d = run["msd_d_cm2_s"]
    fit_d = run["fits"]["20"]["d_opt_cm2_s"]
    ratio = fit_d / msd_d
    finite = np.isfinite(msd_d) and np.isfinite(fit_d)
    positive = msd_d > 0 and fit_d > 0
    within_2x = 0.5 <= ratio <= 2.0

    # the reproduce example contract: report + every stage manifest present
    artifacts = [
        out_dir / "report.json",
        out_dir / "table.csv",
        out_dir / "manifest.json",
        out_dir / "seed_1" / "manifest.json",
        out_dir / "seed_1" / "bin_N20" / "manifest.json",
        out_dir / "seed_1" / "fit_N20" / "manifest.json",
    ]
    manifests_ok = all(p.exists() for p in artifacts)

    report(6, finite and positive and within_2x and manifests_ok,
           f"fit D = {fit_d:.4f} cm2/s vs MSD D = {msd_d:.4f} cm2/s, "
           f"ratio {ratio:.2f} within [0.5, 2]; stage manifests present: "
           f"{manifests_ok}")


WELL_FORMED = """ITEM: TIMESTEP
0
ITEM: NUMBER OF ATOMS
2
ITEM: BOX BOUNDS pp pp pp
0.0 100.0
0.0 100.0
-0.5 0.5
ITEM: ATOMS id type x y z
1 1 10.0 20.0 0.0
2 2 30.0 40.0 0.0
"""


def test_criterion_7_parser_robustness(tmp_path):
    cases = {
        "well_formed": (WELL_FORMED, True),
        "reordered": (WELL_FORMED.replace("id type x y z", "x y id type z")
                      .replace("1 1 10.0 20.0 0.0", "10.0 20.0 1 1 0.0")
                      .replace("2 2 30.0 40.0 0.0", "30.0 40.0 2 2 0.0"), True),
        "scaled": (WELL_FORMED.replace("id type x y z", "id type xs ys z")
                   .replace("1 1 10.0 20.0 0.0", "1 1 0.10 0.20 0.0")
                   .replace("2 2 30.0 40.0 0.0", "2 2 0.30 0.40 0.0"), True),
        "truncated": (WELL_FORMED[: WELL_FORMED.rfind("2 2")], False),
        "missing_section": (WELL_FORMED.replace(
            "ITEM: NUMBER OF ATOMS\n2\n", ""), False),
    }
    fixtures_ok = True
    for name, (text, should_parse) in cases.items():
        path = tmp_path / f"{name}.dump"
        path.write_text(text)
        try:
            traj = parse_lammps_dump(path, SPECIES_MAP)
            parsed = True
            if name == "scaled":
                fixtures_ok &= np.allclose(traj.frames[0].positions[0], [10.0, 20.0])
        except ParseError:
            parsed = False
        fixtures_ok &= parsed == should_parse

    # fuzz: 1e4 random inputs, every one either parses or raises ParseError
    rng = np.random.default_rng(999)
    tokens = ["ITEM:", "TIMESTEP", "NUMBER OF ATOMS", "BOX BOUNDS", "ATOMS",
              "id", "type", "x", "y", "xs", "ys", "1", "2", "0.5", "-3",
              "1e999", "nan", "banana", "\n", " "]
    crashes = 0
    fuzz_path = tmp_path / "fuzz.dump"
    for i in range(10000):
        if i % 3 == 0:
            blob = rng.bytes(int(rng.integers(0, 300)))
            fuzz_path.write_bytes(blob)
        else:
            parts = rng.choice(tokens, size=int(rng.integers(1, 60)))
            fuzz_path.write_text(" ".join(parts))
        try:
            parse_lammps_dump(fuzz_path, SPECIES_MAP)
        except ParseError:
            pass
        except Exception:
            crashes += 1
    report(7, fixtures_ok and crashes == 0,
           f"fixture verdicts correct: {fixtures_ok}; fuzz crashes {crashes}/10000")


def test_criterion_8_binning_exactness(desk_run):
    out_dir, _ = desk_run
    from gasdiff.trajectory_io import read_native
    traj = read_native(out_dir / "seed_1" / "trajectory.bin")
    n_ar = int(np.count_nonzero(traj.frames[0].species == int(Species.AR)))
    grid = GridSpec(d=2, n=20)
    series = binning.bin_trajectory(traj, grid, Species.AR)
    sums_ok = all(round(f.sum() * series.normalization_max) == n_ar
                  for f in series.frames)
    unit_ok = all(
        np.all(f >= 0.0) and np.all(f <= 1.0)
        for f in series.frames
    )

    # constructed two-frame case: 14 particles, frame peaks 10 then 4;
    # global M = 10 so the second frame's peak concentration is 0.4
    g = GridSpec(d=2, n=4)
    a = np.zeros((4, 4), dtype=np.int64)
    a[1, 1] = 10
    a[2, 2] = 4
    b = np.zeros((4, 4), dtype=np.int64)
    b[1, 1] = 4
    b[1, 2] = 4
    b[2, 1] = 3
    b[2, 2] = 3
    series2 = normalize_series([(0.0, a), (1.0, b)], g)
    global_ok = (series2.normalization_max == 10
                 and series2.frames[0][1, 1] == 1.0
                 and float(series2.frames[1].max())
                 == pytest.approx(0.4))

    report(8, sums_ok and unit_ok and global_ok,
           f"per-frame count sums == {n_ar}: {sums_ok}; U in [0,1]: {unit_ok}; "
           f"global-max two-frame case (10,4) -> (1.0, 0.4): {global_ok}")
