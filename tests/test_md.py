import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasdiff.errors import GasdiffError, InstabilityError
from gasdiff.fields import KCAL_PER_MOL_TO_MD
from gasdiff import md
from gasdiff.md import (
    COINCIDENT_DISTANCE,
    LJ_CUTOFF,
    OUTER_RANGE,
    SKIN,
    MDConfig,
    ParticleState,
    SimBox,
    Species,
    compute_forces,
    init_state,
    kinetic_energy,
    minimum_image,
    run,
    verlet_step,
)
from gasdiff.trajectory_io import Frame, Trajectory
from lj_pairs import LJPairParams, pair_params


def lj_potential(r: float, p: LJPairParams) -> float:
    """Truncated 12-6 potential, kcal/mol."""
    if r <= 0:
        raise ValueError("interparticle distance must be positive")
    if r >= p.r_cut:
        return 0.0
    sr6 = (p.sigma / r) ** 6
    return 4.0 * p.epsilon * (sr6 * sr6 - sr6)


def lj_force_pair(r_vec: np.ndarray, p: LJPairParams) -> np.ndarray:
    """Force on the particle displaced by r_vec from its partner.

    Positive along r_vec means repulsion.  The magnitude is
    (24 eps / r) * (2 (sigma/r)^12 - (sigma/r)^6); identically zero at and
    beyond the cutoff.
    """
    r_vec = np.asarray(r_vec, dtype=np.float64)
    r2 = float(np.dot(r_vec, r_vec))
    r = np.sqrt(r2)
    if r < COINCIDENT_DISTANCE:
        raise GasdiffError(f"coincident particles (separation {r:.2e} A)")
    if r >= p.r_cut:
        return np.zeros_like(r_vec)
    sr6 = (p.sigma / r) ** 6
    return (24.0 * p.epsilon / r2) * (2.0 * sr6 * sr6 - sr6) * r_vec


def pair_interactions(positions, species, box, idx_i, idx_j):
    """Forces and potential of the listed pairs through the library's pair
    kernel, with their _pair_terms built here."""
    terms = md._pair_terms(species, idx_i, idx_j, len(positions))
    return md._pair_interactions(positions, box, idx_i, idx_j, terms)


def compute_forces_brute(state: ParticleState, box: SimBox):
    """All pairs through the library's pair kernel: the O(n^2) reference
    path for the cell list."""
    idx_i, idx_j = np.triu_indices(state.n_particles, k=1)
    return pair_interactions(state.positions, state.species, box,
                             idx_i.astype(np.int64), idx_j.astype(np.int64))


def unwrap_displacements(traj) -> np.ndarray:
    """Displacement of every particle from frame 0, shape (F, n, 2): the
    whole-trajectory oracle for MSDAccumulator's running displacement.

    Reconstructed from wrapped coordinates by accumulating minimum-image
    steps, valid as long as nothing moves more than half a box side between
    sampled frames.
    """
    box = SimBox(side=traj.box_side)
    frames = traj.frames
    disp = np.zeros((len(frames), len(frames[0].ids), 2))
    for i in range(1, len(frames)):
        delta = minimum_image(
            frames[i].positions - frames[i - 1].positions, box.side)
        disp[i] = disp[i - 1] + delta
    return disp


def brute_reference_forces(positions, species, side):
    """Independent all-pairs oracle written from the potential definition:
    differentiates nothing shared with the library's pair kernel."""
    n = len(positions)
    forces = np.zeros_like(positions)
    potential = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = positions[i] - positions[j]
            d = d - side * np.floor(d / side + 0.5)
            r = np.hypot(d[0], d[1])
            p = pair_params(Species(int(species[i])), Species(int(species[j])))
            if r >= p.r_cut:
                continue
            sr6 = (p.sigma / r) ** 6
            potential += 4.0 * p.epsilon * (sr6**2 - sr6)
            fmag = 24.0 * p.epsilon / r * (2.0 * sr6**2 - sr6)
            fvec = fmag * d / r
            forces[i] += fvec
            forces[j] -= fvec
    return forces, potential


def pairs_closer_than(r, positions, box, ii, jj):
    """Unordered index pairs among (ii, jj) at minimum-image separation < r."""
    d = minimum_image(positions[ii] - positions[jj], box.side)
    near = np.einsum("ij,ij->i", d, d) < r**2
    return set(zip(np.minimum(ii, jj)[near].tolist(),
                   np.maximum(ii, jj)[near].tolist()))


def canonical(ii, jj):
    """Pairs turned to i < j and sorted by (i, j), written the direct way."""
    a, b = np.minimum(ii, jj), np.maximum(ii, jj)
    by_pair = np.lexsort((b, a))
    return a[by_pair], b[by_pair]


def unfiltered_cell_pairs(pos, side, r_cut):
    """Every pair of particles in the same or adjacent cells of edge >=
    r_cut, with no distance filter, written the direct way: a (cell, slot)
    member table and a sorted-cell lookup per forward neighbour.  Order:
    same-cell pairs by slot pair, then per neighbour offset and slot pair,
    cells ascending."""
    n = len(pos)
    n_side = int(side // r_cut)
    cell_len = side / n_side
    coords = np.clip((pos // cell_len).astype(np.int64), 0, n_side - 1)
    cid = coords[:, 0] * n_side + coords[:, 1]
    order = np.argsort(cid, kind="stable")
    cells, start, counts = np.unique(cid[order], return_index=True,
                                     return_counts=True)
    kmax = int(counts.max())
    members = np.full((len(cells), kmax), -1)
    members[np.repeat(np.arange(len(cells)), counts),
            np.arange(n) - np.repeat(start, counts)] = order
    valid = members >= 0
    out_i, out_j = [], []
    for b in range(1, kmax):
        for a in range(b):
            out_i.append(members[valid[:, b], a])
            out_j.append(members[valid[:, b], b])
    cx, cy = cells // n_side, cells % n_side
    for dx, dy in ((0, 1), (1, 0), (1, 1), (1, -1)):
        ncid = ((cx + dx) % n_side) * n_side + (cy + dy) % n_side
        loc = np.minimum(np.searchsorted(cells, ncid), len(cells) - 1)
        hit = cells[loc] == ncid
        src, dst = np.nonzero(hit)[0], loc[hit]
        for a in range(kmax):
            sa, da = src[valid[src, a]], dst[valid[src, a]]
            for b in range(kmax):
                sel = valid[da, b]
                out_i.append(members[sa[sel], a])
                out_j.append(members[da[sel], b])
    return np.concatenate(out_i), np.concatenate(out_j)


def test_import_loads_no_later_layer():
    # a fresh interpreter, so that no other test's imports count
    later = ("fd_solver", "binning", "fitting", "trajectory_io", "pipeline", "cli")
    code = ("import sys, gasdiff.md; "
            "print(' '.join(m for m in sys.modules if m.startswith('gasdiff.')))")
    src = str(Path(md.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert "gasdiff.md" in out
    assert not [m for m in out if m.rpartition(".")[2] in later]


class TestSpecies:
    def test_masses(self):
        assert md.MASS_G_MOL[Species.HE] == 4.003
        assert md.MASS_G_MOL[Species.AR] == 39.948

    def test_labels(self):
        assert Species.HE.label == "He"
        assert Species.AR.label == "Ar"


class TestPairParams:
    @pytest.mark.parametrize("a,b,eps,sigma", [
        (Species.HE, Species.HE, 0.0196, 2.50),
        (Species.HE, Species.AR, 0.0700, 2.92),
        (Species.AR, Species.AR, 0.2498, 3.40),
    ])
    def test_table(self, a, b, eps, sigma):
        p = pair_params(a, b)
        assert p.epsilon == eps
        assert p.sigma == sigma
        assert p.r_cut == 20.0

    def test_symmetric(self):
        assert pair_params(Species.AR, Species.HE) == pair_params(Species.HE, Species.AR)

    def test_md_tables_hold_the_same_values(self):
        for a in Species:
            for b in Species:
                assert md._EPS_TABLE[a, b] == pair_params(a, b).epsilon
                assert md._SIG_TABLE[a, b] == pair_params(a, b).sigma

    def test_mixed_is_geometric_mean(self):
        mixed = pair_params(Species.HE, Species.AR)
        he = pair_params(Species.HE, Species.HE)
        ar = pair_params(Species.AR, Species.AR)
        assert mixed.epsilon == pytest.approx(np.sqrt(he.epsilon * ar.epsilon), rel=5e-3)
        assert mixed.sigma == pytest.approx(np.sqrt(he.sigma * ar.sigma), rel=2e-2)


class TestLJPotential:
    def test_zero_at_sigma(self):
        p = pair_params(Species.AR, Species.AR)
        assert lj_potential(p.sigma, p) == pytest.approx(0.0, abs=1e-15)

    def test_minimum_depth(self):
        p = pair_params(Species.AR, Species.AR)
        r_min = 2.0 ** (1.0 / 6.0) * p.sigma
        assert lj_potential(r_min, p) == pytest.approx(-0.2498, rel=1e-12)

    def test_zero_beyond_cutoff(self):
        p = pair_params(Species.HE, Species.HE)
        assert lj_potential(21.0, p) == 0.0
        assert lj_potential(20.0, p) == 0.0

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            lj_potential(0.0, pair_params(Species.HE, Species.HE))


class TestLJForce:
    def test_zero_at_minimum(self):
        p = pair_params(Species.HE, Species.AR)
        r_min = 2.0 ** (1.0 / 6.0) * p.sigma
        f = lj_force_pair(np.array([r_min, 0.0]), p)
        assert np.max(np.abs(f)) < 1e-12

    def test_repulsive_at_sigma(self):
        p = pair_params(Species.AR, Species.AR)
        f = lj_force_pair(np.array([p.sigma, 0.0]), p)
        assert f[0] == pytest.approx(24.0 * p.epsilon / p.sigma, rel=1e-12)
        assert f[0] > 0  # points along the displacement: repulsion
        assert f[1] == 0.0

    def test_exactly_zero_beyond_cutoff(self):
        p = pair_params(Species.AR, Species.AR)
        f = lj_force_pair(np.array([20.0, 5.0]), p)
        assert np.array_equal(f, np.zeros(2))

    def test_coincident_raises(self):
        p = pair_params(Species.HE, Species.HE)
        with pytest.raises(GasdiffError):
            lj_force_pair(np.array([1e-9, 0.0]), p)


class TestMinimumImage:
    def test_small_displacement_unchanged(self):
        box = SimBox(side=100.0)
        assert np.allclose(minimum_image(np.array([2.0, -2.0]), box.side), [2.0, -2.0])

    def test_wraparound_pair(self):
        box = SimBox(side=100.0)
        d = minimum_image(np.array([0.99 * 100 - 0.01 * 100]), box.side)
        assert d[0] == pytest.approx(-2.0)

    def test_negative_point_six(self):
        box = SimBox(side=100.0)
        assert minimum_image(np.array([-60.0]), box.side)[0] == pytest.approx(40.0)

    @given(st.floats(min_value=-199.0, max_value=199.0))
    def test_result_in_half_open_interval(self, dx):
        box = SimBox(side=100.0)
        out = minimum_image(np.array([dx]), box.side)[0]
        assert -50.0 <= out < 50.0
        # shifted by an integer number of sides
        assert (out - dx) / 100.0 == pytest.approx(round((out - dx) / 100.0), abs=1e-9)


class TestWrap:
    def test_edge_cases(self):
        side = 100.0
        x = np.array([-1e-300, side, 0.0, 37.25, np.nextafter(side, 0.0),
                      -250.5, 312.0])
        w = md._wrap(x.copy(), side)
        assert np.array_equal(w, [0.0, 0.0, 0.0, 37.25, np.nextafter(side, 0.0),
                                  49.5, 12.0])
        assert np.all((w >= 0.0) & (w < side))

    def test_in_range_values_untouched(self):
        rng = np.random.default_rng(4)
        side = 5.0e4
        x = rng.uniform(0.0, side, (1000, 2))
        x[::7] += rng.choice([-side, side], (len(x[::7]), 2))
        inside = (x >= 0.0) & (x < side)
        before = x.copy()
        w = md._wrap(x.copy(), side)
        assert np.array_equal(w[inside], before[inside])
        # bit-identical to wrapping every value with np.mod
        ref = np.mod(before, side)
        ref[ref >= side] -= side
        assert np.array_equal(w, ref)


class TestInitState:
    def test_argon_confined_to_patch(self):
        cfg = MDConfig(n_he=200, n_ar=200, seed=3)
        box = SimBox(side=4000.0)
        state = init_state(cfg, box)
        ar = state.positions[state.species == Species.AR]
        assert np.all(ar >= 0.25 * box.side)
        assert np.all(ar <= 0.75 * box.side)

    def test_helium_fills_box(self):
        cfg = MDConfig(n_he=2000, n_ar=0, seed=4)
        box = SimBox(side=4000.0)
        state = init_state(cfg, box)
        he = state.positions[state.species == Species.HE]
        assert np.all((he >= 0.0) & (he < box.side))
        # spread beyond the patch
        assert np.any(he < 0.2 * box.side) and np.any(he > 0.8 * box.side)

    def test_equipartition_at_init(self):
        cfg = MDConfig(n_he=5000, n_ar=5000, seed=11)
        box = SimBox(side=5.0e4)
        state = init_state(cfg, box)
        mean_ke = kinetic_energy(state) / state.n_particles
        assert mean_ke == pytest.approx(md.KB * cfg.temperature, rel=0.02)

    def test_same_seed_bit_identical(self):
        cfg = MDConfig(n_he=300, n_ar=300, seed=8)
        box = SimBox(side=4000.0)
        a = init_state(cfg, box)
        b = init_state(cfg, box)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)

    def test_no_overlapping_pairs(self):
        cfg = MDConfig(n_he=400, n_ar=400, seed=1)
        box = SimBox(side=1000.0)  # dense enough to force some resampling
        state = init_state(cfg, box)
        min_sep = 0.8 * pair_params(Species.AR, Species.AR).sigma
        d = state.positions[:, None, :] - state.positions[None, :, :]
        d = d - box.side * np.floor(d / box.side + 0.5)
        r = np.sqrt((d**2).sum(axis=2))
        np.fill_diagonal(r, np.inf)
        assert r.min() >= min_sep

    def test_pair_list_handed_over_without_changing_positions(self, monkeypatch):
        # Overlap rounds search at LJ_CUTOFF + SKIN; every pair closer than
        # 0.8 sigma_ArAr is also in the LJ_CUTOFF list, so the redraws (and
        # the positions) are those of a search at the cutoff.
        searches = []
        search = md._candidate_pairs

        def recording(pos, side, r_cut):
            ii, jj = search(pos, side, r_cut)
            assert r_cut == LJ_CUTOFF + SKIN
            searches.append((pos.copy(), ii, jj))
            return ii, jj

        monkeypatch.setattr(md, "_candidate_pairs", recording)
        cfg = MDConfig(n_he=400, n_ar=400, seed=1)
        box = SimBox(side=1000.0)
        state = init_state(cfg, box)
        assert len(searches) >= 2  # dense enough to force a redraw

        min_sep = 0.8 * pair_params(Species.AR, Species.AR).sigma
        for pos, ii, jj in searches:
            assert pairs_closer_than(min_sep, pos, box, ii, jj) == \
                pairs_closer_than(min_sep, pos, box,
                                  *search(pos, box.side, LJ_CUTOFF))

        ii, jj, built = state.pair_list
        assert np.array_equal(built, state.positions)
        assert np.array_equal(ii, searches[-1][1]) and np.array_equal(jj, searches[-1][2])
        n_searches = len(searches)
        compute_forces(state, box)
        assert len(searches) == n_searches  # the first force call reuses it

    def test_net_momentum_removed(self):
        cfg = MDConfig(n_he=500, n_ar=500, seed=2)
        box = SimBox(side=5000.0)
        state = init_state(cfg, box)
        m = md.MASS_G_MOL[state.species]
        p = (m[:, None] * state.velocities).sum(axis=0)
        assert np.max(np.abs(p)) < 1e-10 * np.sum(m * np.abs(state.velocities).sum(axis=1).mean())


class TestComputeForces:
    def test_pair_at_minimum_has_zero_force(self):
        p = pair_params(Species.AR, Species.AR)
        r_min = 2.0 ** (1.0 / 6.0) * p.sigma
        state = ParticleState(
            positions=np.array([[50.0, 50.0], [50.0 + r_min, 50.0]]),
            velocities=np.zeros((2, 2)),
            species=np.array([1, 1]),
        )
        forces, _ = compute_forces(state, SimBox(side=100.0))
        assert np.max(np.abs(forces)) < 1e-12

    def test_forces_sum_to_zero(self):
        rng = np.random.default_rng(9)
        n = 150
        box = SimBox(side=300.0)
        state = ParticleState(
            positions=rng.uniform(0, box.side, (n, 2)),
            velocities=np.zeros((n, 2)),
            species=rng.integers(0, 2, n),
        )
        forces, _ = compute_forces(state, box)
        scale = np.abs(forces).sum()
        assert np.max(np.abs(forces.sum(axis=0))) < 1e-9 * max(scale, 1.0)

    def test_cell_list_matches_independent_brute_oracle(self):
        rng = np.random.default_rng(12)
        n = 200
        box = SimBox(side=250.0)
        positions = rng.uniform(0, box.side, (n, 2))
        species = rng.integers(0, 2, n)
        state = ParticleState(positions=positions,
                              velocities=np.zeros((n, 2)), species=species)
        forces, potential = compute_forces(state, box)
        ref_forces, ref_potential = brute_reference_forces(positions, species, box.side)
        assert np.max(np.abs(forces - ref_forces)) < 1e-10
        assert potential == pytest.approx(ref_potential, abs=1e-10)

    def test_cell_list_matches_library_brute_path(self):
        rng = np.random.default_rng(13)
        n = 400
        box = SimBox(side=500.0)
        state = ParticleState(
            positions=rng.uniform(0, box.side, (n, 2)),
            velocities=np.zeros((n, 2)),
            species=rng.integers(0, 2, n),
        )
        f1, p1 = compute_forces(state, box)
        f2, p2 = compute_forces_brute(state, box)
        assert np.max(np.abs(f1 - f2)) < 1e-10
        assert p1 == pytest.approx(p2, abs=1e-9)

    def test_crowded_forces_are_pinned(self):
        # SHA-256 of the force array in a box with up to ~10 neighbours per
        # particle, where the order in which pair forces are summed shows.
        rng = np.random.default_rng(12)
        n = 200
        state = ParticleState(positions=rng.uniform(0, 250.0, (n, 2)),
                              velocities=np.zeros((n, 2)),
                              species=rng.integers(0, 2, n))
        forces, _ = compute_forces(state, SimBox(side=250.0))
        assert hashlib.sha256(forces.tobytes()).hexdigest() == (
            "95e7ae0ae869648d95d799f7c7b628d23bc49cd79adf48a328746dbb6eb067dd")

    def test_canonical_lists_give_the_same_bits(self):
        # In the crowded box, lists that hold every pair inside the cutoff
        # plus different pairs beyond it, found in different orders, give
        # bit-identical forces and potential once in canonical order.
        rng = np.random.default_rng(12)
        n, side = 200, 250.0
        box = SimBox(side=side)
        positions = rng.uniform(0, side, (n, 2))
        species = rng.integers(0, 2, n)
        state = ParticleState(positions=positions, velocities=np.zeros((n, 2)),
                              species=species)
        r_cut = LJ_CUTOFF + SKIN
        fresh = md._candidate_pairs(positions, side, r_cut)
        # built where each particle was up to 0.45 SKIN away: stale, but
        # within half the skin
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        step = 0.45 * SKIN * np.sqrt(rng.uniform(0.0, 1.0, n))[:, None]
        built = md._wrap(positions + step * np.column_stack((np.cos(angle),
                                                             np.sin(angle))), side)
        flip = rng.random(len(fresh[0])) < 0.5
        shuffled = rng.permutation(len(fresh[0]))
        lists = {
            "fresh": fresh,
            "stale": md._candidate_pairs(built, side, r_cut),
            **{f"wide {r}": md._candidate_pairs(positions, side, r)
               for r in (30.0, 45.0, 60.0)},
            "shuffled": (fresh[0][shuffled], fresh[1][shuffled]),
            "flipped": (np.where(flip, fresh[1], fresh[0]),
                        np.where(flip, fresh[0], fresh[1])),
        }
        assert len({len(ii) for ii, _ in lists.values()}) >= 4
        ref_forces, ref_potential = pair_interactions(positions, species, box, *fresh)
        for name, (ii, jj) in lists.items():
            assert pairs_closer_than(LJ_CUTOFF, positions, box, ii, jj) == \
                pairs_closer_than(LJ_CUTOFF, positions, box, *fresh), name
            forces, potential = pair_interactions(positions, species, box,
                                                  *canonical(ii, jj))
            assert forces.tobytes() == ref_forces.tobytes(), name
            assert potential == ref_potential, name
        # compute_forces' own list, pruned from the outer list, is one too
        forces, potential = compute_forces(state, box)
        assert forces.tobytes() == ref_forces.tobytes() and potential == ref_potential
        # the order shows: the shuffled list as it stands sums differently
        raw, _ = pair_interactions(positions, species, box, *lists["shuffled"])
        assert raw.tobytes() != ref_forces.tobytes()

    def test_coincident_particles_raise(self):
        state = ParticleState(
            positions=np.array([[10.0, 10.0], [10.0, 10.0]]),
            velocities=np.zeros((2, 2)),
            species=np.array([0, 0]),
        )
        with pytest.raises(GasdiffError):
            compute_forces(state, SimBox(side=100.0))


class TestPairList:
    def test_no_missed_pairs_while_list_is_reused(self, monkeypatch):
        # Hot, crowded box: ~2 neighbours per particle inside the cutoff and
        # fast enough that the list goes stale several times.
        rebuilt = []
        search, rebuild = md._candidate_pairs, md._rebuild_pair_list

        def recording(*args):
            rebuilt.append(rebuild(*args))
            return rebuilt[-1]

        cfg = MDConfig(n_he=100, n_ar=50, temperature=2000.0, seed=17)
        box = SimBox(side=300.0)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        monkeypatch.setattr(md, "_rebuild_pair_list", recording)
        n_steps = 60
        for _ in range(n_steps):
            state, forces, potential = verlet_step(state, forces, cfg, box)
            ii, jj = state.pair_list[:2]
            fresh = search(state.positions, box.side, LJ_CUTOFF)
            assert pairs_closer_than(LJ_CUTOFF, state.positions, box, ii, jj) == \
                pairs_closer_than(LJ_CUTOFF, state.positions, box, *fresh)
            ref_forces, ref_potential = pair_interactions(
                state.positions, state.species, box, *fresh)
            scale = np.max(np.abs(ref_forces))
            assert np.max(np.abs(forces - ref_forces)) <= 1e-12 * scale
            assert potential == pytest.approx(ref_potential, rel=1e-12)
        assert 2 <= len(rebuilt) < n_steps
        for ii, jj, built in rebuilt:  # each list is a search at the list range
            fresh = search(built, box.side, LJ_CUTOFF + SKIN)
            assert np.array_equal(ii, fresh[0]) and np.array_equal(jj, fresh[1])

    def test_head_on_pair_is_listed_before_it_reaches_the_cutoff(self):
        # Two argon atoms in non-adjacent 25 A cells close at 0.097 A per
        # step.  The half-skin rebuild lists them at 20.16 A; a list kept
        # until each had moved a full skin would miss them from 20 A on.
        cfg = MDConfig(n_he=0, n_ar=2, dt=5.0, seed=0)
        box = SimBox(side=300.0)
        state = ParticleState(
            positions=np.array([[24.9, 160.0], [50.1, 160.0]]),
            velocities=np.array([[0.0097, 0.0], [-0.0097, 0.0]]),
            species=np.array([1, 1]),
        )
        forces, _ = compute_forces(state, box)
        assert len(state.pair_list[0]) == 0
        interacting = 0
        for _ in range(120):
            state, forces, _ = verlet_step(state, forces, cfg, box)
            ref_forces, _ = compute_forces_brute(state, box)
            assert np.allclose(forces, ref_forces, rtol=1e-12, atol=0.0)
            interacting += bool(np.any(ref_forces))
        assert interacting > 50

    def test_list_of_another_particle_count_is_rebuilt(self):
        box = SimBox(side=100.0)
        old = ParticleState(positions=np.array([[10.0, 10.0], [60.0, 60.0]]),
                            velocities=np.zeros((2, 2)),
                            species=np.array([0, 1]))
        compute_forces(old, box)
        state = ParticleState(
            positions=np.array([[10.0, 10.0], [60.0, 60.0], [14.0, 10.0]]),
            velocities=np.zeros((3, 2)),
            species=np.array([0, 1, 1]), pair_list=old.pair_list)
        forces, potential = compute_forces(state, box)
        ref_forces, ref_potential = compute_forces_brute(state, box)
        assert np.array_equal(forces, ref_forces) and potential == ref_potential
        assert np.any(forces)

    def test_in_place_move_past_half_skin_rebuilds(self):
        rng = np.random.default_rng(12)
        n = 200
        box = SimBox(side=250.0)
        positions = rng.uniform(0, box.side, (n, 2))
        species = rng.integers(0, 2, n)
        state = ParticleState(positions=positions,
                              velocities=np.zeros((n, 2)), species=species)
        compute_forces(state, box)
        ii, jj = state.pair_list[:2]
        listed = set(zip(np.minimum(ii, jj).tolist(), np.maximum(ii, jj).tolist()))
        # particle 0 jumps next to a particle it was not listed with
        partner = next(k for k in range(1, n) if (0, k) not in listed)
        target = md._wrap(positions[partner] + [0.6 * LJ_CUTOFF, 0.0], box.side)
        assert np.linalg.norm(minimum_image(target - positions[0], box.side)) > SKIN / 2
        state.positions[0] = target
        forces, potential = compute_forces(state, box)
        ref_forces, ref_potential = brute_reference_forces(
            state.positions, species, box.side)
        assert np.max(np.abs(forces - ref_forces)) < 1e-10
        assert potential == pytest.approx(ref_potential, abs=1e-10)


    def test_listed_pairs_are_closer_than_the_list_range(self, monkeypatch):
        searches = []
        rebuild = md._rebuild_pair_list

        def recording(*args):
            ii, jj, built = rebuild(*args)
            searches.append((built.copy(), ii, jj))
            return ii, jj, built

        monkeypatch.setattr(md, "_rebuild_pair_list", recording)
        cfg = MDConfig(n_he=100, n_ar=50, temperature=2000.0, seed=17)
        box = SimBox(side=300.0)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        for _ in range(40):
            state, forces, _ = verlet_step(state, forces, cfg, box)
        assert len(searches) >= 3
        for pos, ii, jj in searches:
            d = minimum_image(pos[ii] - pos[jj], box.side)
            assert np.all(np.einsum("ij,ij->i", d, d) < (LJ_CUTOFF + SKIN) ** 2)

    @pytest.mark.parametrize("side, n_he, n_ar, seed", [
        (5.0e4, 30000, 30000, 1),   # paper density
        (251.0, 150, 150, 4),       # 25.1 A cells, particles on cell edges
    ])
    def test_list_is_the_unfiltered_cell_search_filtered(self, side, n_he, n_ar, seed):
        box = SimBox(side=side)
        positions = init_state(MDConfig(n_he=n_he, n_ar=n_ar, seed=seed), box).positions
        if side == 251.0:
            rng = np.random.default_rng(seed)
            on_edge = rng.random(positions.shape) < 0.3
            # k * 25.1 rounds below the true edge often enough that
            # floor(x / 25.1) and x // 25.1 disagree on some of these
            edges = rng.integers(1, 10, positions.shape) * 25.1
            positions[on_edge] = edges[on_edge]
            assert np.any(np.floor(positions / 25.1) != positions // 25.1)
        r_cut = LJ_CUTOFF + SKIN
        ii, jj = md._candidate_pairs(positions, side, r_cut)
        ref_i, ref_j = unfiltered_cell_pairs(positions, side, r_cut)
        d = minimum_image(positions[ref_i] - positions[ref_j], box.side)
        keep = np.einsum("ij,ij->i", d, d) < r_cut**2
        assert len(ii) < len(ref_i)
        ref_i, ref_j = canonical(ref_i[keep], ref_j[keep])
        assert np.array_equal(ii, ref_i) and np.array_equal(jj, ref_j)

    @pytest.mark.parametrize("side, n, crowded", [
        (5.0e4, 60000, False),  # paper density
        (1.0e12, 60, False),    # cells capped so that cid * n + i fits in int64
        (5.0e3, 0, False), (5.0e3, 1, False), (5.0e3, 2, False),
        (250.0, 400, True),     # half the particles in one cell
    ])
    def test_packed_key_sort_is_the_stable_argsort(self, side, n, crowded):
        rng = np.random.default_rng(n)
        positions = rng.uniform(0.0, side, (n, 2))
        if crowded:
            positions[:n // 2] = rng.uniform(100.0, 110.0, (n // 2, 2))
        positions[n - 1:] = np.nextafter(side, 0.0)  # in the last cell
        n_side = md._cells_per_axis(side, n, LJ_CUTOFF + SKIN)
        coords = md._cell_coords(positions, side, n_side)
        cid = coords[:, 0] * n_side + coords[:, 1]
        if side == 1.0e12:
            assert n_side < side // (LJ_CUTOFF + SKIN) and int(cid.max()) * n > 2**62
        sorted_cid, order = md._sorted_cells(positions, side, n_side)
        ref = np.argsort(cid, kind="stable")
        assert np.array_equal(order, ref) and np.array_equal(sorted_cid, cid[ref])
        if crowded:
            assert np.bincount(cid).max() >= n // 2

    def test_a_search_does_not_depend_on_what_ran_before_it(self):
        cfg = MDConfig(n_he=300, n_ar=300, temperature=2000.0, seed=3)
        box = SimBox(side=1000.0)
        state = init_state(cfg, box)
        positions, r_cut = state.positions.copy(), LJ_CUTOFF + SKIN
        first = md._candidate_pairs(positions, box.side, r_cut)
        forces, _ = compute_forces(state, box)
        for _ in range(100):
            state, forces, _ = verlet_step(state, forces, cfg, box)
        assert state._work.searches >= 2  # outer searches ran in between
        shuffled = np.random.default_rng(0).permutation(positions)
        md._candidate_pairs(shuffled, box.side, r_cut)
        again = md._candidate_pairs(positions, box.side, r_cut)
        assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])

    def test_huge_box_pairs_across_the_periodic_edge(self):
        # cid * n + i would overflow int64 with 25 A cells in this box
        side = 1.0e12
        box = SimBox(side=side)
        positions = np.array([[1.0, 5.0e11], [side - 4.0, 5.0e11],
                              [3.0e11, 3.0e11], [3.0e11 + 7.0, 3.0e11 + 7.0]])
        ii, jj = md._candidate_pairs(positions, side, LJ_CUTOFF + SKIN)
        assert pairs_closer_than(LJ_CUTOFF + SKIN, positions, box, ii, jj) == {(0, 1), (2, 3)}
        assert len(ii) == 2


def check_rebuilds(monkeypatch):
    """Checks every pair-list rebuild against a fresh search at the list
    range in canonical order, in value and order, and counts the rebuilds,
    the ones that searched the outer list again, and the most particles seen
    in one cell."""
    rebuild, search = md._rebuild_pair_list, md._candidate_pairs
    seen = {"rebuilds": 0, "outer": 0, "most_in_cell": 0}

    def checking_rebuild(state, box, w):
        outer = w.outer
        pair_list = rebuild(state, box, w)
        seen["outer"] += w.outer is not outer
        built, r_cut = pair_list[2], LJ_CUTOFF + SKIN
        ii, jj = search(built, box.side, r_cut)
        assert np.array_equal(pair_list[0], ii) and np.array_equal(pair_list[1], jj)
        n_side = md._cells_per_axis(box.side, len(built), r_cut)
        coords = md._cell_coords(built, box.side, n_side)
        _, counts = np.unique(coords[:, 0] * n_side + coords[:, 1], return_counts=True)
        seen["most_in_cell"] = max(seen["most_in_cell"], int(counts.max()))
        seen["rebuilds"] += 1
        return pair_list

    monkeypatch.setattr(md, "_rebuild_pair_list", checking_rebuild)
    return seen


class TestDualList:
    @pytest.mark.parametrize("side, n_he, n_ar, temperature, seed, n_steps", [
        (5000.0, 500, 500, 300.0, 1, 2000),   # the desk preset
        (5000.0, 500, 500, 300.0, 2, 2000),
        (5000.0, 500, 500, 300.0, 3, 2000),
        (2000.0, 100, 50, 300.0, 17, 1000),
        (300.0, 100, 50, 2000.0, 17, 300),    # hot and crowded
        (250.0, 200, 200, 300.0, 4, 300),     # 3 or more particles per cell
        (80.0, 20, 20, 2000.0, 5, 300),       # 3 cells per axis, outer list all pairs
        (100.0, 30, 30, 2000.0, 5, 300),      # 4 cells per axis
    ])
    def test_pruned_list_is_the_fresh_search(self, monkeypatch, side, n_he, n_ar,
                                             temperature, seed, n_steps):
        cfg = MDConfig(n_he=n_he, n_ar=n_ar, temperature=temperature, seed=seed)
        box = SimBox(side=side)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        seen = check_rebuilds(monkeypatch)
        for _ in range(n_steps):
            state, forces, _ = verlet_step(state, forces, cfg, box)
        assert seen["rebuilds"] >= 5
        assert seen["outer"] < seen["rebuilds"]  # some prunes reuse the outer list
        if side == 250.0:
            assert seen["most_in_cell"] >= 3

    def test_particles_on_cell_edges_and_at_the_box_edge(self, monkeypatch):
        side, n = 251.0, 300  # 25.1 A cells
        box = SimBox(side=side)
        rng = np.random.default_rng(8)
        positions = rng.uniform(0.0, side, (n, 2))
        edges = np.array([[np.nextafter(side, 0.0), 100.0], [200.0, np.nextafter(side, 0.0)],
                          [0.0, 30.0], [side, 160.0]])  # side: the closed end of [0, side]
        positions[:4] = np.abs(edges - 1.0)
        state = ParticleState(positions=positions, velocities=np.zeros((n, 2)),
                              species=rng.integers(0, 2, n))
        compute_forces(state, box)
        outer = state._work.outer
        # one component of each particle moves to its nearest cell edge, by at
        # most half a cell, and a few to the box edges: the outer list holds
        moved = positions.copy()
        axis = rng.integers(0, 2, n)
        rows = np.arange(n)
        moved[rows, axis] = np.round(moved[rows, axis] / 25.1) * 25.1
        moved[:4] = edges
        assert np.any(np.floor(moved / 25.1) != moved // 25.1)
        state.positions, state.pair_list = moved, None
        seen = check_rebuilds(monkeypatch)
        md._rebuild_pair_list(state, box, state._work)
        assert seen["rebuilds"] == 1 and seen["outer"] == 0
        assert state._work.outer is outer

    @pytest.mark.parametrize("n_cells, ulps", [
        (3, 1), (4, 2), (7, 5), (10, 1), (10, 3), (13, -2), (40, 9)])
    def test_boxes_a_few_ulps_from_whole_cells(self, monkeypatch, n_cells, ulps):
        # cells only just wider than the range, with particles within a few
        # ulps of every cell edge: pairs in range stay in adjacent cells
        r_cut = LJ_CUTOFF + SKIN
        side = n_cells * r_cut + ulps * np.spacing(n_cells * r_cut)
        cell_len = side / md._cells_per_axis(side, 2, r_cut)
        edges = [c * cell_len + m * np.spacing(c * cell_len)
                 for c in range(int(side / cell_len) + 1) for m in range(-3, 4)]
        e = np.unique(np.clip(edges + [side], 0.0, side))
        mid = np.full_like(e, 12.5)
        positions = np.concatenate([np.column_stack(p) for p in
                                    [(e, mid), (mid, e), (e, e)]])
        n = len(positions)
        state = ParticleState(positions=positions, velocities=np.zeros((n, 2)),
                              species=np.ones(n, dtype=np.int64))
        seen = check_rebuilds(monkeypatch)
        md._rebuild_pair_list(state, SimBox(side=side), md._work(state))
        assert seen["rebuilds"] == seen["outer"] == 1

    @pytest.mark.parametrize("far", [False, True])
    def test_in_place_move_past_the_outer_reach(self, monkeypatch, far):
        rng = np.random.default_rng(12)
        n = 200
        box = SimBox(side=250.0)
        positions = rng.uniform(0, box.side, (n, 2))
        species = rng.integers(0, 2, n)
        state = ParticleState(positions=positions,
                              velocities=np.zeros((n, 2)), species=species)
        compute_forces(state, box)
        outer = state._work.outer
        oi, oj = outer[:2]
        paired = set(zip(np.minimum(oi, oj).tolist(), np.maximum(oi, oj).tolist()))
        # particle 0 jumps next to a particle the outer list does not pair it
        # with, or moves past SKIN/2 but stays within the outer list's reach
        partner = next(k for k in range(1, n) if (0, k) not in paired)
        shift = [0.6 * LJ_CUTOFF, 0.0] if far else [0.0, 0.75 * SKIN]
        target = md._wrap(positions[partner if far else 0] + shift, box.side)
        reach = (OUTER_RANGE - LJ_CUTOFF - SKIN) / 2.0
        assert (np.linalg.norm(minimum_image(target - positions[0], box.side)) > reach) == far
        state.positions[0] = target
        seen = check_rebuilds(monkeypatch)
        forces, potential = compute_forces(state, box)
        assert seen["rebuilds"] == 1 and seen["outer"] == far
        assert (state._work.outer is not outer) == far
        ref_forces, ref_potential = brute_reference_forces(
            state.positions, species, box.side)
        assert np.max(np.abs(forces - ref_forces)) < 1e-10
        assert potential == pytest.approx(ref_potential, abs=1e-10)

    @pytest.mark.parametrize("move, searched", [(22.8, True), (22.4, False)])
    def test_pair_closing_in_from_beyond_the_outer_range(self, monkeypatch, move,
                                                         searched):
        # 70.5 A apart at the outer search, so not in the outer list; each
        # moves toward the other.  Past the reach of (70 - 25) / 2 = 22.5 A
        # they are in range (24.9 A) and the outer list is searched again;
        # within it they are not (25.7 A) and it is kept.
        box = SimBox(side=400.0)
        state = ParticleState(
            positions=np.array([[100.0, 200.0], [170.5, 200.0], [300.0, 330.0]]),
            velocities=np.zeros((3, 2)), species=np.ones(3, dtype=np.int64))
        compute_forces(state, box)
        assert len(state._work.outer[0]) == 0
        state.positions = np.array([[100.0 + move, 200.0], [170.5 - move, 200.0],
                                    [300.0, 330.0]])
        seen = check_rebuilds(monkeypatch)
        compute_forces(state, box)
        assert seen["rebuilds"] == 1 and seen["outer"] == searched
        assert len(state.pair_list[0]) == searched

    def test_outer_list_of_another_box_is_rebuilt(self, monkeypatch):
        rng = np.random.default_rng(9)
        n = 120
        state = ParticleState(positions=rng.uniform(0.0, 240.0, (n, 2)),
                              velocities=np.zeros((n, 2)),
                              species=rng.integers(0, 2, n))
        compute_forces(state, SimBox(side=400.0))
        outer = state._work.outer
        state.pair_list = None
        seen = check_rebuilds(monkeypatch)
        # pairs across the periodic edge of the smaller box
        compute_forces(state, SimBox(side=250.0))
        assert seen["rebuilds"] == seen["outer"] == 1
        assert state._work.outer is not outer

    @pytest.mark.parametrize("side, bad", [
        (250.0, np.nan), (250.0, np.inf), (250.0, -1e-9), (250.0, np.nextafter(250.0, 300.0)),
        (70.0, None),     # 2 cells per axis at the list range, 1 at the outer
        (1.0e12, None),   # cells capped far wider than OUTER_RANGE
        (5.0e10, None),   # cells capped at the list range, not at the outer
    ])
    def test_other_inputs_prune_to_the_canonical_fresh_search(self, monkeypatch,
                                                              side, bad):
        rng = np.random.default_rng(3)
        n = 30 if side < 1e3 else 4
        positions = rng.uniform(0.0, min(side, 250.0), (n, 2))
        if n == 4:  # two pairs in range
            positions[1] = positions[0] + [7.0, 3.0]
            positions[3] = positions[2] + [-2.0, 12.0]
        if bad is not None:
            positions[5, 1] = bad
        state = ParticleState(positions=positions, velocities=np.zeros((n, 2)),
                              species=np.ones(n, dtype=np.int64))
        searched = []
        search = md._candidate_pairs

        def recording_search(pos, side, r_cut):
            searched.append(r_cut)
            return search(pos, side, r_cut)

        monkeypatch.setattr(md, "_candidate_pairs", recording_search)
        with np.errstate(invalid="ignore"):
            ii, jj, built = md._rebuild_pair_list(state, SimBox(side=side),
                                                  md._work(state))
            fresh = search(positions, side, LJ_CUTOFF + SKIN)
        assert searched == [OUTER_RANGE]  # pruned from the outer search alone
        assert np.array_equal(ii, fresh[0]) and np.array_equal(jj, fresh[1])
        assert np.array_equal(built, positions, equal_nan=True)
        if n == 4:
            assert len(ii) == 2


def two_body_bound_state(v_tangential=2e-4):
    """Ar-Ar pair at the potential minimum with slow opposite tangential
    velocities: a gently perturbed bound orbit."""
    p = pair_params(Species.AR, Species.AR)
    r_min = 2.0 ** (1.0 / 6.0) * p.sigma
    c = 100.0
    return ParticleState(
        positions=np.array([[c - r_min / 2, c], [c + r_min / 2, c]]),
        velocities=np.array([[0.0, v_tangential], [0.0, -v_tangential]]),
        species=np.array([1, 1]),
    )


class TestVerletStep:
    def test_free_flight_is_exact_linear_drift(self):
        cfg = MDConfig(n_he=2, n_ar=0, dt=5.0, seed=0)
        box = SimBox(side=1.0e4)
        v = np.array([[0.01, -0.02], [-0.005, 0.015]])
        state = ParticleState(
            positions=np.array([[100.0, 100.0], [5000.0, 7000.0]]),
            velocities=v.copy(),
            species=np.array([0, 0]),
        )
        forces, _ = compute_forces(state, box)
        x0 = state.positions.copy()
        n = 200
        for _ in range(n):
            state, forces, _ = verlet_step(state, forces, cfg, box)
        unwrapped = x0 + minimum_image(state.positions - x0, box.side)
        assert np.allclose(unwrapped, x0 + n * cfg.dt * v, rtol=1e-12, atol=1e-9)
        assert np.allclose(state.velocities, v, rtol=0, atol=0)

    def test_two_body_energy_drift(self):
        cfg = MDConfig(n_he=0, n_ar=2, dt=5.0, seed=0)
        box = SimBox(side=200.0)
        state = two_body_bound_state()
        forces, potential = compute_forces(state, box)
        e0 = kinetic_energy(state) + potential
        for _ in range(10000):
            state, forces, potential = verlet_step(state, forces, cfg, box)
        e1 = kinetic_energy(state) + potential
        assert abs(e1 - e0) / abs(e0) <= 1e-5

    def test_time_reversal_returns_positions(self):
        cfg = MDConfig(n_he=25, n_ar=25, dt=5.0, seed=21)
        box = SimBox(side=300.0)
        state = init_state(cfg, box)
        start = state.positions.copy()
        forces, _ = compute_forces(state, box)
        n = 100
        for _ in range(n):
            state, forces, _ = verlet_step(state, forces, cfg, box)
        state.velocities = -state.velocities
        for _ in range(n):
            state, forces, _ = verlet_step(state, forces, cfg, box)
        assert np.max(np.abs(minimum_image(state.positions - start, box.side))) < 1e-8

    def test_instability_aborts_with_diagnostic(self):
        cfg = MDConfig(n_he=0, n_ar=2, dt=100.0, seed=0)
        box = SimBox(side=200.0)
        state = ParticleState(
            positions=np.array([[100.0, 100.0], [102.0, 100.0]]),
            velocities=np.zeros((2, 2)),
            species=np.array([1, 1]),
        )
        forces, _ = compute_forces(state, box)
        with pytest.raises(InstabilityError):
            for _ in range(50):
                state, forces, _ = verlet_step(state, forces, cfg, box)

    def test_nan_velocity_aborts(self):
        cfg = MDConfig(n_he=0, n_ar=2, dt=5.0, seed=0)
        box = SimBox(side=200.0)
        state = ParticleState(
            positions=np.array([[100.0, 100.0], [110.0, 100.0]]),
            velocities=np.array([[np.nan, 0.0], [0.0, 0.0]]),
            species=np.array([1, 1]),
        )
        forces, _ = compute_forces(state, box)
        with pytest.raises(InstabilityError, match="particle 0"):
            verlet_step(state, forces, cfg, box)


def stale_by_norm(positions, built, side):
    """The full-array stale test: max(x^2 + y^2) of the minimum-image
    displacement components against (SKIN/2)^2; a NaN maximum keeps the
    list."""
    d = np.abs(positions - built)
    d = np.minimum(d, side - d)
    d *= d
    return bool((d[:, 0] + d[:, 1]).max(initial=0.0) > (0.5 * SKIN) ** 2)


def is_stale(positions, built, side):
    n = len(built)
    state = ParticleState(positions=positions, velocities=np.zeros((n, 2)),
                          species=np.zeros(n, dtype=np.int64),
                          pair_list=(np.zeros(0, dtype=np.int64),
                                     np.zeros(0, dtype=np.int64), built, None))
    return not md._pair_list_current(state, SimBox(side=side), md._work(state))


def full_kick_step(state, forces, cfg, box):
    """Velocity Verlet on copies with both half kicks over every component."""
    scale = np.take(md._ACCEL_SCALE, state.species, axis=0)
    v = forces * scale
    v *= 0.5 * cfg.dt
    v += state.velocities
    x = cfg.dt * v
    x += state.positions
    new = ParticleState(positions=md._wrap(x, box.side), velocities=v,
                        species=state.species, time=state.time + cfg.dt,
                        pair_list=state.pair_list)
    new_forces, potential = compute_forces(new, box)
    kick = new_forces * scale
    kick *= 0.5 * cfg.dt
    v += kick
    return new, new_forces, potential


def free_particles(velocities):
    """Argon atoms 100 A apart, so no pair is ever listed."""
    n = len(velocities)
    positions = np.stack([100.0 + 100.0 * np.arange(n), np.full(n, 500.0)], axis=1)
    return ParticleState(positions=positions,
                         velocities=np.asarray(velocities, dtype=float).reshape(n, 2),
                         species=np.ones(n, dtype=np.int64))


class TestInPlaceStep:
    def test_returns_the_same_state_and_arrays(self):
        cfg = MDConfig(n_he=40, n_ar=40, seed=2)
        box = SimBox(side=600.0)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        positions, velocities = state.positions, state.velocities
        for _ in range(5):
            out, forces, _ = verlet_step(state, forces, cfg, box)
            assert out is state
        assert state.positions is positions and state.velocities is velocities
        assert state.time == 5 * cfg.dt

    def test_unowned_arrays_are_replaced_not_written(self):
        cfg = MDConfig(n_he=0, n_ar=2, seed=0)
        box = SimBox(side=1000.0)
        positions = np.array([[100.0, 100.0], [300.0, 300.0]])
        positions.flags.writeable = False
        velocities = np.asfortranarray([[0.01, 0.0], [0.0, 0.02]])
        state = ParticleState(positions=positions, velocities=velocities,
                              species=np.array([1, 1]))
        forces, _ = compute_forces(state, box)
        verlet_step(state, forces, cfg, box)
        assert positions.tolist() == [[100.0, 100.0], [300.0, 300.0]]
        assert state.positions is not positions and state.velocities is not velocities
        assert state.velocities.flags.c_contiguous
        assert np.allclose(state.positions, [[100.05, 100.0], [300.0, 300.1]])
        assert state.velocities.tolist() == velocities.tolist()

    def test_searched_positions_never_change(self, monkeypatch):
        # the build snapshots of the pair lists and of the outer lists
        given_to_search = []
        search, rebuild = md._candidate_pairs, md._rebuild_pair_list

        def recording_search(pos, side, r_cut):
            given_to_search.append((pos, pos.copy()))
            return search(pos, side, r_cut)

        def recording_rebuild(*args):
            pair_list = rebuild(*args)
            given_to_search.append((pair_list[2], pair_list[2].copy()))
            return pair_list

        cfg = MDConfig(n_he=100, n_ar=50, temperature=2000.0, seed=17)
        box = SimBox(side=300.0)
        state = init_state(cfg, box)
        # init_state hands over the array its last search was given
        given_to_search.append((state.pair_list[2], state.pair_list[2].copy()))
        monkeypatch.setattr(md, "_candidate_pairs", recording_search)
        monkeypatch.setattr(md, "_rebuild_pair_list", recording_rebuild)
        forces, _ = compute_forces(state, box)
        for _ in range(40):
            state, forces, _ = verlet_step(state, forces, cfg, box)
        assert len(given_to_search) >= 3
        for pos, snapshot in given_to_search:
            assert pos is not state.positions
            assert np.array_equal(pos, snapshot)
        assert state.pair_list[2] is given_to_search[-1][0]
        assert any(state._work.outer[2] is pos for pos, _ in given_to_search)

    def test_species_is_frozen_by_the_first_force_call(self):
        state = free_particles([[0.0, 0.0], [0.0, 0.0]])
        compute_forces(state, SimBox(side=1000.0))
        with pytest.raises(ValueError):
            state.species[0] = Species.HE

    def test_a_new_species_array_is_used(self):
        box = SimBox(side=100.0)
        state = ParticleState(positions=np.array([[40.0, 50.0], [44.0, 50.0]]),
                              velocities=np.zeros((2, 2)), species=np.array([0, 1]))
        compute_forces(state, box)
        state.species = np.array([1, 1])
        forces, potential = compute_forces(state, box)
        ref_forces, ref_potential = brute_reference_forces(state.positions,
                                                           state.species, box.side)
        assert np.allclose(forces, ref_forces, rtol=1e-12, atol=0.0)
        assert potential == pytest.approx(ref_potential, rel=1e-12)
        # the step kicks both particles, the former helium atom too, as argon
        cfg = MDConfig(n_he=0, n_ar=2, seed=0)
        given = np.array([[0.5, -0.25], [2.0, 1.0]])
        _, new_forces, _ = verlet_step(state, given, cfg, box)
        ar_scale = KCAL_PER_MOL_TO_MD / md.MASS_G_MOL[Species.AR]
        half_dt = 0.5 * cfg.dt
        expected = given * ar_scale * half_dt + new_forces * ar_scale * half_dt
        assert state.velocities.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("side, n_he, n_ar, temperature, seed", [
        (300.0, 100, 50, 2000.0, 17),   # hot and crowded: many searches
        (5000.0, 500, 500, 300.0, 1),   # desk density
    ])
    def test_sparse_second_kick_equals_the_full_kick(self, side, n_he, n_ar,
                                                     temperature, seed):
        cfg = MDConfig(n_he=n_he, n_ar=n_ar, temperature=temperature, seed=seed)
        box = SimBox(side=side)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        ref, ref_forces = state, forces
        state = ParticleState(positions=ref.positions.copy(),
                              velocities=ref.velocities.copy(),
                              species=ref.species, pair_list=ref.pair_list)
        for _ in range(60):
            state, forces, potential = verlet_step(state, forces, cfg, box)
            ref, ref_forces, ref_potential = full_kick_step(ref, ref_forces, cfg, box)
            assert state.velocities.tobytes() == ref.velocities.tobytes()
            assert state.positions.tobytes() == ref.positions.tobytes()
            assert forces.tobytes() == ref_forces.tobytes()
            assert potential == ref_potential

    def test_empty_pair_list_gives_float64_forces(self):
        for n in (0, 2):
            state = free_particles(np.zeros((n, 2)))
            forces, potential = compute_forces(state, SimBox(side=1000.0))
            assert len(state.pair_list[0]) == 0
            assert forces.dtype == np.float64 and forces.shape == (n, 2)
            assert not np.any(forces) and potential == 0.0


class TestStaleCheck:
    half = 0.5 * SKIN

    @pytest.mark.parametrize("delta", [
        (half, 0.0), (0.0, -half), (1.5, 2.0), (-2.0, 1.5),   # norm exactly SKIN/2
        (np.nextafter(half, 3.0), 0.0), (0.0, np.nextafter(-half, -3.0)),
        (half / np.sqrt(2.0), half / np.sqrt(2.0)),           # the component threshold
        (np.nextafter(half / np.sqrt(2.0), 3.0), np.nextafter(half / np.sqrt(2.0), 3.0)),
        (half / np.sqrt(2.0) * (1.0 - 1e-9), half / np.sqrt(2.0) * (1.0 - 1e-9)),
        (1.76776695, 1.76776696), (1.7677669529663687, 1.7677669529663689),
        (1.0, 0.0), (0.0, 0.0),
    ])
    @pytest.mark.parametrize("wrapped", [False, True])
    def test_edge_displacements_decide_as_the_norm(self, delta, wrapped):
        side = 100.0
        rng = np.random.default_rng(3)
        built = rng.uniform(10.0, 90.0, (50, 2))
        built[7] = [0.5, 99.5] if wrapped else [50.0, 50.0]
        positions = built + rng.uniform(-0.1, 0.1, built.shape)
        positions[7] = md._wrap(built[7] + np.array(delta), side)
        assert is_stale(positions, built, side) == stale_by_norm(positions, built, side)

    def test_random_displacements_decide_as_the_norm(self):
        rng = np.random.default_rng(11)
        side = 250.0
        for trial in range(400):
            n = int(rng.integers(0, 30))
            built = rng.uniform(0.0, side, (n, 2))
            step = rng.normal(0.0, rng.choice([0.3, 1.0, 1.8, 3.0]), (n, 2))
            positions = md._wrap(built + step, side)
            if n and trial % 4 == 0:  # some norms right at the limit
                k = int(rng.integers(n))
                angle = rng.uniform(0.0, 2.0 * np.pi)
                positions[k] = md._wrap(
                    built[k] + self.half * np.array([np.cos(angle), np.sin(angle)]), side)
            assert is_stale(positions, built, side) == stale_by_norm(positions, built, side)

    @pytest.mark.parametrize("far", [False, True])
    def test_nan_keeps_the_list_as_the_norm_does(self, far):
        side = 100.0
        built = np.array([[10.0, 10.0], [50.0, 50.0], [80.0, 20.0]])
        positions = built.copy()
        positions[0, 1] = np.nan
        if far:  # a row past SKIN/2 does not outweigh a NaN maximum
            positions[1] += [3.0, 3.0]
        assert is_stale(positions, built, side) == stale_by_norm(positions, built, side)
        positions[2, 0] = np.nan  # a NaN row with the other component far off
        positions[2, 1] += 4.0
        assert is_stale(positions, built, side) == stale_by_norm(positions, built, side)

    def test_infinite_position_is_stale(self):
        built = np.array([[10.0, 10.0], [50.0, 50.0]])
        positions = built.copy()
        positions[1, 0] = np.inf
        assert is_stale(positions, built, 100.0) and stale_by_norm(positions, built, 100.0)


class TestSpeedCheck:
    limit = md.VELOCITY_LIMIT

    @staticmethod
    def exact_verdict(v):
        """The per-particle test: the particle that fails, or None."""
        v = np.asarray(v, dtype=float).reshape(-1, 2)
        speed2 = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
        if speed2.max(initial=0.0) <= md.VELOCITY_LIMIT**2:
            return None
        return int(np.argmax(speed2))

    def step_verdict(self, v):
        state = free_particles(v)
        cfg = MDConfig(n_he=0, n_ar=len(state.species), dt=0.5, seed=0)
        try:  # an infinite speed makes NaN positions, which numpy warns about
            with np.errstate(invalid="ignore"):
                verlet_step(state, np.zeros_like(state.velocities), cfg, SimBox(side=5.0e4))
        except InstabilityError as err:
            return int(str(err).split()[1])
        return None

    @pytest.mark.parametrize("v", [
        [], [[0.0, 0.0]], [[1.0, 0.0]], [[0.0, -1.0]], [[0.6, 0.8]], [[-0.8, 0.6]],
        [[np.nextafter(1.0, 2.0), 0.0]], [[0.0, 0.0], [0.0, np.nextafter(-1.0, -2.0)]],
        [[2**-0.5, 2**-0.5]], [[np.nextafter(2**-0.5, 1.0), np.nextafter(2**-0.5, 1.0)]],
        [[0.70710678, 0.70710679]], [[0.1, 0.2], [0.75, 0.0], [0.0, -0.99]],
        [[0.1, 0.2], [np.nan, 0.0], [0.0, 0.3]], [[0.1, np.inf], [0.0, 0.5]],
        [[0.5, 0.5], [-np.inf, 0.0]], [[1.2, 0.0], [0.0, 1.5], [0.0, -1.5]],
    ])
    def test_verdict_and_particle_match_the_exact_check(self, v):
        assert self.step_verdict(v) == self.exact_verdict(v)

    def test_random_velocities_match_the_exact_check(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            v = rng.normal(0.0, rng.choice([0.2, 0.5, 0.8]), (int(rng.integers(1, 8)), 2))
            assert self.step_verdict(v) == self.exact_verdict(v)


def record_steps(monkeypatch):
    """Per verlet_step: whether it took the hand-back path, and how many pair
    list rebuilds, outer-list searches and exact stale checks it ran."""
    steps = []
    handed_back, rebuild, check, search = (md._handed_back, md._rebuild_pair_list,
                                           md._pair_list_current, md._candidate_pairs)

    def recording_handed_back(*args):
        trusted = handed_back(*args)
        steps.append({"trusted": trusted, "rebuilds": 0, "searches": 0, "checks": 0})
        return trusted

    def counting_rebuild(*args):
        if steps:
            steps[-1]["rebuilds"] += 1
        return rebuild(*args)

    def counting_check(*args):
        if steps:
            steps[-1]["checks"] += 1
        return check(*args)

    def counting_search(*args):  # inside a step, only the outer list is searched
        if steps:
            steps[-1]["searches"] += 1
        return search(*args)

    monkeypatch.setattr(md, "_handed_back", recording_handed_back)
    monkeypatch.setattr(md, "_rebuild_pair_list", counting_rebuild)
    monkeypatch.setattr(md, "_pair_list_current", counting_check)
    monkeypatch.setattr(md, "_candidate_pairs", counting_search)
    return steps


def work_counts(state):
    """The pair-list rebuilds, outer searches and exact stale checks the
    state's scratch has counted."""
    w = md._work(state)
    return {"rebuilds": w.rebuilds, "searches": w.searches, "checks": w.exact_checks}


def recorded_counts(steps):
    return {key: sum(s[key] for s in steps) for key in ("rebuilds", "searches", "checks")}


def taken_over_step(state, forces, cfg, box):
    """verlet_step given fresh copies of every array, so it never trusts a
    hand-back and takes every step's input over (md._take_over)."""
    state.positions = state.positions.copy()
    state.velocities = state.velocities.copy()
    return verlet_step(state, forces.copy(), cfg, box)


def copied_state(state):
    return ParticleState(positions=state.positions.copy(),
                         velocities=state.velocities.copy(), species=state.species,
                         time=state.time, pair_list=state.pair_list)


def max_displacement_since_build(state, box):
    d = minimum_image(state.positions - state.pair_list[2], box.side)
    return float(np.sqrt(np.einsum("ij,ij->i", d, d)).max(initial=0.0))


class TestHandBack:
    @pytest.mark.parametrize("side, n_he, n_ar, temperature, seed", [
        (300.0, 100, 50, 2000.0, 17),    # hot and crowded: many searches
        (5000.0, 500, 500, 300.0, 1),    # desk density
        (5.0e4, 30000, 30000, 300.0, 1),  # paper density: 8 % of components listed
    ])
    def test_handed_back_run_equals_the_taken_over_run(self, monkeypatch, side, n_he,
                                                  n_ar, temperature, seed):
        cfg = MDConfig(n_he=n_he, n_ar=n_ar, temperature=temperature, seed=seed)
        box = SimBox(side=side)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        ref, ref_forces = copied_state(state), forces.copy()
        counted = work_counts(state)
        steps = record_steps(monkeypatch)
        outer_checks = {"handed": 0, "full": 0}
        moved_within = md._moved_within

        def counting_outer_check(positions, built, side, limit, buf):
            outer_checks[run] += limit > SKIN  # against the outer list's build
            return moved_within(positions, built, side, limit, buf)

        monkeypatch.setattr(md, "_moved_within", counting_outer_check)
        handed, full = [], []
        for _ in range(150):
            run = "handed"
            state, forces, potential = verlet_step(state, forces, cfg, box)
            handed.append(steps[-1])
            run = "full"
            ref, ref_forces, ref_potential = taken_over_step(ref, ref_forces, cfg, box)
            full.append(steps[-1])
            assert state.positions.tobytes() == ref.positions.tobytes()
            assert state.velocities.tobytes() == ref.velocities.tobytes()
            assert forces.tobytes() == ref_forces.tobytes()
            assert potential == ref_potential
        assert [s["rebuilds"] for s in handed] == [s["rebuilds"] for s in full]
        assert sum(s["rebuilds"] for s in handed) >= 2
        # the outer list is searched on the same steps, without the exact
        # check against it where the summed bound shows it valid
        assert [s["searches"] for s in handed] == [s["searches"] for s in full]
        assert sum(s["searches"] for s in handed) >= 1
        assert outer_checks["handed"] < outer_checks["full"]
        # the scratch counters count what the recorder counts
        counts = recorded_counts(handed)
        assert work_counts(state) == {k: counted[k] + counts[k] for k in counts}
        assert work_counts(ref) == recorded_counts(full)
        assert not any(s["trusted"] for s in full)
        assert all(s["trusted"] for s in handed[1:])
        # the bound spares most exact checks; a taken-over step runs one
        assert sum(s["checks"] for s in full) == 150
        assert sum(s["checks"] for s in handed) < 150

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("high", [False, True])
    def test_edge_crossing_on_a_plain_handed_back_step(self, monkeypatch, axis, high):
        # Particle 0 drifts 0.1 A a step toward an edge, listed with particle
        # 1 across it; particles 2 and 3 are a listed pair mid-box.  The first
        # search of the run, once particle 0 has moved SKIN/2, puts it in the
        # border set, and a few plain steps later it crosses the edge.
        cfg = MDConfig(n_he=0, n_ar=4, seed=0)
        side = 400.0
        box = SimBox(side=side)
        positions = np.array([[3.05, 200.0], [side - 6.0, 200.0],
                              [200.0, 100.0], [209.0, 100.0]])
        velocities = np.zeros((4, 2))
        velocities[0, 0] = -0.02
        if high:
            positions[:2, 0] = side - positions[:2, 0]
            velocities[0, 0] = 0.02
        state = ParticleState(positions=positions[:, ::-1].copy() if axis else positions,
                              velocities=velocities[:, ::-1].copy() if axis else velocities,
                              species=np.ones(4, dtype=np.int64))
        forces, _ = compute_forces(state, box)
        ref, ref_forces = copied_state(state), forces.copy()
        steps = record_steps(monkeypatch)
        crossed = []
        for _ in range(40):
            before = state.positions[0, axis]
            state, forces, potential = verlet_step(state, forces, cfg, box)
            if abs(state.positions[0, axis] - before) > side / 2:
                crossed.append(steps[-1])
            ref, ref_forces, ref_potential = taken_over_step(ref, ref_forces, cfg, box)
            assert state.positions.tobytes() == ref.positions.tobytes()
            assert state.velocities.tobytes() == ref.velocities.tobytes()
            assert forces.tobytes() == ref_forces.tobytes()
            assert potential == ref_potential
        assert crossed == [{"trusted": True, "rebuilds": 0, "searches": 0, "checks": 0}]
        assert md._work(state).border.tolist() == [axis]
        assert 0 <= state.positions[0, axis] < side

    def test_handed_back_forces_are_the_forces_of_the_state(self):
        # a crowded run with inner rebuilds and outer searches: from the second
        # step on, the forces array is the one the step was given, overwritten;
        # it holds the forces of the state's positions, and +0.0 on every
        # component off the list, those that just left it among them
        cfg = MDConfig(n_he=100, n_ar=50, temperature=2000.0, seed=17)
        box = SimBox(side=300.0)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        rebuilds = searches = left = 0
        for step in range(150):
            given, pair_list, outer = forces, state.pair_list, state._work.outer
            listed = state._work.terms.active
            state, forces, potential = verlet_step(state, forces, cfg, box)
            assert (forces is given) == (step > 0)
            ref_forces, ref_potential = compute_forces(copied_state(state), box)
            assert forces.tobytes() == ref_forces.tobytes()
            assert potential == ref_potential
            off = np.ones(forces.size, dtype=bool)
            off[state._work.terms.active] = False
            assert not np.any(forces.reshape(-1)[off])
            assert not np.any(np.signbit(forces.reshape(-1)[off]))
            left += int(np.count_nonzero(off[listed]))
            rebuilds += state.pair_list is not pair_list
            searches += state._work.outer is not outer
        assert rebuilds >= 2 and searches >= 1 and left > 0

    def test_forces_on_components_that_leave_the_list_turn_zero(self):
        # In a run, a pair leaves the list at 25 A, long after its force went
        # to zero at the cutoff.  Here two argon atoms fly apart 7 A a step:
        # the first step ends at 19 A, inside the cutoff, and the next, a
        # handed-back step, at 26 A, so its search drops a pair whose forces
        # in the array it overwrites are not zero.
        cfg = MDConfig(n_he=0, n_ar=3, dt=10.0, seed=0)
        box = SimBox(side=400.0)
        state = ParticleState(
            positions=np.array([[100.0, 100.0], [112.0, 100.0], [300.0, 300.0]]),
            velocities=np.array([[-0.35, 0.0], [0.35, 0.0], [0.0, 0.0]]),
            species=np.array([1, 1, 1]))
        forces, _ = compute_forces(state, box)
        state, forces, _ = verlet_step(state, forces, cfg, box)
        assert state._work.terms.active.tolist() == [0, 1, 2, 3] and forces[0, 0] != 0.0
        given = forces
        state, forces, _ = verlet_step(state, forces, cfg, box)
        assert forces is given and len(state._work.terms.active) == 0
        assert forces.tobytes() == np.zeros((3, 2)).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_covers_the_displacement(self, seed):
        rng = np.random.default_rng(seed)
        side = float(rng.uniform(60.0, 200.0))
        n = int(rng.integers(10, 40))
        cfg = MDConfig(n_he=n // 2, n_ar=n - n // 2, dt=2.0, seed=seed,
                       temperature=float(rng.choice([3000.0, 20000.0])))
        box = SimBox(side=side)
        state = init_state(cfg, box)
        # shift the box so the fastest particle in +x is about to wrap
        k = int(np.argmax(state.velocities[:, 0]))
        state.positions = md._wrap(state.positions + [side - 0.01 - state.positions[k, 0],
                                                      0.0], side)
        state.pair_list = None
        forces, _ = compute_forces(state, box)
        wrapped = bounded = 0
        for _ in range(300):
            before = state.positions.copy()
            state, forces, _ = verlet_step(state, forces, cfg, box)
            wrapped += int(np.any(np.abs(state.positions - before) > side / 2))
            bound = state._work.moved
            bounded += bound < np.inf
            assert bound >= max_displacement_since_build(state, box)
        assert wrapped > 0 and bounded > 150

    def test_bound_after_reassigned_velocities(self):
        # an unlisted particle made fast between steps: the bound taken at the
        # last search no longer covers it
        cfg = MDConfig(n_he=30, n_ar=30, seed=4)
        box = SimBox(side=1000.0)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        for _ in range(30):
            state, forces, _ = verlet_step(state, forces, cfg, box)
        listed = np.union1d(*state.pair_list[:2])
        k = next(i for i in range(state.n_particles) if i not in listed)
        velocities = state.velocities.copy()
        velocities[k] = [0.0, 0.3]  # 1.5 A a step: no search at once
        state.velocities = velocities
        for _ in range(20):
            state, forces, _ = verlet_step(state, forces, cfg, box)
            assert state._work.moved >= max_displacement_since_build(state, box)

    def test_blow_up_inside_a_handed_back_step_names_the_same_particle(
            self, monkeypatch):
        # two argon atoms close head-on; with dt = 10 fs a step drifts them
        # into the core without a search, and the kick there blows up
        cfg = MDConfig(n_he=0, n_ar=3, dt=10.0, seed=0)
        box = SimBox(side=400.0)
        state = ParticleState(
            positions=np.array([[100.0, 100.0], [141.0, 100.0], [300.0, 300.0]]),
            velocities=np.array([[0.08, 0.0], [-0.08, 0.0], [0.0, 0.0]]),
            species=np.array([1, 1, 1]))
        forces, _ = compute_forces(state, box)
        ref, ref_forces = copied_state(state), forces.copy()
        steps = record_steps(monkeypatch)
        with pytest.raises(InstabilityError) as handed:
            for _ in range(100):
                state, forces, _ = verlet_step(state, forces, cfg, box)
        assert steps[-1] == {"trusted": True, "rebuilds": 0, "searches": 0, "checks": 0}
        with pytest.raises(InstabilityError) as full:
            for _ in range(100):
                ref, ref_forces, _ = taken_over_step(ref, ref_forces, cfg, box)
        assert str(handed.value) == str(full.value)
        assert str(handed.value).startswith("particle 0 reached")
        # the failed step leaves the arrays writable and is not handed back
        assert state.velocities.flags.writeable and state._work.handed is None

    def test_reassigned_velocities_over_the_limit_raise(self):
        cfg = MDConfig(n_he=40, n_ar=40, seed=3)
        box = SimBox(side=600.0)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        for _ in range(10):
            state, forces, _ = verlet_step(state, forces, cfg, box)
        velocities = state.velocities.copy()
        velocities[57] = [0.3, -1.2]
        state.velocities = velocities
        ref = copied_state(state)
        with pytest.raises(InstabilityError) as handed:
            verlet_step(state, forces, cfg, box)
        with pytest.raises(InstabilityError) as full:
            verlet_step(ref, forces.copy(), cfg, box)
        assert str(handed.value) == str(full.value)
        assert str(handed.value).startswith("particle 57 reached")

    @staticmethod
    def run_until_the_bound_spares_a_check(monkeypatch):
        """A crowded state just after a handed-back step that skipped the
        exact stale check, and the step recorder."""
        cfg = MDConfig(n_he=100, n_ar=50, seed=12)
        box = SimBox(side=300.0)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        steps = record_steps(monkeypatch)
        for _ in range(200):
            state, forces, _ = verlet_step(state, forces, cfg, box)
            if steps[-1] == {"trusted": True, "rebuilds": 0, "searches": 0, "checks": 0}:
                return cfg, box, state, forces, steps
        raise AssertionError("the bound never spared an exact check")

    @staticmethod
    def jump_next_to_an_unlisted_particle(state, box):
        """Move particle 0, in place, to 0.6 cutoffs from a particle it is
        not listed with, in a spot with no other particle within 4 A."""
        ii, jj = state.pair_list[:2]
        listed = set(zip(np.minimum(ii, jj).tolist(), np.maximum(ii, jj).tolist()))
        for partner in range(1, state.n_particles):
            if (0, partner) in listed:
                continue
            target = md._wrap(state.positions[partner] + [0.6 * LJ_CUTOFF, 0.0],
                              box.side)
            d = minimum_image(state.positions[1:] - target, box.side)
            if np.sqrt(np.einsum("ij,ij->i", d, d)).min() > 4.0:
                break
        assert np.linalg.norm(minimum_image(target - state.positions[0], box.side)) > SKIN / 2
        state.positions.flags.writeable = True
        state.positions[0] = target

    def test_writable_positions_moved_past_half_skin_rebuild(self, monkeypatch):
        cfg, box, state, forces, steps = self.run_until_the_bound_spares_a_check(
            monkeypatch)
        self.jump_next_to_an_unlisted_particle(state, box)
        del steps[:]
        state, forces, potential = verlet_step(state, forces, cfg, box)
        # the jump (70 A) is past the outer reach too
        assert steps == [{"trusted": False, "rebuilds": 1, "searches": 1, "checks": 1}]
        ref_forces, ref_potential = brute_reference_forces(
            state.positions, state.species, box.side)
        assert np.max(np.abs(forces - ref_forces)) <= 1e-10
        assert potential == pytest.approx(ref_potential, abs=1e-10)

    def test_forces_after_an_edit_between_steps(self, monkeypatch):
        # the step that skipped the stale check leaves no hint behind
        _, box, state, _, _ = self.run_until_the_bound_spares_a_check(monkeypatch)
        self.jump_next_to_an_unlisted_particle(state, box)
        forces, potential = compute_forces(state, box)
        ref_forces, ref_potential = brute_reference_forces(
            state.positions, state.species, box.side)
        assert np.max(np.abs(forces - ref_forces)) <= 1e-10
        assert potential == pytest.approx(ref_potential, abs=1e-10)

    def test_speed_check_covers_particles_a_search_unlists(self):
        # Particle 0 is listed with particle 1.  A first half kick of 5 A/fs
        # (set by hand: a run reaches it only past the speed limit) flies it
        # out of range, so the search drops it from the list; the step must
        # still check its speed.
        cfg = MDConfig(n_he=0, n_ar=3, dt=10.0, seed=0)
        box = SimBox(side=400.0)
        state = ParticleState(
            positions=np.array([[100.0, 100.0], [110.0, 100.0], [300.0, 300.0]]),
            velocities=np.zeros((3, 2)), species=np.array([1, 1, 1]))
        forces, _ = compute_forces(state, box)
        for _ in range(3):
            state, forces, _ = verlet_step(state, forces, cfg, box)
        assert state._work.terms.active[:2].tolist() == [0, 1]
        state._work.kick[0] = -5.0
        with pytest.raises(InstabilityError, match="particle 0 reached 5"):
            verlet_step(state, forces, cfg, box)
        assert 0 not in state._work.terms.active

    def test_handed_back_arrays_are_read_only(self):
        cfg = MDConfig(n_he=20, n_ar=20, seed=8)
        box = SimBox(side=500.0)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        state, forces, _ = verlet_step(state, forces, cfg, box)
        for array in (state.positions, state.velocities, forces):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
            with pytest.raises(ValueError):
                array += 0.0

    @pytest.mark.parametrize("change", ["forces", "list", "dt", "writable"])
    def test_any_other_input_is_taken_over(self, monkeypatch, change):
        cfg = MDConfig(n_he=40, n_ar=40, seed=6)
        box = SimBox(side=500.0)
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        for _ in range(3):
            state, forces, _ = verlet_step(state, forces, cfg, box)
        ref, ref_forces = copied_state(state), forces.copy()
        if change == "forces":  # read-only, but not the step's own
            forces = forces * 0.5
            forces.flags.writeable = False
            ref_forces = forces.copy()
        elif change == "list":
            state.pair_list = (*state.pair_list[:2], state.pair_list[2].copy())
            ref.pair_list = state.pair_list
        elif change == "dt":
            cfg = MDConfig(n_he=40, n_ar=40, seed=6, dt=4.0)
        else:
            state.velocities.flags.writeable = True
        steps = record_steps(monkeypatch)
        state, forces, _ = verlet_step(state, forces, cfg, box)
        assert not steps[0]["trusted"]
        ref, ref_forces, _ = taken_over_step(ref, ref_forces, cfg, box)
        assert state.positions.tobytes() == ref.positions.tobytes()
        assert state.velocities.tobytes() == ref.velocities.tobytes()
        state, forces, _ = verlet_step(state, forces, cfg, box)
        assert steps[2]["trusted"]

    def test_a_taken_over_step_keeps_minus_zero_off_the_kicked_components(self):
        # particles 0 and 1 are a listed pair; particle 2 is unlisted, so its
        # force is +0.0 and a kick by it would turn its -0.0 into +0.0
        cfg = MDConfig(n_he=0, n_ar=3, seed=0)
        box = SimBox(side=400.0)
        state = ParticleState(
            positions=np.array([[100.0, 100.0], [110.0, 100.0], [300.0, 300.0]]),
            velocities=np.array([[0.0, 0.0], [0.0, 0.0], [-0.0, 0.01]]),
            species=np.array([1, 1, 1]))
        forces, _ = compute_forces(state, box)
        assert 4 not in state._work.terms.active
        for _ in range(5):
            state, forces, _ = verlet_step(state, forces, cfg, box)
            assert np.signbit(state.velocities[2, 0])
            assert state.velocities[2].tolist() == [0.0, 0.01]

    def test_a_take_over_kicks_the_components_with_a_given_force(self):
        # forces on five x components only, so the kicked components are
        # not (x, y) pairs; the step reads them and writes new forces
        cfg = MDConfig(n_he=40, n_ar=40, seed=6)
        box = SimBox(side=500.0)
        state = init_state(cfg, box)
        given = np.zeros((80, 2))
        given[[3, 10, 41, 50, 77], 0] = [0.5, -1.0, 2.0, 0.25, -3.0]
        given.flags.writeable = False
        ref, ref_forces, ref_potential = full_kick_step(copied_state(state), given,
                                                        cfg, box)
        state, forces, potential = verlet_step(state, given, cfg, box)
        assert forces is not given and np.count_nonzero(given) == 5
        assert state.positions.tobytes() == ref.positions.tobytes()
        assert state.velocities.tobytes() == ref.velocities.tobytes()
        assert forces.tobytes() == ref_forces.tobytes()
        assert potential == ref_potential

    def test_a_run_rebuilt_from_a_sampled_frame_continues_bit_for_bit(self):
        # a sampled frame is a whole checkpoint: its positions, velocities
        # and time, with forces computed afresh, continue the desk run
        cfg = MDConfig(n_he=500, n_ar=500, seed=1, sample_stride=100)
        box = SimBox(side=5.0e3)
        frames = list(md.iter_frames(cfg, box, 1000))
        start = frames[4]
        state = ParticleState(positions=start.positions.copy(),
                              velocities=start.velocities.copy(),
                              species=start.species, time=start.time_fs,
                              pair_list=None)
        forces, _ = compute_forces(state, box)
        for frame in frames[5:]:
            for _ in range(cfg.sample_stride):
                state, forces, _ = verlet_step(state, forces, cfg, box)
            assert state.time == frame.time_fs
            assert state.positions.tobytes() == frame.positions.tobytes()
            assert state.velocities.tobytes() == frame.velocities.tobytes()


class TestRun:
    @pytest.mark.parametrize("n_he, n_ar", [(0, 0), (1, 0), (0, 1)])
    def test_zero_and_one_particle(self, n_he, n_ar):
        cfg = MDConfig(n_he=n_he, n_ar=n_ar, seed=5, sample_stride=5)
        traj = run(cfg, SimBox(side=1000.0), 20)
        assert traj.n_frames == 5
        assert traj.n_particles == n_he + n_ar
        for f in traj.frames:
            assert np.all(np.isfinite(f.positions)) and np.all(np.isfinite(f.velocities))
        if n_he + n_ar:
            drift = minimum_image(traj.frames[-1].positions - traj.frames[0].positions,
                                  1000.0)
            assert np.allclose(drift, 20 * cfg.dt * traj.frames[0].velocities,
                               rtol=1e-12, atol=1e-9)

    def test_desk_final_state_is_pinned(self):
        # SHA-256 of the final positions and velocities of the desk md-run
        # (500 He + 500 Ar, 5e3 A box, 2000 steps of 5 fs, seed 1).  Any
        # change to the pair order or the step arithmetic changes it.
        cfg = MDConfig(n_he=500, n_ar=500, seed=1, sample_stride=2000)
        last = run(cfg, SimBox(side=5.0e3), 2000).frames[-1]
        digest = hashlib.sha256(last.positions.tobytes() + last.velocities.tobytes())
        assert digest.hexdigest() == (
            "398e1332fb1d18e493f4fa40262da3136636b223a074c9c29bbcfaa005327880")

    def test_paper_density_state_is_pinned(self, monkeypatch):
        # SHA-256 of positions + velocities, the potential and the number of
        # pair list rebuilds after 300 steps at paper density (30k He + 30k
        # Ar, 5e4 A box, seed 1), recorded before steps could take the
        # hand-back path: it covers the listed-component kicks, the stale
        # bound and the lists pruned from the outer list.
        searches = []
        rebuild = md._rebuild_pair_list

        def counting(*args):
            searches.append(1)
            return rebuild(*args)

        cfg = MDConfig(n_he=30000, n_ar=30000, seed=1)
        box = SimBox(side=5.0e4)
        state = init_state(cfg, box)
        forces, potential = compute_forces(state, box)
        monkeypatch.setattr(md, "_rebuild_pair_list", counting)
        for _ in range(300):
            state, forces, potential = verlet_step(state, forces, cfg, box)
        digest = hashlib.sha256(state.positions.tobytes() + state.velocities.tobytes())
        assert digest.hexdigest() == (
            "7eb0c91102bbfa0dc4ebc9d87311b19130e6ad4f1ea3b50742ddaf2c1ec0ffef")
        assert repr(potential) == "-8.662576541246874"
        assert len(searches) == 21

    def test_zero_steps_single_frame(self):
        cfg = MDConfig(n_he=50, n_ar=50, seed=5, sample_stride=10)
        traj = run(cfg, SimBox(side=2000.0), 0)
        assert traj.n_frames == 1
        assert traj.frames[0].timestep == 0

    def test_argon_cloud_spreads(self):
        cfg = MDConfig(n_he=200, n_ar=200, seed=6, sample_stride=500)
        traj = run(cfg, SimBox(side=3000.0), 1000)
        first, last = traj.frames[0], traj.frames[-1]
        ar = first.species == Species.AR
        # variance of unwrapped displacement-corrected positions grows
        disp = unwrap_displacements(traj)[-1][ar]
        var0 = first.positions[ar].var(axis=0).sum()
        var1 = (first.positions[ar] + disp).var(axis=0).sum()
        assert var1 > var0

    def test_energy_recorded_and_drift_small(self):
        cfg = MDConfig(n_he=250, n_ar=250, seed=7, sample_stride=100)
        traj = run(cfg, SimBox(side=3500.0), 1000)
        energies = np.array([f.energy for f in traj.frames])
        assert np.all(np.isfinite(energies))
        assert np.max(np.abs(energies - energies[0])) <= 1e-3 * abs(energies[0])

    def test_frames_share_read_only_ids_and_species(self):
        cfg = MDConfig(n_he=20, n_ar=20, seed=4, sample_stride=5)
        traj = run(cfg, SimBox(side=1000.0), 20)
        first = traj.frames[0]
        for f in traj.frames[1:]:
            assert f.ids is first.ids and f.species is first.species
            assert f.positions is not first.positions
        assert not first.ids.flags.writeable and not first.species.flags.writeable
        assert first.ids.tolist() == list(range(1, 41))
        assert first.species.tolist() == [0] * 20 + [1] * 20

    def test_wrapped_unwrapped_differ_by_side_multiples(self):
        cfg = MDConfig(n_he=100, n_ar=0, temperature=300.0, seed=9, sample_stride=200)
        box = SimBox(side=150.0)  # small box so particles wrap quickly
        state = init_state(cfg, box)
        forces, _ = compute_forces(state, box)
        unwrapped = state.positions.copy()
        for _ in range(400):
            previous = state.positions.copy()  # the step moves it in place
            state, forces, _ = verlet_step(state, forces, cfg, box)
            unwrapped += minimum_image(state.positions - previous, box.side)
        ratio = (unwrapped - state.positions) / box.side
        assert np.max(np.abs(ratio - np.round(ratio))) < 1e-9
        assert np.max(np.abs(np.round(ratio))) >= 1  # something actually wrapped

    def test_determinism_same_seed_same_bytes(self, tmp_path):
        from gasdiff.trajectory_io import write_native

        cfg = MDConfig(n_he=60, n_ar=60, seed=123, sample_stride=50)
        box = SimBox(side=2000.0)
        paths = []
        for name in ("a.txt", "b.txt"):
            traj = run(cfg, box, 100)
            p = tmp_path / name
            write_native(traj, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


def msd_diffusion_estimate(traj, species, t_lo=None, t_hi=None, use_3d_factor=False):
    """MSDAccumulator fed every frame of an in-memory trajectory."""
    acc = md.MSDAccumulator(traj.box_side, species)
    for frame in traj.frames:
        acc.add(frame)
    return acc.estimate(t_lo, t_hi, use_3d_factor)


def synthetic_trajectory(frames, side=1e4):
    return Trajectory(box_side=side, frames=frames, units="real",
                      has_velocities=False)


class TestMSD:
    def test_frozen_particles_give_zero(self):
        n = 50
        pos = np.random.default_rng(0).uniform(0, 1e4, (n, 2))
        frames = [
            Frame(timestep=i, time_fs=1000.0 * i,
                  ids=np.arange(n), species=np.ones(n, dtype=np.int64),
                  positions=pos.copy(), velocities=np.zeros((n, 2)))
            for i in range(5)
        ]
        result = msd_diffusion_estimate(synthetic_trajectory(frames), Species.AR)
        assert result.diffusion == 0.0

    def test_brownian_oracle_recovered_within_5_percent(self):
        # random walk with per-axis step variance 2 D dt
        rng = np.random.default_rng(42)
        n, n_frames = 10000, 100
        d_true = 0.01     # A^2/fs
        dt = 1000.0       # fs
        side = 1.0e4
        steps = rng.normal(0.0, np.sqrt(2 * d_true * dt), (n_frames, n, 2))
        steps[0] = 0.0
        walk = np.cumsum(steps, axis=0) + rng.uniform(0, side, (1, n, 2))
        frames = [
            Frame(timestep=i, time_fs=i * dt, ids=np.arange(n),
                  species=np.ones(n, dtype=np.int64),
                  positions=np.mod(walk[i], side), velocities=np.zeros((n, 2)))
            for i in range(n_frames)
        ]
        result = msd_diffusion_estimate(synthetic_trajectory(frames, side), Species.AR)
        assert result.diffusion == pytest.approx(d_true, rel=0.05)
        assert result.r_squared > 0.99

    def test_ballistic_flagged_by_poor_r_squared(self):
        rng = np.random.default_rng(1)
        n, n_frames = 2000, 50
        v = rng.normal(0, 0.01, (n, 2))
        dt = 1000.0
        side = 1.0e6
        start = rng.uniform(0.4 * side, 0.6 * side, (n, 2))
        frames = [
            Frame(timestep=i, time_fs=i * dt, ids=np.arange(n),
                  species=np.ones(n, dtype=np.int64),
                  positions=np.mod(start + i * dt * v, side),
                  velocities=np.zeros((n, 2)))
            for i in range(n_frames)
        ]
        result = msd_diffusion_estimate(synthetic_trajectory(frames, side), Species.AR)
        assert result.r_squared < 0.99  # quadratic growth, linear fit misfits

    def test_3d_factor_flag(self):
        rng = np.random.default_rng(3)
        n = 500
        dt = 1000.0
        steps = rng.normal(0.0, 1.0, (20, n, 2))
        steps[0] = 0.0
        walk = np.cumsum(steps, axis=0) + 5000.0
        frames = [
            Frame(timestep=i, time_fs=i * dt, ids=np.arange(n),
                  species=np.ones(n, dtype=np.int64),
                  positions=np.mod(walk[i], 1e4), velocities=np.zeros((n, 2)))
            for i in range(20)
        ]
        traj = synthetic_trajectory(frames)
        d4 = msd_diffusion_estimate(traj, Species.AR)
        d6 = msd_diffusion_estimate(traj, Species.AR, use_3d_factor=True)
        assert d6.diffusion == pytest.approx(d4.diffusion * 4.0 / 6.0, rel=1e-12)

    def test_empty_window_rejected(self):
        frames = [
            Frame(timestep=i, time_fs=1000.0 * i, ids=np.arange(3),
                  species=np.ones(3, dtype=np.int64),
                  positions=np.zeros((3, 2)) + 10.0, velocities=np.zeros((3, 2)))
            for i in range(10)
        ]
        with pytest.raises(ValueError):
            msd_diffusion_estimate(synthetic_trajectory(frames), Species.AR,
                                   t_lo=1e6, t_hi=2e6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_streaming_msd_matches_the_unwrapped_oracle_bitwise(self, tmp_path, seed):
        from dataclasses import replace

        from gasdiff.pipeline import DESK
        from gasdiff.trajectory_io import iter_native, read_native, write_native

        # the desk preset's particles and box, shortened to 2000 steps
        cfg = replace(DESK.md_config(seed), sample_stride=100)
        path = tmp_path / "traj.txt"
        write_native(run(cfg, SimBox(side=DESK.box_side), 2000), path)
        traj = read_native(path)
        disp = unwrap_displacements(traj)
        mask = traj.frames[0].species == int(Species.AR)
        sq = np.einsum("fnd,fnd->fn", disp[:, mask, :], disp[:, mask, :])
        oracle = sq.mean(axis=1)

        acc = md.MSDAccumulator(traj.box_side, Species.AR)
        frames = iter_native(path)
        assert next(frames).box_side == traj.box_side
        for frame in frames:
            acc.add(frame)
        assert np.array(acc.msd).tobytes() == oracle.tobytes()
        assert acc.times == [f.time_fs for f in traj.frames]
        assert acc.estimate().n_frames == 21
        assert acc.estimate(2000.0, 8000.0).n_frames == 13
