"""2D Lennard-Jones molecular dynamics of argon/helium mixtures.

Works in the g/mol, Angstrom, femtosecond, kcal/mol unit system throughout.
Newton's equations are integrated with velocity Verlet (the explicit member
of the Stormer-Verlet family) in a periodic square box under the minimum
image convention.  Pair interactions are truncated Lennard-Jones with
per-species-pair well depth and size.  Neighbor search is a Verlet pair
list: the pairs closer than the cutoff plus a skin, reused until some
particle has moved more than half the skin since then.  The list is a dual
one: a new pair list is pruned from an outer list of the pairs closer than
OUTER_RANGE, which a cell-list search rebuilds only once particles have
moved far enough to miss a pair from it.  Both lists are in canonical
order, each pair i < j and sorted by (i, j), and pairs beyond the cutoff
add exact zeros, so the forces and potential depend on the positions and
species alone, not on which search or which list found the pairs.

verlet_step advances a ParticleState in place: its positions and velocities
arrays, its time and its pair list change, and the step returns the same
object.  A caller that keeps positions or velocities across steps copies
them.  Between steps the positions, velocities and returned forces are
read-only; a caller changes a state by assigning new arrays.  When the next
step gets those same arrays back, it knows they are its own and advances
them with work on the listed particles only.

iter_frames yields each sampled frame as the run reaches it, and
MSDAccumulator takes frames one at a time; run collects iter_frames.

The one non-obvious constant is the acceleration conversion: forces come
out in kcal/(mol A) and masses are in g/mol, so F/m picks up a factor of
4.184e-4 to land in A/fs^2 (KCAL_PER_MOL_TO_MD in fields).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import GasdiffError, InstabilityError
from .fields import KCAL_PER_MOL_TO_MD, A2_PER_FS_IN_CM2_PER_S

#: integration aborts once any particle exceeds this speed (A/fs).
VELOCITY_LIMIT = 1.0

#: pairs closer than this are treated as a setup error (A).
COINCIDENT_DISTANCE = 1.0e-6


class Species(enum.IntEnum):
    HE = 0
    AR = 1

    @property
    def mass(self) -> float:
        return float(MASS_G_MOL[self.value])

    @property
    def label(self) -> str:
        return SPECIES_LABELS[self.value]


MASS_G_MOL = np.array([4.003, 39.948])
#: acceleration per unit force, per species and axis (A/fs^2 per kcal/(mol A))
_ACCEL_SCALE = np.repeat((KCAL_PER_MOL_TO_MD / MASS_G_MOL)[:, None], 2, axis=1)
SPECIES_LABELS = {0: "He", 1: "Ar"}
SPECIES_BY_LABEL = {"He": Species.HE, "Ar": Species.AR}

#: cutoff shared by all pair interactions (A).
LJ_CUTOFF = 20.0

#: the pair list holds every pair closer than LJ_CUTOFF + SKIN and is rebuilt
#: once any particle has moved SKIN/2 from where it was at the last search (A).
SKIN = 5.0

#: the outer pair list holds every pair closer than this; the pair list is
#: pruned from it, and it is searched again only once a particle has moved
#: so far since that it could miss a pair the pruned list needs (A).
OUTER_RANGE = 70.0


# Well depths (kcal/mol) and sizes (A) per species pair, indexed by Species;
# the mixed values equal the geometric mean of the pure ones to the table's
# precision.
_EPS_TABLE = np.array([[0.0196, 0.0700],
                       [0.0700, 0.2498]])
_SIG_TABLE = np.array([[2.50, 2.92],
                       [2.92, 3.40]])


@dataclass(frozen=True)
class SimBox:
    """Periodic square box; side must exceed twice the interaction cutoff."""

    side: float = 5.0e4  # A

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError("box side must be positive")
        if self.side <= 2.0 * LJ_CUTOFF:
            raise ValueError(
                f"box side {self.side} too small for minimum image at cutoff {LJ_CUTOFF}"
            )


@dataclass(frozen=True)
class MDConfig:
    n_he: int = 30000
    n_ar: int = 30000
    dt: float = 5.0           # fs
    temperature: float = 300.0  # K
    kb: float = 0.001987      # kcal/(mol K)
    seed: int = 0
    sample_stride: int = 1000

    def __post_init__(self):
        if self.dt <= 0 or self.temperature <= 0:
            raise ValueError("time step and temperature must be positive")
        if self.n_he < 0 or self.n_ar < 0:
            raise ValueError("particle counts must be nonnegative")
        if self.sample_stride < 1:
            raise ValueError("sample stride must be >= 1")


@dataclass
class ParticleState:
    """Positions are wrapped into [0, side); MSDAccumulator rebuilds
    displacements from sampled frames.

    ``pair_list`` is ``(idx_i, idx_j, positions at build)``, or None;
    compute_forces checks it against the current positions before using it.
    The lists md builds are in canonical order (each pair i < j, sorted by
    (i, j)), so the forces summed over them depend on positions alone.

    verlet_step updates ``positions``, ``velocities``, ``time`` and
    ``pair_list`` in place; arrays that are not C-contiguous writable
    float64 are first replaced by copies that are.  It hands ``positions``
    and ``velocities`` back read-only; to change a state between steps,
    assign new arrays (or copies).  ``species`` is fixed:
    the first force call makes the array read-only and builds per-particle
    tables from it, so a change of species means assigning a new array.
    """

    positions: np.ndarray
    velocities: np.ndarray
    species: np.ndarray
    time: float = 0.0
    pair_list: tuple | None = None
    _work: "_Work | None" = field(default=None, init=False, repr=False,
                                  compare=False)

    @property
    def n_particles(self) -> int:
        return len(self.positions)


def minimum_image(dx: np.ndarray, box: SimBox) -> np.ndarray:
    """Shift displacement components by multiples of the side into
    [-side/2, side/2)."""
    dx = np.asarray(dx, dtype=np.float64)
    return dx - box.side * np.floor(dx / box.side + 0.5)


def _wrap(x: np.ndarray, side: float) -> np.ndarray:
    """Wrap x into [0, side) in place; values already inside are untouched."""
    if x.min(initial=0.0) < 0.0 or x.max(initial=0.0) >= side:
        out = (x < 0.0) | (x >= side)
        w = np.mod(x[out], side)
        # float mod of a tiny negative can land exactly on side
        w[w >= side] -= side
        x[out] = w
    return x


def _cells_per_axis(side: float, n: int, r_cut: float) -> int:
    """Cells per axis of edge >= r_cut, capped so that the sort key
    cid * n + i fits in int64."""
    return min(int(side // r_cut), math.isqrt((2**63 - 1) // max(n, 1)))


def _candidate_pairs(pos: np.ndarray, side: float, r_cut: float, order=None):
    """Index pairs (i, j) at minimum-image separation < r_cut, and the
    permutation that sorts the particles by (cell, index).

    Cell list with edge >= r_cut; each unordered cell pair is visited once
    (self plus four forward neighbors) and the pairs at r_cut or beyond are
    dropped, keeping the visiting order.  The sort starts from ``order``, an
    earlier search's permutation, so it is cheap when few particles changed
    cells; the result does not depend on it.  Falls back to all pairs when
    the box is too small for at least 3 cells per axis.
    """
    n = len(pos)
    if order is None or len(order) != n:
        order = np.arange(n)
    n_side = _cells_per_axis(side, n, r_cut)
    if n_side < 3 or n < 2:
        ii, jj = np.triu_indices(n, k=1)
    else:
        order, sorted_cid = _sorted_cells(pos, side, n_side, order)
        ii, jj = _cell_pairs(order, sorted_cid, n_side)
    d = np.abs(np.take(pos, ii, axis=0) - np.take(pos, jj, axis=0))
    d = np.minimum(d, side - d, out=d)
    near = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < r_cut * r_cut
    return ii[near], jj[near], order


def _cell_coords(pos, side, n_side):
    """Cell (cx, cy) of each particle, for cells of edge side / n_side."""
    cell_len = side / n_side
    q = np.divide(pos, cell_len)
    np.floor(q, out=q)
    # the rounded quotient can reach the next cell just below its edge
    rem = np.multiply(q, cell_len)
    edge = np.subtract(pos, rem, out=rem) < side * 2.0**-50
    q[edge] = pos[edge] // cell_len
    coords = q.astype(np.int64)
    np.clip(coords, 0, n_side - 1, out=coords)
    return coords


def _sorted_cells(pos, side, n_side, order):
    """The particles sorted by (cell, index), the sort starting from
    ``order``, and their cell ids cx * n_side + cy in that order."""
    coords = _cell_coords(pos, side, n_side)
    cid = coords[:, 0] * n_side
    cid += coords[:, 1]
    key = np.take(cid, order)
    key *= len(order)
    key += order
    order = np.take(order, np.argsort(key, kind="stable"))
    return order, np.take(cid, order, out=key)


def _cell_pairs(order, sorted_cid, n_side):
    """Pairs of particles in the same or adjacent cells, given the particles
    sorted by (cell, index) and their sorted cell ids."""
    # the c-th occupied cell, cells[c], holds order[start[c]:start[c] + counts[c]]
    start = np.flatnonzero(np.r_[True, sorted_cid[1:] != sorted_cid[:-1]])
    counts = np.diff(start, append=len(order))
    cells = sorted_cid[start]
    kmax = int(counts.max())
    out_i = [np.empty(0, dtype=np.int64)]
    out_j = [np.empty(0, dtype=np.int64)]
    for b in range(1, kmax):  # same cell, slot a before slot b
        sb = start[counts > b]
        for a in range(b):
            out_i.append(order[sb + a])
            out_j.append(order[sb + b])

    # Unless the offset wraps, cell (cx + dx, cy + dy) is cells + dx * n_side
    # + dy, and it is occupied iff it sits at its slot in cells: the next
    # slot for (0, 1); for the next row one search finds the (1, -1) slot and
    # each further column is at most one slot on.  Cells on the wrapping
    # edges (last row, first or last column) are searched on their own.
    last = len(cells) - 1
    # The (1, -1) slots are searchsorted(cells, cells + n_side - 1), found by
    # a merge: a query sorts before an equal cell, so its rank less the
    # queries before it counts the cells below it.  It runs before the other
    # buffers exist, as its temporaries set the search's peak memory.
    ncid = cells + (n_side - 1)
    diag = np.flatnonzero(np.argsort(np.concatenate((ncid, cells)), kind="stable")
                          < len(cells))
    diag -= np.arange(len(cells))
    np.remainder(cells, n_side, out=ncid)  # cy; then the neighbour ids
    edge = np.flatnonzero((ncid == 0) | (ncid == n_side - 1)
                          | (cells >= (n_side - 1) * n_side))
    edge_cx, edge_cy = np.divmod(cells[edge], n_side)
    found = np.empty_like(cells)
    found_at = {}
    loc = np.arange(1, last + 2)
    loc[-1] = last
    for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)):
        np.add(cells, dx * n_side + dy, out=ncid)
        if dy == -1:
            loc = diag
            np.minimum(loc, last, out=loc)
        elif dx == 1:  # one slot past the (1, dy - 1) cell if it matched
            loc += match
            np.minimum(loc, last, out=loc)
        ncid[edge] = (edge_cx + dx) % n_side * n_side + (edge_cy + dy) % n_side
        loc[edge] = np.minimum(np.searchsorted(cells, ncid[edge]), last)
        match = np.take(cells, loc, out=found) == ncid
        hit = np.flatnonzero(match)
        nbr = np.take(loc, hit)
        found_at[dx, dy] = (np.take(start, hit), np.take(counts, hit),
                            np.take(start, nbr), np.take(counts, nbr))
    # the pairs keep this offset order
    for offset in ((0, 1), (1, 0), (1, 1), (1, -1)):
        src, src_n, dst, dst_n = found_at[offset]
        for a in range(int(src_n.max(initial=0))):
            has_a = src_n > a
            sa, da, da_n = src[has_a] + a, dst[has_a], dst_n[has_a]
            for b in range(kmax):
                sel = da_n > b
                out_i.append(order[sa[sel]])
                out_j.append(order[da[sel] + b])
    ii = np.concatenate(out_i)
    del out_i  # before the second list is joined
    return ii, np.concatenate(out_j)


def _canonical(ii, jj, n):
    """The pairs (ii, jj) of n particles in canonical order: each turned to
    i < j, sorted by (i, j)."""
    key = np.minimum(ii, jj) * n
    key += np.maximum(ii, jj)
    key.sort()
    return np.divmod(key, max(n, 1))


class _PairTerms(NamedTuple):
    """Constants of one pair list, built once per search."""

    flat: np.ndarray    # force component of each term: 2i, 2i+1, 2j, 2j+1
    active: np.ndarray  # the components the list touches, ascending
    accel: np.ndarray   # acceleration per unit force on each active component
    c24: np.ndarray     # 24 eps per pair
    c4: np.ndarray      # 4 eps per pair
    sig2: np.ndarray    # sigma^2 per pair


def _pair_terms(species, idx_i, idx_j, n) -> _PairTerms:
    si, sj = np.take(species, idx_i), np.take(species, idx_j)
    eps, sig = _EPS_TABLE[si, sj], _SIG_TABLE[si, sj]
    flat = np.concatenate([2 * idx_i, 2 * idx_i + 1, 2 * idx_j, 2 * idx_j + 1])
    touched = np.zeros(2 * n, dtype=bool)
    touched[flat] = True
    active = np.flatnonzero(touched)
    accel = np.take(_ACCEL_SCALE[:, 0], np.take(species, active >> 1))
    return _PairTerms(flat, active, accel, 24.0 * eps, 4.0 * eps, sig * sig)


class _Work:
    """Scratch a state keeps for compute_forces and verlet_step: the
    acceleration scale per particle and axis, one (n, 2) buffer, and the
    terms of the pair list they were last built for.

    verlet_step also keeps what it handed back (positions, velocities,
    forces, pair list, dt, box side), the half kick it gave the listed
    components, and a bound on how far any particle has moved since the
    list was built (inf when unknown) with the largest squared speed at
    that build; ``list_current`` tells the next compute_forces that the
    bound already shows the list current.

    ``outer`` is the outer pair list the pair list is pruned from, in
    canonical order, as ``(idx_i, idx_j, positions at build, cell order,
    box side)``, or None; the cell order is its search's, which the next
    outer search starts its sort from.
    """

    __slots__ = ("species", "scale", "buf", "pair_list", "terms", "handed",
                 "kick", "moved", "v2_built", "list_current", "outer")

    def __init__(self, species):
        self.species = species
        self.scale = np.take(_ACCEL_SCALE, species, axis=0)
        self.buf = np.empty_like(self.scale)
        self.pair_list = self.terms = self.handed = self.kick = self.outer = None
        self.moved, self.v2_built, self.list_current = math.inf, 0.0, False


def _work(state: ParticleState) -> _Work:
    w = state._work
    if w is None or w.species is not state.species:
        state.species.flags.writeable = False  # the tables are built from it
        w = state._work = _Work(state.species)
    return w


def _pair_interactions(pos, species, box, idx_i, idx_j, terms=None):
    """Forces and potential for given candidate pairs, cutoff applied.
    ``terms`` are the pairs' _pair_terms, built here when not given."""
    if terms is None:
        terms = _pair_terms(species, idx_i, idx_j, len(pos))
    # np.take gathers rows an order of magnitude faster than pos[idx]
    d = minimum_image(np.take(pos, idx_i, axis=0) - np.take(pos, idx_j, axis=0), box)
    r2 = np.einsum("ij,ij->i", d, d)
    if np.any(r2 < COINCIDENT_DISTANCE**2):
        k = int(np.argmin(r2))
        raise GasdiffError(
            f"coincident particles {idx_i[k]} and {idx_j[k]} "
            f"(separation {np.sqrt(r2[k]):.2e} A)"
        )
    near = r2 < LJ_CUTOFF**2
    sr2 = terms.sig2 / r2
    sr6 = sr2 * sr2 * sr2
    sr12 = sr6 * sr6
    fd = ((terms.c24 / r2) * (2.0 * sr12 - sr6))[:, None] * d
    fd[~near] = 0.0  # pairs at or beyond the cutoff add exact zeros
    # weights fx, fy, -fx, -fy match flat; bincount adds them in that order,
    # so each component sums its idx_i terms, then its idx_j terms
    forces = np.bincount(terms.flat, np.concatenate((fd.T, -fd.T), axis=None),
                         minlength=2 * len(pos))
    potential = float(np.sum((terms.c4 * (sr12 - sr6))[near]))
    # an empty list gives an int64 count array
    return forces.astype(np.float64, copy=False).reshape(len(pos), 2), potential


def _moved_within(positions, built, side, limit, buf) -> bool:
    """False when some particle's minimum-image displacement from ``built``
    is longer than ``limit`` (a NaN maximum counts as within).

    The norm is taken only for rows with a component above limit/sqrt(2),
    less a rounding margin; ``buf`` is (n, 2) scratch.
    """
    d = np.abs(np.subtract(positions, built, out=buf), out=buf)
    # |component| >= its minimum image, so every other row is within limit
    bound = limit / math.sqrt(2.0) * (1.0 - 1e-9)
    rows = np.flatnonzero(d.reshape(-1) > bound) >> 1
    if not len(rows):
        return True
    e = np.abs(np.take(positions, rows, axis=0) - np.take(built, rows, axis=0))
    e = np.minimum(e, side - e, out=e)
    e *= e
    if not (e[:, 0] + e[:, 1]).max() > limit * limit:
        return True
    return bool(np.isnan(d).any())


def _pair_list_current(state: ParticleState, box: SimBox, buf) -> bool:
    """True while no particle has moved SKIN/2 (minimum image) since the
    state's pair list was built, so no pair outside the list can be inside
    the cutoff.  ``buf`` is (n, 2) scratch."""
    if state.pair_list is None:
        return False
    built = state.pair_list[2]
    if built.shape != state.positions.shape:
        return False
    return _moved_within(state.positions, built, box.side, 0.5 * SKIN, buf)


def _rebuild_pair_list(state: ParticleState, box: SimBox, w: _Work):
    """A new pair list for the state's positions: the pairs of a fresh
    search at LJ_CUTOFF + SKIN, in canonical order.

    It is pruned from the outer list, which is searched again first when it
    is missing, was built for another box, or a particle has moved more
    than (OUTER_RANGE - LJ_CUTOFF - SKIN) / 2 since its build: within that,
    two particles now in range were closer than OUTER_RANGE then.
    """
    built = state.positions.copy()
    side, r_cut = box.side, LJ_CUTOFF + SKIN
    # less a margin for rounding, relative and of positions
    reach = max((OUTER_RANGE - r_cut) / 2.0 * (1.0 - 1e-9) - side * 2.0**-48, 0.0)
    outer = w.outer
    if (outer is None or outer[4] != side or outer[2].shape != built.shape
            or not _moved_within(built, outer[2], side, reach, w.buf)):
        order = None if outer is None else outer[3]
        outer = w.outer = None  # freed before the search, which sets the peak
        oi, oj, order = _candidate_pairs(built, side, OUTER_RANGE, order)
        outer = w.outer = (*_canonical(oi, oj, len(built)), built, order, side)
    # the fresh search's filter, exactly (a NaN distance fails it); the mask
    # keeps the canonical order
    oi, oj = outer[:2]
    d = np.abs(np.take(built, oi, axis=0) - np.take(built, oj, axis=0))
    d = np.minimum(d, side - d, out=d)
    near = np.flatnonzero(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < r_cut * r_cut)
    return np.take(oi, near), np.take(oj, near), built


def compute_forces(state: ParticleState, box: SimBox):
    """Total force on each particle and the total potential energy.

    Searches for pairs only when the state's pair list is missing or stale,
    and leaves the new list on the state.  Pairwise sums are accumulated
    antisymmetrically, so the net force is zero to roundoff.
    """
    w = _work(state)
    known, w.list_current = w.list_current, False
    if not (known or _pair_list_current(state, box, w.buf)):
        state.pair_list = _rebuild_pair_list(state, box, w)
    idx_i, idx_j = state.pair_list[:2]
    if w.pair_list is not state.pair_list:
        w.pair_list = state.pair_list
        w.terms = _pair_terms(state.species, idx_i, idx_j, state.n_particles)
    return _pair_interactions(state.positions, state.species, box, idx_i, idx_j,
                              w.terms)


def kinetic_energy(state: ParticleState) -> float:
    """Total kinetic energy in kcal/mol."""
    m = MASS_G_MOL[state.species]
    v2 = np.einsum("ij,ij->i", state.velocities, state.velocities)
    return float(0.5 * np.sum(m * v2) / KCAL_PER_MOL_TO_MD)


def maxwell_boltzmann_velocities(species, temperature, kb, rng) -> np.ndarray:
    """Per-component Gaussian with variance kB T / m, in A/fs."""
    m = MASS_G_MOL[species]
    sigma_v = np.sqrt(kb * temperature / m * KCAL_PER_MOL_TO_MD)
    return rng.normal(0.0, 1.0, (len(species), 2)) * sigma_v[:, None]


def init_state(cfg: MDConfig, box: SimBox) -> ParticleState:
    """Helium uniform over the box, argon uniform over the centered quarter
    patch, Maxwell-Boltzmann velocities with the net drift removed.

    Uniform placement can produce overlapping pairs; any particle landing
    within 0.8 * sigma_ArAr of another is redrawn, up to 100 rounds.  The
    last overlap search is at the pair-list range, so its result is handed
    to the returned state as its pair list, in canonical order.
    """
    rng = np.random.default_rng(cfg.seed)
    side = box.side
    species = np.concatenate([
        np.full(cfg.n_he, Species.HE, dtype=np.int64),
        np.full(cfg.n_ar, Species.AR, dtype=np.int64),
    ])

    def draw(mask):
        n = int(np.count_nonzero(mask))
        out = np.empty((n, 2))
        he = species[mask] == Species.HE
        out[he] = rng.uniform(0.0, side, (int(np.count_nonzero(he)), 2))
        out[~he] = rng.uniform(0.25 * side, 0.75 * side,
                               (int(np.count_nonzero(~he)), 2))
        return out

    positions = draw(np.ones(len(species), dtype=bool))

    min_sep = 0.8 * _SIG_TABLE[Species.AR, Species.AR]
    order = None
    for _ in range(100):
        ii, jj, order = _candidate_pairs(positions, side, LJ_CUTOFF + SKIN, order)
        d = minimum_image(positions[ii] - positions[jj], box)
        close = np.einsum("ij,ij->i", d, d) < min_sep**2
        if not np.any(close):
            break
        offenders = np.zeros(len(species), dtype=bool)
        offenders[np.maximum(ii[close], jj[close])] = True
        positions[offenders] = draw(offenders)
    else:
        raise GasdiffError("could not place particles without overlaps")

    velocities = maxwell_boltzmann_velocities(species, cfg.temperature, cfg.kb, rng)
    m = MASS_G_MOL[species]
    if len(species):
        velocities -= np.sum(m[:, None] * velocities, axis=0) / np.sum(m)

    # the searched array stays the list's build snapshot
    return ParticleState(
        positions=positions.copy(),
        velocities=velocities,
        species=species,
        time=0.0,
        pair_list=(*_canonical(ii, jj, len(species)), positions),
    )


def _own(a: np.ndarray) -> np.ndarray:
    """``a`` if it can be updated in place as float64 rows, else such a copy."""
    if a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable:
        return a
    return np.array(a, dtype=np.float64, order="C")


def _handed_back(w: _Work, state: ParticleState, forces, cfg: MDConfig,
                 box: SimBox) -> bool:
    """True when the step gets back, still read-only, exactly the arrays and
    pair list the last step handed out, with the same dt and box."""
    h = w.handed
    return (h is not None and h[0] is state.positions and h[1] is state.velocities
            and h[2] is forces and h[3] is state.pair_list is w.pair_list
            and h[4] == cfg.dt and h[5] == box.side
            and not (state.positions.flags.writeable
                     or state.velocities.flags.writeable or forces.flags.writeable))


def verlet_step(state: ParticleState, forces: np.ndarray, cfg: MDConfig,
                box: SimBox):
    """One velocity-Verlet step: half kick, drift, recompute, half kick.

    Advances ``state`` in place (positions, velocities, time, pair list) and
    returns (state, new_forces, potential), the same state object, so the
    caller can reuse the freshly computed forces.  The state's positions and
    velocities and the returned forces are handed back read-only.  Given
    those same arrays again, the step kicks only the components the pair
    list touches (everything else is in free flight), checks the speed of
    those particles only, and skips the exact stale-list check while a
    bound on the distance moved since the list was built stays under
    SKIN/2; any other input takes the full path.  The results are the same
    either way.  On InstabilityError the state holds the failed step, with
    writable arrays.
    """
    w = _work(state)
    trusted = _handed_back(w, state, forces, cfg, box)
    w.handed = None
    if trusted:
        state.positions.flags.writeable = state.velocities.flags.writeable = True
    x = state.positions = _own(state.positions)
    v = state.velocities = _own(state.velocities)
    flat_v = v.reshape(-1)
    half_dt = 0.5 * cfg.dt
    listed = state.pair_list
    if trusted:
        # The forces are the last step's, +0.0 off the listed components, and
        # w.kick is their half kick there, so only listed particles change
        # speed: unlisted ones keep the speed they had at the list's build.
        active = w.terms.active
        vh = np.take(flat_v, active)
        vh += w.kick
        flat_v[active] = vh
        vh *= vh
        fastest2 = float((vh[0::2] + vh[1::2]).max(initial=0.0))
        # The drift moves no particle further than dt * the top speed; the
        # factor covers the rounding of dt * v, of this sum and of the exact
        # check, and side * 2^-49 the rounding of x + dt * v and the wrap.
        w.moved += (cfg.dt * math.sqrt(max(fastest2, w.v2_built)) * (1.0 + 1e-9)
                    + box.side * 2.0**-49)
        w.list_current = w.moved < 0.5 * SKIN * (1.0 - 1e-9)
    else:
        kick = np.multiply(forces, w.scale, out=w.buf)
        kick *= half_dt
        v += kick
        w.moved = math.inf
    x += np.multiply(v, cfg.dt, out=w.buf)
    _wrap(x, box.side)
    state.time = state.time + cfg.dt
    new_forces, potential = compute_forces(state, box)
    searched = state.pair_list is not listed
    if searched:
        w.moved = 0.0
        w.v2_built = float(np.einsum("ij,ij->i", v, v).max(initial=0.0))
    # The new forces are +0.0 off the components the pair list touches, so a
    # kick there would leave v as it is (a -0.0 would turn +0.0): kick only
    # the listed components.
    active = w.terms.active
    w.kick = np.take(new_forces.reshape(-1), active)
    w.kick *= w.terms.accel
    w.kick *= half_dt
    vn = np.take(flat_v, active)
    vn += w.kick
    flat_v[active] = vn
    # Without a search only the listed rows were kicked since the last check
    # passed; a search step also kicked the old list's rows, so check all.
    # Both components within limit/sqrt(2), less a rounding margin, keep
    # vx^2 + vy^2 within limit^2; NaN fails this and goes to the exact check.
    u = vn if trusted and not searched else v
    bound = VELOCITY_LIMIT / math.sqrt(2.0) * (1.0 - 1e-9)
    if not (u.max(initial=0.0) <= bound and u.min(initial=0.0) >= -bound):
        v2 = v * v
        speed2 = v2[:, 0] + v2[:, 1]
        if not speed2.max(initial=0.0) <= VELOCITY_LIMIT**2:  # NaN fails too
            worst = int(np.argmax(speed2))
            raise InstabilityError(
                f"particle {worst} reached {np.sqrt(speed2[worst]):.3g} A/fs "
                f"at t = {state.time} fs; reduce dt or check the setup"
            )
    x.flags.writeable = v.flags.writeable = new_forces.flags.writeable = False
    w.handed = (x, v, new_forces, state.pair_list, cfg.dt, box.side)
    return state, new_forces, potential


def trajectory_header(cfg: MDConfig, box: SimBox):
    """The metadata of a run's trajectory: a Trajectory without frames."""
    from .trajectory_io import Trajectory

    return Trajectory(box_side=box.side, units="real", dt=cfg.dt, seed=cfg.seed,
                      n_he=cfg.n_he, n_ar=cfg.n_ar, has_velocities=True)


def iter_frames(cfg: MDConfig, box: SimBox, n_steps: int):
    """NVE frames sampled every cfg.sample_stride steps, frame 0 included,
    each yielded as the run reaches it.

    A frame owns copies of the positions and velocities, so consumers may
    keep it; the run itself holds only the current state.  Total (kinetic +
    potential) energy is recorded on every frame.
    """
    from .trajectory_io import Frame

    state = init_state(cfg, box)
    forces, potential = compute_forces(state, box)
    # every frame shares one read-only copy of ids and species
    ids = np.arange(1, state.n_particles + 1, dtype=np.int64)
    species = state.species.copy()
    ids.flags.writeable = species.flags.writeable = False

    def frame(step_index):
        return Frame(
            timestep=step_index,
            time_fs=state.time,
            ids=ids,
            species=species,
            positions=state.positions.copy(),
            velocities=state.velocities.copy(),
            energy=kinetic_energy(state) + potential,
        )

    yield frame(0)
    for n in range(1, n_steps + 1):
        state, forces, potential = verlet_step(state, forces, cfg, box)
        if n % cfg.sample_stride == 0:
            yield frame(n)


def run(cfg: MDConfig, box: SimBox, n_steps: int):
    """The whole NVE trajectory in memory: ``iter_frames`` collected."""
    return replace(trajectory_header(cfg, box),
                   frames=list(iter_frames(cfg, box, n_steps)))


@dataclass(frozen=True)
class MSDResult:
    diffusion: float        # A^2/fs
    slope: float            # A^2/fs
    intercept: float        # A^2
    r_squared: float
    n_frames: int

    @property
    def diffusion_cm2_s(self) -> float:
        return self.diffusion * A2_PER_FS_IN_CM2_PER_S


class MSDAccumulator:
    """Mean squared displacement from frame 0 of the particles that are
    ``species`` in frame 0, added a frame at a time.

    Keeps their previous positions, their running displacement (summed
    minimum-image steps, valid while nothing moves half a box side between
    frames) and one (time, MSD) pair per frame.
    """

    def __init__(self, box_side: float, species: Species):
        self.box = SimBox(side=box_side)
        self.species = species
        self.times: list[float] = []
        self.msd: list[float] = []
        self._mask = self._prev = self._disp = None

    def add(self, frame) -> None:
        self.times.append(frame.time_fs)
        if self._mask is None:
            self._mask = frame.species == int(self.species)
            self._prev = frame.positions[self._mask]
            self._disp = np.zeros_like(self._prev)
        else:
            pos = frame.positions[self._mask]
            self._disp += minimum_image(pos - self._prev, self.box)
            self._prev = pos
        if len(self._disp):
            sq = np.einsum("nd,nd->n", self._disp, self._disp)
            # summed left to right, as the mean over a frames-inner array was
            self.msd.append(np.add.accumulate(sq)[-1] / len(sq))

    def estimate(self, fit_window=None, use_3d_factor: bool = False) -> MSDResult:
        """Diffusion coefficient from the slope of mean squared displacement.

        Fits a straight line to MSD(t) over ``fit_window`` = (t_lo, t_hi) in
        fs (default: every frame) and divides the slope by 2d with d=2.
        ``use_3d_factor`` divides by 6 instead, reproducing the common
        three-dimensional convention.  The r_squared diagnostic exposes how
        linear the window actually was.
        """
        times = np.array(self.times)
        if fit_window is None:
            sel = np.ones(len(times), dtype=bool)
        else:
            t_lo, t_hi = fit_window
            sel = (times >= t_lo) & (times <= t_hi)
        if int(np.count_nonzero(sel)) < 3:
            raise ValueError("need at least 3 trajectory frames in the fit window")
        if not self.msd:
            raise ValueError(f"trajectory contains no {self.species.label} particles")

        t, y = times[sel], np.array(self.msd)[sel]
        tc = t - t.mean()
        denom = float(np.dot(tc, tc))
        if denom == 0.0:
            raise ValueError("fit window has no time spread")
        slope = float(np.dot(tc, y - y.mean())) / denom
        intercept = float(y.mean() - slope * t.mean())
        resid = y - (intercept + slope * t)
        total = float(np.dot(y - y.mean(), y - y.mean()))
        r_squared = 1.0 - float(np.dot(resid, resid)) / total if total > 0 else 1.0

        divisor = 6.0 if use_3d_factor else 4.0
        return MSDResult(
            diffusion=slope / divisor,
            slope=slope,
            intercept=intercept,
            r_squared=r_squared,
            n_frames=int(np.count_nonzero(sel)),
        )
