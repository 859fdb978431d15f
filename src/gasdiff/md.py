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
object and forces the state owns.  A caller that keeps positions,
velocities or forces across steps copies them.  Between steps the three are
read-only; a caller changes a state by assigning new arrays.  There is one
step path.  When the next step gets those same arrays back, it knows they
are its own; any other input it first takes over, as if it had handed it
back with no bound on how far the particles have moved.  It then advances
the arrays in place with work on the components the forces kick (the force
components the pair list touches, or after a take-over those where the
given forces are nonzero): forces are summed, kicked and refreshed there
only, and the velocities there are written once, after the second half
kick, unless the step may search.  A component with no kick keeps its
velocity bit for bit, -0.0 included.  The drift alone passes over every
particle.  A running bound on the distance moved since the pair list was
built stands in for whole-array passes wherever it proves their answer:
while it stays under SKIN/2 the list is current, and only the coordinates
that were within SKIN/2 of an edge at the build (the border set) can cross
one, so only they are wrapped.  Summed over the pair lists pruned from one
outer list, the bound also shows that outer list still valid, and the
exact check against it runs only once the sum reaches its reach.

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

from .errors import GasdiffError, InstabilityError, ParseError
from .fields import KCAL_PER_MOL_TO_MD, A2_PER_FS_IN_CM2_PER_S

#: integration aborts once any particle exceeds this speed (A/fs).
VELOCITY_LIMIT = 1.0

#: pairs closer than this are treated as a setup error (A).
COINCIDENT_DISTANCE = 1.0e-6


class Species(enum.IntEnum):
    HE = 0
    AR = 1

    @property
    def label(self) -> str:
        return self.name.title()


MASS_G_MOL = np.array([4.003, 39.948])
#: Boltzmann constant (kcal/(mol K)).
KB = 0.001987
#: acceleration per unit force, per species and axis (A/fs^2 per kcal/(mol A))
_ACCEL_SCALE = np.repeat((KCAL_PER_MOL_TO_MD / MASS_G_MOL)[:, None], 2, axis=1)

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
        if not 0.0 < self.side < math.inf:
            raise ValueError(f"box side must be positive and finite, got {self.side!r}")
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
    seed: int = 0
    sample_stride: int = 1000

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf and 0.0 < self.temperature < math.inf):
            raise ValueError("time step and temperature must be positive and finite")
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
    ``pair_list`` in place.  It hands ``positions`` and ``velocities`` back
    read-only, with read-only forces that the next step overwrites; to
    change a state between steps, assign new arrays (or copies).  A step
    given anything else takes the state over: arrays that are not
    C-contiguous writable float64 are first replaced by copies that are,
    and the given forces are read, never written.  ``species`` is fixed:
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


def minimum_image(dx: np.ndarray, side: float) -> np.ndarray:
    """Shift displacement components by multiples of ``side`` (0 < side <
    inf) into [-side/2, side/2)."""
    dx = np.asarray(dx, dtype=np.float64)
    return dx - side * np.floor(dx / side + 0.5)


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


def _candidate_pairs(pos: np.ndarray, side: float, r_cut: float):
    """Index pairs (i, j) at minimum-image separation < r_cut, in canonical
    order: each pair i < j, sorted by (i, j).

    Cell list with edge >= r_cut; each unordered cell pair is visited once
    (self plus four forward neighbors) and the pairs at r_cut or beyond are
    dropped.  Falls back to all pairs when the box is too small for at least
    3 cells per axis.
    """
    n = len(pos)
    n_side = _cells_per_axis(side, n, r_cut)
    if n_side < 3 or n < 2:
        ii, jj = np.triu_indices(n, k=1)
    else:
        sorted_cid, order = _sorted_cells(pos, side, n_side)
        ii, jj = _cell_pairs(order, sorted_cid, n_side)
    near = _image_r2(pos, ii, pos, jj, side) < r_cut * r_cut
    ii, jj = ii[near], jj[near]
    key = np.minimum(ii, jj)
    key *= n
    key += np.maximum(ii, jj)
    return _sort_packed(key, n)


def _sort_packed(key, n):
    """Sort distinct int64 keys hi * n + lo, 0 <= lo < n, in place and split
    them into (hi, lo): the pairs (hi, lo) sorted by hi, then lo."""
    key.sort()
    return np.divmod(key, max(n, 1))


def _image_r2(a, i, b, j, side):
    """Squared minimum-image distance between rows a[i] and b[j]."""
    d = np.abs(np.take(a, i, axis=0) - np.take(b, j, axis=0))
    d = np.minimum(d, side - d, out=d)
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]


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


def _sorted_cells(pos, side, n_side):
    """The particles' cell ids cx * n_side + cy in ascending order, and the
    particles in that order, sorted by (cell, index)."""
    n = len(pos)
    coords = _cell_coords(pos, side, n_side)
    key = coords[:, 0] * n_side
    key += coords[:, 1]
    key *= n
    key += np.arange(n)
    return _sort_packed(key, n)


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


class _PairTerms(NamedTuple):
    """Constants of one pair list, built once per search."""

    slot: np.ndarray    # place in active of each term's component: 2i, 2i+1, 2j, 2j+1
    active: np.ndarray  # the components the list touches, ascending
    accel: np.ndarray   # acceleration per unit force on each active component
    c24: np.ndarray     # 24 eps per pair
    c4: np.ndarray      # 4 eps per pair
    sig2: np.ndarray    # sigma^2 per pair


def _pair_terms(species, idx_i, idx_j, n) -> _PairTerms:
    si, sj = np.take(species, idx_i), np.take(species, idx_j)
    eps, sig = _EPS_TABLE[si, sj], _SIG_TABLE[si, sj]
    touched = np.zeros(n, dtype=bool)
    touched[idx_i] = touched[idx_j] = True
    listed = np.flatnonzero(touched)
    active = np.repeat(2 * listed, 2)
    active[1::2] += 1
    # the place in active of each listed particle's x component
    place = np.empty(n, dtype=np.int64)
    place[listed] = np.arange(0, len(active), 2)
    pi, pj = np.take(place, idx_i), np.take(place, idx_j)
    accel = np.take(_ACCEL_SCALE[:, 0], np.take(species, active >> 1))
    return _PairTerms(np.concatenate([pi, pi + 1, pj, pj + 1]), active, accel,
                      24.0 * eps, 4.0 * eps, sig * sig)


class _Work:
    """Scratch a state keeps for compute_forces and verlet_step: one (n, 2)
    buffer, and the terms of the pair list they were last built for.

    verlet_step also keeps what it handed back (positions, velocities,
    forces, pair list, dt, box side), the components its forces are nonzero
    on (``kicked``: the listed ones, or after a take-over those of the given
    forces), the half kick it gave them and their velocities after it, v *
    dt for every component (``vdt``, current off the kicked components),
    and a bound on how far any particle has moved since the list was built
    (inf when unknown) with the largest squared speed at that build.  While
    that bound shows the list current, the step leaves the velocities of the
    kicked components to its end-of-step write, and wraps only ``border``:
    the flat indices of the coordinates within SKIN/2, plus a rounding
    margin, of an edge at the list's build.

    ``outer`` is the outer pair list the pair list is pruned from, in
    canonical order, as ``(idx_i, idx_j, positions at build, box side)``,
    or None.  ``outer_moved`` bounds how far any particle had moved since
    that build when the pair list was built: each rebuild adds ``moved`` to
    it, an outer search sets it to 0, and a force call or a step that is not
    handed back sets it to inf.

    ``rebuilds``, ``searches`` and ``exact_checks`` count the pair-list
    rebuilds, the outer searches among them and the exact stale checks.
    """

    __slots__ = ("species", "buf", "pair_list", "terms", "handed", "kicked",
                 "kick", "listed_v", "vdt", "moved", "v2_built", "border",
                 "outer", "outer_moved", "rebuilds", "searches", "exact_checks")

    def __init__(self, species):
        self.species = species
        self.buf = np.empty((len(species), 2))
        self.pair_list = self.terms = self.handed = self.outer = None
        self.kicked = self.kick = self.listed_v = self.vdt = self.border = None
        self.moved, self.v2_built = math.inf, 0.0
        self.outer_moved = math.inf
        self.rebuilds = self.searches = self.exact_checks = 0


def _work(state: ParticleState) -> _Work:
    w = state._work
    if w is None or w.species is not state.species:
        state.species.flags.writeable = False  # the tables are built from it
        w = state._work = _Work(state.species)
    return w


def _listed_interactions(pos, box, idx_i, idx_j, terms):
    """Forces on the components ``terms.active`` and the potential, for
    given candidate pairs with their _pair_terms, cutoff applied."""
    # np.take gathers rows an order of magnitude faster than pos[idx]
    d = np.take(pos, idx_i, axis=0) - np.take(pos, idx_j, axis=0)
    # The minimum image: rint(q) and minimum_image's floor(q + 0.5) differ
    # only where |d| is about side/2, beyond the cutoff, where forces and
    # potential take exact zeros either way.
    q = np.divide(d, box.side)
    np.rint(q, out=q)
    q *= box.side
    d -= q
    r2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    if r2.min(initial=np.inf) < COINCIDENT_DISTANCE**2:
        k = int(np.argmin(r2))
        raise GasdiffError(
            f"coincident particles {idx_i[k]} and {idx_j[k]} "
            f"(separation {np.sqrt(r2[k]):.2e} A)"
        )
    near = r2 < LJ_CUTOFF**2
    sr2 = terms.sig2 / r2
    sr6 = sr2 * sr2 * sr2
    sr12 = sr6 * sr6
    # weight rows fx, fy, -fx, -fy match slot; bincount adds them in that
    # order, so each component sums its idx_i terms, then its idx_j terms
    weights = np.empty((4, len(r2)))
    np.multiply((terms.c24 / r2) * (2.0 * sr12 - sr6), d.T, out=weights[:2])
    # pairs at or beyond the cutoff add exact zeros
    np.copyto(weights[:2], 0.0, where=~near)
    np.negative(weights[:2], out=weights[2:])
    forces = np.bincount(terms.slot, weights.reshape(-1), minlength=len(terms.active))
    potential = float(np.sum((terms.c4 * (sr12 - sr6))[near]))
    # an empty list gives an int64 count array
    return forces.astype(np.float64, copy=False), potential


def _pair_interactions(pos, box, idx_i, idx_j, terms):
    """(n, 2) forces, +0.0 off the listed components, and potential for given
    candidate pairs and their _pair_terms."""
    listed, potential = _listed_interactions(pos, box, idx_i, idx_j, terms)
    forces = np.zeros((len(pos), 2))
    forces.reshape(-1)[terms.active] = listed
    return forces, potential


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
    if not _image_r2(positions, rows, built, rows, side).max() > limit * limit:
        return True
    return bool(np.isnan(d).any())


def _pair_list_current(state: ParticleState, box: SimBox, w: _Work) -> bool:
    """True while no particle has moved SKIN/2 (minimum image) since the
    state's pair list was built, so no pair outside the list can be inside
    the cutoff."""
    w.exact_checks += 1
    if state.pair_list is None:
        return False
    built = state.pair_list[2]
    if built.shape != state.positions.shape:
        return False
    return _moved_within(state.positions, built, box.side, 0.5 * SKIN, w.buf)


def _rebuild_pair_list(state: ParticleState, box: SimBox, w: _Work):
    """A new pair list for the state's positions: the pairs of a fresh
    search at LJ_CUTOFF + SKIN, in canonical order.

    It is pruned from the outer list, which is searched again first when it
    is missing, was built for another box, or a particle has moved more
    than (OUTER_RANGE - LJ_CUTOFF - SKIN) / 2 since its build: within that,
    two particles now in range were closer than OUTER_RANGE then.  The
    exact check of that distance runs only when the summed bound
    ``w.outer_moved + w.moved`` does not already show it shorter.
    """
    w.rebuilds += 1
    built = state.positions.copy()
    side, r_cut = box.side, LJ_CUTOFF + SKIN
    # less a margin for rounding, relative and of positions
    reach = max((OUTER_RANGE - r_cut) / 2.0 * (1.0 - 1e-9) - side * 2.0**-48, 0.0)
    w.outer_moved += w.moved  # NaN fails the test below, as inf does
    outer = w.outer
    if (outer is None or outer[3] != side or outer[2].shape != built.shape
            or not (w.outer_moved < reach * (1.0 - 1e-9)
                    or _moved_within(built, outer[2], side, reach, w.buf))):
        w.searches += 1
        outer = w.outer = None  # freed before the search, which sets the peak
        outer = w.outer = (*_candidate_pairs(built, side, OUTER_RANGE), built, side)
        w.outer_moved = 0.0
    # the fresh search's filter, exactly (a NaN distance fails it); the mask
    # keeps the canonical order
    oi, oj = outer[:2]
    near = np.flatnonzero(_image_r2(built, oi, built, oj, side) < r_cut * r_cut)
    return np.take(oi, near), np.take(oj, near), built


def compute_forces(state: ParticleState, box: SimBox):
    """Total force on each particle and the total potential energy.

    Searches for pairs only when the state's pair list is missing or stale,
    and leaves the new list on the state.  Pairwise sums are accumulated
    antisymmetrically, so the net force is zero to roundoff.
    """
    # the positions may have been edited since the last step's bound
    _work(state).outer_moved = math.inf
    terms = _current_terms(state, box, False)
    return _pair_interactions(state.positions, box, *state.pair_list[:2], terms)


def _current_terms(state: ParticleState, box: SimBox, known: bool) -> _PairTerms:
    """The terms of the state's pair list, rebuilt first if missing or stale;
    ``known`` says that the running bound already shows it current."""
    w = _work(state)
    if not (known or _pair_list_current(state, box, w)):
        state.pair_list = _rebuild_pair_list(state, box, w)
    if w.pair_list is not state.pair_list:
        w.pair_list = state.pair_list
        w.terms = _pair_terms(state.species, *state.pair_list[:2], state.n_particles)
    return w.terms


def kinetic_energy(state: ParticleState) -> float:
    """Total kinetic energy in kcal/mol."""
    m = MASS_G_MOL[state.species]
    v2 = np.einsum("ij,ij->i", state.velocities, state.velocities)
    return float(0.5 * np.sum(m * v2) / KCAL_PER_MOL_TO_MD)


def maxwell_boltzmann_velocities(species, temperature, rng) -> np.ndarray:
    """Per-component Gaussian with variance kB T / m, in A/fs."""
    m = MASS_G_MOL[species]
    sigma_v = np.sqrt(KB * temperature / m * KCAL_PER_MOL_TO_MD)
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
    for _ in range(100):
        ii, jj = _candidate_pairs(positions, side, LJ_CUTOFF + SKIN)
        close = _image_r2(positions, ii, positions, jj, side) < min_sep**2
        if not np.any(close):
            break
        offenders = np.zeros(len(species), dtype=bool)
        offenders[jj[close]] = True
        positions[offenders] = draw(offenders)
    else:
        raise GasdiffError("could not place particles without overlaps")

    velocities = maxwell_boltzmann_velocities(species, cfg.temperature, rng)
    m = MASS_G_MOL[species]
    if len(species):
        velocities -= np.sum(m[:, None] * velocities, axis=0) / np.sum(m)

    # the searched array stays the list's build snapshot
    return ParticleState(
        positions=positions.copy(),
        velocities=velocities,
        species=species,
        time=0.0,
        pair_list=(ii, jj, positions),
    )


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


def _take_over(w: _Work, state: ParticleState, forces, cfg: MDConfig) -> np.ndarray:
    """Set up ``w`` as if the last step had handed ``state`` and ``forces``
    back with no bound on how far the particles have moved, and return new
    zero forces for the step to write; ``forces`` is only read.

    Positions and velocities that are not C-contiguous writable float64 are
    replaced by copies that are.  The kicked components are those with a
    nonzero force (NaN included); the others, whose kick would be a zero,
    keep their velocities bit for bit.
    """
    state.positions = np.require(state.positions, np.float64, ["C", "W"])
    v = state.velocities = np.require(state.velocities, np.float64, ["C", "W"])
    f = np.broadcast_to(forces, v.shape).reshape(-1)
    w.kicked = np.flatnonzero(f)
    w.kick = np.take(f, w.kicked) * np.take(_ACCEL_SCALE[:, 0],
                                            np.take(w.species, w.kicked >> 1))
    w.kick *= 0.5 * cfg.dt
    w.listed_v = np.take(v, w.kicked)
    w.vdt = np.multiply(v, cfg.dt)
    w.moved = w.outer_moved = math.inf
    return np.zeros_like(v)


def verlet_step(state: ParticleState, forces: np.ndarray, cfg: MDConfig,
                box: SimBox):
    """One velocity-Verlet step: half kick, drift, recompute, half kick.

    Advances ``state`` in place (positions, velocities, time, pair list) and
    returns (state, new_forces, potential), the same state object, so the
    caller can reuse the freshly computed forces.  The state's positions and
    velocities and the returned forces are handed back read-only.  Any other
    input is first taken over (_take_over) as if it had been handed back,
    with no bound on the distance moved, and gets new forces; then one body
    runs.  It sums forces, kicks and keeps v * dt only on the kicked
    components (everything else is in free flight), checks the speed of
    those particles only unless the kicked set changed, skips the exact
    stale-list check and wraps only the border set while a bound on the
    distance moved since the list was built stays under SKIN/2, checks the
    outer list exactly only once that bound summed since the outer search
    reaches its reach, and overwrites the forces it was handed back, zeroed
    on the components that left the list.  On InstabilityError the state
    holds the failed step, with writable arrays.
    """
    w = _work(state)
    if _handed_back(w, state, forces, cfg, box):
        state.positions.flags.writeable = state.velocities.flags.writeable = True
        forces.flags.writeable = True
    else:
        forces = _take_over(w, state, forces, cfg)
    w.handed = None
    x, v = state.positions, state.velocities
    flat_v = v.reshape(-1)
    half_dt = 0.5 * cfg.dt
    listed = state.pair_list
    # The forces are +0.0 off the kicked components, w.kick is their half
    # kick and w.listed_v their velocities before it, so only kicked
    # particles change speed: the others keep the speed they had at the
    # list's build.
    kicked, vh = w.kicked, w.listed_v
    vh += w.kick
    w.vdt.reshape(-1)[kicked] = vh * cfg.dt
    # an unknown bound stays unknown; after a take-over the kicked
    # components need not come in (x, y) pairs
    if w.moved < math.inf:
        vh2 = vh * vh
        fastest2 = float((vh2[0::2] + vh2[1::2]).max(initial=0.0))
        # The drift moves no particle further than dt * the top speed; the
        # factor covers the rounding of dt * v, of this sum and of the exact
        # check, and side * 2^-49 the rounding of x + dt * v and the wrap.
        w.moved += (cfg.dt * math.sqrt(max(fastest2, w.v2_built)) * (1.0 + 1e-9)
                    + box.side * 2.0**-49)
    current = w.moved < 0.5 * SKIN * (1.0 - 1e-9)
    if not current:  # a search may follow, and it reads every velocity
        flat_v[kicked] = vh
    x += w.vdt
    if current:  # only the border set can have crossed an edge
        flat_x = x.reshape(-1)
        flat_x[w.border] = _wrap(np.take(flat_x, w.border), box.side)
    else:
        _wrap(x, box.side)
    state.time = state.time + cfg.dt
    terms = _current_terms(state, box, current)
    # the forces on the listed components, made their half kick below
    kick, potential = _listed_interactions(x, box, *state.pair_list[:2], terms)
    if state.pair_list is not listed:
        w.moved = 0.0
        v2 = np.multiply(v, v, out=w.buf)
        w.v2_built = float((v2[:, 0] + v2[:, 1]).max(initial=0.0))
        # the border set: coordinates within SKIN/2 of an edge, plus a margin
        # for the rounding of x - side/2
        off = np.abs(np.subtract(x, 0.5 * box.side, out=w.buf), out=w.buf)
        w.border = np.flatnonzero(
            off.reshape(-1) > 0.5 * box.side - 0.5 * SKIN - box.side * 2.0**-48)
    active = terms.active
    # the kicked components are the listed ones, unless this step took the
    # state over or searched
    same = kicked is active
    if not same:
        forces.reshape(-1)[kicked] = 0.0
    forces.reshape(-1)[active] = kick
    # The new forces are +0.0 off the components the pair list touches, so a
    # kick there would leave v as it is (a -0.0 would turn +0.0): kick only
    # the listed components.
    kick *= terms.accel
    kick *= half_dt
    # with the same components the listed velocities are vh
    vn = vh if same else np.take(flat_v, active)
    vn += kick
    flat_v[active] = vn
    w.kicked, w.kick, w.listed_v = active, kick, vn
    # With the same components only they were kicked since the last check
    # passed; otherwise the old kicked rows were too, so check all.
    # Both components within limit/sqrt(2), less a rounding margin, keep
    # vx^2 + vy^2 within limit^2; NaN fails this and goes to the exact check.
    u = vn if same else v
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
    x.flags.writeable = v.flags.writeable = forces.flags.writeable = False
    w.handed = (x, v, forces, state.pair_list, cfg.dt, box.side)
    return state, forces, potential


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
    potential) energy is recorded on every frame.  The step count is
    checked at the call, before the first frame is asked for.
    """
    if n_steps < 0:
        raise ValueError(f"step count must be nonnegative, got {n_steps}")
    return _frames(cfg, box, n_steps)


def _frames(cfg: MDConfig, box: SimBox, n_steps: int):
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

    Keeps their ids, their previous positions, their running displacement
    (summed minimum-image steps, valid while nothing moves half a box side
    between frames) and one (time, MSD) pair per frame.  A frame whose rows
    of those particles hold other ids is a ParseError.  ``box_side`` is the
    trajectory's, which need not pass SimBox's MD rule.
    """

    def __init__(self, box_side: float, species: Species):
        self.side = box_side
        self.species = species
        self.times: list[float] = []
        self.msd: list[float] = []
        self._mask = self._ids = self._prev = self._disp = None

    def add(self, frame) -> None:
        if self._mask is None:
            self._mask = frame.species == int(self.species)
            self._ids = frame.ids[self._mask]
            self._prev = frame.finite_positions(self._mask)
            self._disp = np.zeros_like(self._prev)
        else:
            if not np.array_equal(frame.ids[self._mask], self._ids):
                raise ParseError(f"frame at timestep {frame.timestep} holds other "
                                 f"{self.species.label} particles than frame 0")
            pos = frame.finite_positions(self._mask)
            self._disp += minimum_image(pos - self._prev, self.side)
            self._prev = pos
        self.times.append(frame.time_fs)
        if len(self._disp):
            sq = np.einsum("nd,nd->n", self._disp, self._disp)
            # summed left to right, as the mean over a frames-inner array was
            self.msd.append(np.add.accumulate(sq)[-1] / len(sq))

    def estimate(self, t_lo=None, t_hi=None, use_3d_factor: bool = False) -> MSDResult:
        """Diffusion coefficient from the slope of mean squared displacement.

        Fits a straight line to MSD(t) over the frames with t_lo <= t <= t_hi
        in fs (an open end: no bound on that side) and divides the slope by
        2d with d=2.  ``use_3d_factor`` divides by 6 instead, reproducing the
        common three-dimensional convention.  The r_squared diagnostic
        exposes how linear the window actually was.
        """
        times = np.array(self.times)
        sel = ((times >= (-np.inf if t_lo is None else t_lo))
               & (times <= (np.inf if t_hi is None else t_hi)))
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
