"""Lennard-Jones pair parameters per species pair, for the reference force
and energy code in the tests; ``gasdiff.md`` keeps the same values in its
``_EPS_TABLE`` and ``_SIG_TABLE``."""

from dataclasses import dataclass

from gasdiff.md import LJ_CUTOFF, Species


@dataclass(frozen=True)
class LJPairParams:
    epsilon: float  # kcal/mol
    sigma: float    # A
    r_cut: float = LJ_CUTOFF

    def __post_init__(self):
        if self.epsilon <= 0 or self.sigma <= 0 or self.r_cut <= 0:
            raise ValueError("Lennard-Jones parameters must be positive")
        if self.r_cut <= self.sigma:
            raise ValueError("cutoff must exceed sigma")


# Well depths and sizes per species pair; the mixed values equal the
# geometric mean of the pure ones to the table's precision.
_PAIR_TABLE = {
    (Species.HE, Species.HE): LJPairParams(epsilon=0.0196, sigma=2.50),
    (Species.HE, Species.AR): LJPairParams(epsilon=0.0700, sigma=2.92),
    (Species.AR, Species.AR): LJPairParams(epsilon=0.2498, sigma=3.40),
}


def pair_params(a: Species, b: Species) -> LJPairParams:
    key = (a, b) if (a, b) in _PAIR_TABLE else (b, a)
    return _PAIR_TABLE[key]
