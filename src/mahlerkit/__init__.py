"""Exact arithmetic for Mahler functional equations and k-regular sequences.

The package solves, verifies, guesses, and transforms functional equations
of the form a_0(z) F(z) + a_1(z) F(z^k) + ... + a_d(z) F(z^(k^d)) = 0 over
Q, converts between equations and linear (weighted-automaton) sequence
representations, and produces normalizations and machine-checked
regularity/irregularity certificates.  All arithmetic is exact; values are
immutable and operations pure.
"""

from .algebra import (
    CyclotomicProfile,
    Poly,
    RationalFunction,
    cyclotomic,
    cyclotomic_profile,
    norm_over_kth_roots,
    poly_gcd,
)
from .becker import (
    INCONCLUSIVE,
    NOT_REGULAR,
    REGULAR,
    BeckerNormalization,
    Certificate,
    certify,
    certify_irregular,
    certify_regular,
    normalize,
    reciprocal_rep,
    shifted_solution,
    structure_decompose,
    witness_equation,
)
from .corpus import (
    CorpusItem,
    ParadoxFamily,
    build_corpus,
    independence_check,
    no_becker_multiple_probe,
    paradox_family,
)
from .errors import InvariantViolation
from .mahler import (
    CoordinateVector,
    MahlerEquation,
    VerifyResult,
    b_product,
    cartier_coordinates,
    companion,
    guess,
    pinned_relation_search,
    pole_profile,
    solve_series,
    valuation_bound,
    verify,
)
from .regular import (
    LinearRepresentation,
    closure_rep,
    eval_rep,
    rep_to_equation,
    series_of_rep,
)
from .series import (
    LaurentSeries,
    cartier,
    prefix_oracle,
    rational_to_series,
    sections_recompose,
)

__version__ = "0.1.0"
