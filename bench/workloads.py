"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed and returns a list of
rounds, each a list of JSON-ready job documents; the canonical dump of that
list is the whole input of a run.  Expected answers come from how each input was built,
never from running the code under test on it.

Inputs come in rounds.  A round holds the fixed inputs (corpus items,
classic sequences) and one seeded input per cell of the workload's table,
in table order.  A cell fixes the shape of an input: the base k, the
degree d and the factors of a_0 for an equation, k and the dimension for a
representation.  The seed draws everything else.  The cost of an input
depends mostly on its shape, so every seed loads the layers in the same
proportions, which is what keeps runs with different seeds comparable.

Run ``python3 bench/workloads.py --workload pipeline --seed 1`` to print
the input list of one workload.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from mahlerkit import jsonio
from mahlerkit.algebra import Poly, cyclotomic, poly_gcd
from mahlerkit.corpus import family_equation, paradox_family
from mahlerkit.mahler import MahlerEquation, solve_series

ORDER = 256
CORPUS_DIR = Path(jsonio.__file__).parent / "data" / "corpus"
CORPUS_NAMES = ("binary_partitions", "one_plus_z", "paradox_k2", "stern", "thue_morse")

# pipeline: every (k, d) with k^d <= 125, each with a_0 free of cyclotomic
# factors, with Phi_p, and with Phi_p Phi_q, where p < q are the two
# smallest orders sharing a factor with k.  The three cells listed in
# PIPELINE_SLOW run past the per-job budget and are left out; bench/README.md
# lists them with their times.
PIPELINE_KD = [(k, d) for k in (2, 3, 4, 5, 10) for d in (1, 2, 3) if k**d <= 125]
SET_A_ORDERS = {2: (2, 4), 3: (3, 6), 4: (2, 4), 5: (5, 10), 10: (2, 4)}
PIPELINE_SLOW = {(5, 3, (5,)), (5, 3, (5, 10)), (10, 2, (2, 4))}
PIPELINE_CELLS = [
    (k, d, orders)
    for k, d in PIPELINE_KD
    for orders in ((), SET_A_ORDERS[k][:1], SET_A_ORDERS[k])
    if (k, d, orders) not in PIPELINE_SLOW
]

# certify: (k, d, kind, factor of a_0).  A fixed-point factor Phi_n has
# gcd(n, k) = 1; "generic" is 1 + c z with |c| >= 2, whose zero is no root
# of unity; "clean" leaves only z^gamma and set-A factors, so the equation
# is regular by construction.  a_1..a_d are linear.
CERTIFY_CELLS = [
    (2, 1, "fixed_point", 1), (2, 1, "fixed_point", 3), (2, 1, "generic", None),
    (2, 1, "clean", None), (2, 1, "clean", 2),
    (2, 2, "fixed_point", 1), (2, 2, "fixed_point", 3), (2, 2, "generic", None),
    (2, 2, "clean", None), (2, 2, "clean", 2),
    (3, 1, "fixed_point", 2), (3, 1, "fixed_point", 4), (3, 1, "generic", None),
    (3, 1, "clean", None), (3, 1, "clean", 3),
    (3, 2, "fixed_point", 2), (3, 2, "generic", None), (3, 2, "clean", None),
]

# convert: (k, dim) of the seeded sparse representations.  Dimension 2 comes
# three times as often as dimension 1: that is where rep_to_equation's
# elimination and guess do their work, and it puts the median job inside
# the cluster of mid-sized jobs instead of in the gap below it.
CONVERT_CELLS = [(2, 1), (3, 1)] + [(2, 2), (3, 2)] * 3

ROUNDS = {"pipeline": 2, "certify": 4, "convert": 40}


def corpus_items() -> list[dict]:
    return [json.loads((CORPUS_DIR / ("%s.json" % name)).read_text()) for name in CORPUS_NAMES]


def _random_poly(rng, deg):
    """Degree exactly deg, coefficients in -2..2."""
    return Poly([rng.randint(-2, 2) for _ in range(deg)] + [rng.choice((-2, -1, 1, 2))])


def _job(name, eq, f, **extra):
    doc = {"name": name, "equation": jsonio.equation_to_json(eq), "series": jsonio.series_to_json(f)}
    doc.update(extra)
    return doc


def _corpus_job(doc, **extra):
    out = {"name": "corpus:" + doc["name"], "equation": doc["equation"], "series": doc["prefix"], "expected": doc["expected"]}
    out.update(extra)
    return out


def _primitive(coeffs) -> bool:
    """No polynomial of positive degree divides every coefficient."""
    g = coeffs[0]
    for a in coeffs[1:]:
        g = poly_gcd(g, a)
    return g.degree() <= 0


def _laurent_polynomial(f) -> bool:
    """The series mod z^ORDER has no nonzero coefficient in its upper half,
    as with solutions such as 1 or 1/z."""
    return not any(f.coeffs[ORDER // 2 - f.valuation :])


def _solved(rng, k, draw_a0, draw_degrees, allow_polynomial=True):
    """Draw a_0 and a_1..a_d until the equation is primitive and has a
    Laurent solution mod z^ORDER, which must not be a Laurent polynomial
    unless allow_polynomial; returns the equation and its first basis
    series.  Small random coefficients often give a common factor of all
    coefficients (a_1 = -a_0, say): such an equation says less than its
    shape, and was a fast outlier in every cell it fell in."""
    while True:
        coeffs = [draw_a0()] + [_random_poly(rng, deg) for deg in draw_degrees()]
        if not _primitive(coeffs):
            continue
        eq = MahlerEquation(k, coeffs)
        basis = solve_series(eq, ORDER)
        if basis and (allow_polynomial or not _laurent_polynomial(basis[0])):
            return eq, basis[0]


def pipeline_inputs(seed: int, rounds: int = ROUNDS["pipeline"]) -> list[dict]:
    """Equations regular by construction: a_0 is +-z^gamma times the cell's
    set-A cyclotomic factors; the other coefficients are linear."""
    rng = random.Random(seed)
    corpus = corpus_items()
    out = []
    for r in range(rounds):
        jobs = [_corpus_job(doc) for doc in corpus]
        for k, d, orders in PIPELINE_CELLS:

            def draw_a0():
                a0 = Poly([rng.choice((1, -1))]).shift(rng.randint(0, 2))
                for n in orders:
                    a0 = a0 * cyclotomic(n)
                return a0

            eq, f = _solved(rng, k, draw_a0, lambda: [1] * d)
            name = "seed%d:r%d:k%d:d%d:phi%s" % (seed, r, k, d, "".join("_%d" % n for n in orders))
            jobs.append(_job(name, eq, f, expected={"regularity": "REGULAR"}))
        out.append(jobs)
    return out


def _certify_a0(rng, kind, n):
    sign = rng.choice((1, -1))
    if kind == "fixed_point":
        return cyclotomic(n).scale(sign)
    if kind == "generic":
        return Poly([1, rng.choice((-3, -2, 2, 3))]).scale(sign)
    a0 = Poly([sign]).shift(rng.randint(0, 1))
    return a0 * cyclotomic(n) if n else a0


def certify_inputs(seed: int, rounds: int = ROUNDS["certify"]) -> list[dict]:
    """Corpus items, paradox F0 with its two-term equation, and one seeded
    equation per cell of CERTIFY_CELLS in every round.  A series that is a
    Laurent polynomial is drawn again: both certificates settle it at once
    (in 5 ms against 50-500 ms for the rest of its cell), so it would only
    add noise to the job mix."""
    rng = random.Random(seed)
    fixed = [_corpus_job(doc, regular=doc["expected"]["regularity"] == "REGULAR") for doc in corpus_items()]
    fixed.append(_job("paradox_F0_k2", family_equation(2), paradox_family(2, ORDER).F0, regular=True))
    out = []
    for r in range(rounds):
        jobs = list(fixed)
        for k, d, kind, n in CERTIFY_CELLS:
            eq, f = _solved(rng, k, lambda: _certify_a0(rng, kind, n), lambda: [1] * d, allow_polynomial=False)
            name = "seed%d:r%d:k%d:d%d:%s%s" % (seed, r, k, d, kind, "_phi_%d" % n if n else "")
            jobs.append(_job(name, eq, f, regular=kind == "clean", kind=kind))
        out.append(jobs)
    return out


def _rep_doc(k, row, matrices, col):
    return {
        "k": k,
        "dim": len(row),
        "row": [str(x) for x in row],
        "matrices": [[[str(x) for x in r] for r in m] for m in matrices],
        "col": [str(x) for x in col],
    }


def classic_reps() -> dict[str, dict]:
    """Linear representations of the classic sequences, with
    value(n) = row . A_(top digit) ... A_(bottom digit) . col."""
    return {
        "sum_of_digits_2": _rep_doc(2, [1, 0], [[[1, 0], [0, 1]], [[1, 1], [0, 1]]], [0, 1]),
        "sum_of_digits_3": _rep_doc(3, [1, 0], [[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 2], [0, 1]]], [0, 1]),
        "identity": _rep_doc(2, [1, 0], [[[1, 0], [0, 2]], [[1, 1], [0, 2]]], [0, 1]),
        "stern": _rep_doc(2, [0, 1], [[[1, 1], [0, 1]], [[1, 0], [1, 1]]], [1, 0]),
        "rudin_shapiro": _rep_doc(2, [1, 1], [[[1, 1], [0, 0]], [[0, 0], [1, -1]]], [1, 0]),
        "baum_sweet": _rep_doc(2, [1, 0], [[[0, 1], [1, 0]], [[1, 0], [0, 0]]], [1, 0]),
        "thue_morse": _rep_doc(2, [1], [[[1]], [[-1]]], [1]),
    }


def _sparse_rep(rng, k, dim):
    """Entries in {-1, 0, 1}, three in five zero.  At k = 3 the row is drawn
    until it is fixed by A_0 (row A_0 = row), so leading zero digits do not
    change a value; bench/README.md lists the cost of k = 3 reps without
    that property."""

    def entry():
        return rng.choice((-1, 0, 0, 0, 1))

    while True:
        row = [entry() for _ in range(dim)]
        col = [entry() for _ in range(dim)]
        mats = [[[entry() for _ in range(dim)] for _ in range(dim)] for _ in range(k)]
        fixed = k == 2 or all(sum(row[i] * mats[0][i][j] for i in range(dim)) == row[j] for j in range(dim))
        if any(row) and any(col) and fixed:
            return _rep_doc(k, row, mats, col)


def convert_inputs(seed: int, rounds: int = ROUNDS["convert"]) -> list[dict]:
    """Classic sequences, closures of the corpus equations, and seeded
    sparse representations of dimension 1-2 at k = 2 and 3."""
    rng = random.Random(seed)
    fixed = [{"name": "classic:" + name, "rep": rep} for name, rep in classic_reps().items()]
    fixed += [_corpus_job(doc) for doc in corpus_items()]
    out = []
    for r in range(rounds):
        jobs = list(fixed)
        for i, (k, dim) in enumerate(CONVERT_CELLS):
            jobs.append({"name": "seed%d:r%d:%d:k%d:dim%d" % (seed, r, i, k, dim), "rep": _sparse_rep(rng, k, dim)})
        out.append(jobs)
    return out


GENERATORS = {
    "pipeline": pipeline_inputs,
    "certify": certify_inputs,
    "convert": convert_inputs,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.stdout.write(jsonio.dumps_canonical(GENERATORS[args.workload](args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
