"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints a single "criterion N ...: PASS/FAIL" line; run with
pytest -s (or -v -s) to see the lines on success as well.
"""

import functools
import random
from fractions import Fraction
from math import gcd

from mahlerkit.algebra import (
    P_ONE,
    Poly,
    cyclotomic,
    cyclotomic_profile,
    cyclo_multiplicity,
    RationalFunction,
)
from mahlerkit.becker import (
    NOT_REGULAR,
    REGULAR,
    certify_irregular,
    certify_regular,
    normalize,
    shifted_solution,
    witness_equation,
)
from mahlerkit.corpus import (
    build_corpus,
    family_equation,
    independence_check,
    induced_equation_k2,
    no_becker_multiple_probe,
    paradox_family,
)
from mahlerkit.mahler import (
    CoordinateVector,
    MahlerEquation,
    cartier_coordinates,
    pinned_relation_search,
    pole_profile,
    solve_series,
    valuation_bound,
    verify,
)
from mahlerkit.regular import closure_rep, eval_rep, rep_to_equation, series_of_rep
from mahlerkit.series import (
    LaurentSeries,
    cartier,
    prefix_oracle,
    sections_recompose,
)


def P(*cs):
    return Poly(cs)


THUE_MORSE_EQ = MahlerEquation(2, [P(1), P(-1, 1)])
STERN_EQ = MahlerEquation(2, [P(1), P(-1, -1, -1)])
PARTITION_EQ = MahlerEquation(2, [P(1, -1), P(-1)])
ONE_PLUS_Z_EQ = MahlerEquation(2, [P(1, 1), P(-1)])


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print("%s: FAIL" % label)
                raise
            print("%s: PASS" % label)

        return run

    return wrap


@criterion("criterion 1 (paradigmatic trio, 256/128 exact coefficients)")
def test_criterion_1_paradigmatic_trio():
    basis = solve_series(THUE_MORSE_EQ, 256)
    assert len(basis) == 1
    t = prefix_oracle("thue_morse", 256)
    assert basis[0].coefficient_list(0, 256) == t.coefficient_list(0, 256)

    basis = solve_series(STERN_EQ, 256)
    assert len(basis) == 1
    s = prefix_oracle("stern", 256)
    assert basis[0].coefficient_list(0, 256) == s.coefficient_list(0, 256)

    basis = solve_series(PARTITION_EQ, 128)
    assert len(basis) == 1
    u = prefix_oracle("binary_partitions", 128)
    assert basis[0].coefficient_list(0, 128) == u.coefficient_list(0, 128)


@criterion("criterion 2 (regularity split: closures and certificates)")
def test_criterion_2_regularity_split():
    t = prefix_oracle("thue_morse", 128)
    rep = closure_rep(THUE_MORSE_EQ, t)
    assert rep is not None and rep.dim == 1
    assert series_of_rep(rep, 64).coefficient_list(0, 64) == t.coefficient_list(0, 64)

    s = prefix_oracle("stern", 128)
    rep = closure_rep(STERN_EQ, s)
    assert rep is not None and rep.dim == 2
    assert series_of_rep(rep, 64).coefficient_list(0, 64) == s.coefficient_list(0, 64)

    u = prefix_oracle("binary_partitions", 128)
    cert = certify_irregular(PARTITION_EQ, u)
    assert cert.verdict == NOT_REGULAR
    assert cert.proposition == "prop0"
    assert cert.M == 1

    assert certify_regular(THUE_MORSE_EQ).verdict == REGULAR  # a_0 = 1
    eq = MahlerEquation(2, [Poly([0, 0, 0, 1]) * P(1, 1), P(-1)])  # a_0 = z^3 (1+z)
    assert certify_regular(eq).verdict == REGULAR


@criterion("criterion 3 (normalization worked example, exact)")
def test_criterion_3_normalization_worked_example():
    f = LaurentSeries.from_poly(P(1, -1), 64)
    norm = normalize(ONE_PLUS_Z_EQ)
    assert norm.Q == P(1, -1)
    assert norm.P == P(1, 1)
    assert norm.h == P_ONE
    assert norm.N == 1
    assert norm.gamma == 0
    assert norm.new_eq == MahlerEquation(2, [P(1), P(-1)])
    g = shifted_solution(ONE_PLUS_Z_EQ, norm, f)
    assert g.valuation == 0 and g.coefficient_list(0, 32) == [1] + [0] * 31
    assert norm.Q.substitute_power(2) == norm.Q * norm.P * norm.h


@criterion("criterion 4 (matrix family at k=2: constructions, search, probes)")
def test_criterion_4_family():
    fam = paradox_family(2, 256)
    # two independent constructions of H agree on 200 coefficients
    basis = solve_series(family_equation(2), 200)
    h = next(b for b in basis if b.valuation == 0)
    assert h.coefficient_list(0, 200) == fam.H.coefficient_list(0, 200)

    # F = 1 + zH has a stabilizing section closure
    induced = induced_equation_k2()
    f = fam.F.truncate(256)
    rep = closure_rep(induced, f, max_dim=12, max_depth=24)
    assert rep is not None
    assert series_of_rep(rep, 64).coefficient_list(0, 64) == f.coefficient_list(0, 64)

    # normalization of the induced equation and its relation for G
    norm = normalize(induced)
    assert norm.gamma == 3 and norm.Q == P_ONE
    g = shifted_solution(induced, norm, f)
    res = verify(norm.new_eq, g)
    assert res.ok and res.residual_order >= 200

    # the shifted function F/z admits the expected two-step relation
    rel = pinned_relation_search(fam.F0, 2, 3, 10)
    assert rel == MahlerEquation(2, [P(1), P(-1), P(0, 0, 1, -1)])

    assert independence_check(2, deg_max=12, terms=256)

    probe = no_becker_multiple_probe(2, depth_max=3, deg_max=10, terms=256)
    assert len(probe) == 5 and all(not r.found for r in probe)


@criterion("criterion 5 (conversions and 256-value round trips)")
def test_criterion_5_conversions():
    from mahlerkit.regular import LinearRepresentation

    tm_rep = LinearRepresentation(2, 1, [1], [[[1]], [[-1]]], [1])
    eq = rep_to_equation(tm_rep)
    assert eq.is_associate(THUE_MORSE_EQ)

    const_one = LinearRepresentation(2, 1, [1], [[[1]], [[1]]], [1])
    cases = [
        closure_rep(THUE_MORSE_EQ, prefix_oracle("thue_morse", 128)),
        closure_rep(STERN_EQ, prefix_oracle("stern", 128)),
        const_one,
    ]
    for rep in cases:
        eq = rep_to_equation(rep)
        back = closure_rep(eq, series_of_rep(rep, 320))
        assert back is not None
        for n in range(256):
            assert eval_rep(back, n) == eval_rep(rep, n)


@criterion("criterion 6 (lemma property suites)")
def test_criterion_6_property_suites():
    rng = random.Random(2026)

    # section product rule and recomposition on 100 random instances
    for _ in range(100):
        k = rng.randint(2, 3)
        deg = rng.randint(0, 8)
        fpoly = Poly([Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)])
        v = rng.randint(-3, 3)
        g = LaurentSeries(v, [Fraction(rng.randint(-5, 5)) for _ in range(32)], v + 32)
        if not fpoly.is_zero():
            fg = g.mul_poly(fpoly.substitute_power(k))
            for i in range(k):
                assert cartier(fg, k, i).agrees_with(cartier(g, k, i).mul_poly(fpoly))
        assert sections_recompose(g, k).agrees_with(g)

    # a section never increasing the cyclotomic valuation exists,
    # for 50 random rational functions at orders n <= 6
    checked = 0
    while checked < 50:
        k = rng.randint(2, 3)
        n = rng.randint(1, 6)
        num = Poly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))])
        den = Poly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])
        if num.is_zero() or den.is_zero():
            continue
        e = rng.randint(-2, 2)
        phi = cyclotomic(n)
        if e > 0:
            num = num * phi**e
        elif e < 0:
            den = den * phi ** (-e)
        c = RationalFunction(num, den)
        base = cyclo_multiplicity(c.num, n) - cyclo_multiplicity(c.den, n)
        nprime = n // gcd(n, k)
        # F = F(z^k) maps the coordinate c to its sections
        images = cartier_coordinates(MahlerEquation(k, [P(1), P(-1)]), CoordinateVector((c.num,), c.den))
        vals = [
            cyclo_multiplicity(img.nums[0], nprime) - cyclo_multiplicity(img.den, nprime)
            for img in images
            if not img.is_zero()
        ]
        assert vals and min(vals) <= base
        checked += 1

    # zero-classification stability under z -> z^(k^m) for 50 random Q
    orders = {2: [2, 4, 6, 8, 10, 12], 3: [3, 6, 9, 12]}
    for _ in range(50):
        k = rng.choice([2, 3])
        q = P_ONE
        for _ in range(rng.randint(1, 2)):
            q = q * cyclotomic(rng.choice(orders[k]))
        prof = cyclotomic_profile(q.substitute_power(k ** rng.randint(1, 3)))
        assert prof.remainder.degree() == 0
        assert all(gcd(n, k) > 1 for n, _ in prof.cyclo)

    # valuation bound respected by every basis element across the corpus
    for item in build_corpus():
        nu = valuation_bound(item.equation)
        for sol in solve_series(item.equation, 48):
            assert sol.valuation >= -nu

    # pole profiles: bounded (all zero) for leading-coefficient-1 corpus
    # equations, strictly increasing 1..6 for the binary-partition equation
    for item in build_corpus():
        if item.equation.coeffs[0] == P_ONE:
            assert pole_profile(item.equation, 1, 6) == [0] * 6
    assert pole_profile(PARTITION_EQ, 1, 6) == [1, 2, 3, 4, 5, 6]

    # witness equations always pass the regularity certificate
    for item in build_corpus():
        norm = normalize(item.equation)
        g = shifted_solution(item.equation, norm, item.prefix)
        beq = pinned_relation_search(g, item.k, 4, 12)
        if beq is None:
            # only the non-regular corpus member lacks a relation
            assert item.name == "binary_partitions"
            continue
        res = verify(beq, g)
        assert res.ok and res.residual_order >= 128
        wit = witness_equation(norm, beq)
        assert certify_regular(wit).verdict == REGULAR
        assert verify(wit, item.prefix).ok
