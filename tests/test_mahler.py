import random
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from dense_series import dense_mul, dense_rational_to_series
from helpers import agrees_with
from mahlerkit import jsonio, linalg
from mahlerkit.algebra import (
    P_ONE,
    Poly,
    RationalFunction,
    cyclo_multiplicity,
    cyclotomic,
)
from mahlerkit.corpus import corpus_names, family_equation, paradox_family
from mahlerkit.mahler import (
    CoordinateVector,
    MahlerEquation,
    VerifyResult,
    _companion_products,
    cartier_coordinates,
    companion,
    coordinate_series,
    guess,
    pinned_relation_search,
    pole_profile,
    solve_series,
    valuation_bound,
    verify,
)
from mahlerkit.regular import _coordinates_in_span
from mahlerkit.series import LaurentSeries, cartier, prefix_oracle


def P(*cs):
    return Poly(cs)


THUE_MORSE_EQ = MahlerEquation(2, [P(1), P(-1, 1)])  # F - (1-z) F(z^2)
STERN_EQ = MahlerEquation(2, [P(1), P(-1, -1, -1)])  # S - (1+z+z^2) S(z^2)
PARTITION_EQ = MahlerEquation(2, [P(1, -1), P(-1)])  # (1-z) U - U(z^2)
AFUNC_EQ = MahlerEquation(2, [P(1), P(-1), P(0, 0, 1, -1)])


def test_equation_validation():
    with pytest.raises(ValueError):
        MahlerEquation(1, [P(1), P(1)])
    with pytest.raises(ValueError):
        MahlerEquation(2, [P(1)])
    with pytest.raises(ValueError):
        MahlerEquation(2, [Poly(), P(1)])


def test_primitive_and_associate():
    eq = MahlerEquation(2, [P(0, 2) * P(1, 1), P(0, -4)])
    prim = eq.primitive()
    assert prim.content() == P_ONE
    # the common factor 2z divides out, signs fixed by the first coefficient
    assert prim.coeffs == (P(1, 1), P(-2))
    assert eq.primitive() == MahlerEquation(2, [P(1, 1).scale(Fraction(1, 3)), P(-2).scale(Fraction(1, 3))]).primitive()


def test_valuation_bound_examples():
    assert valuation_bound(THUE_MORSE_EQ) == 0
    assert valuation_bound(PARTITION_EQ) == 0
    assert valuation_bound(MahlerEquation(2, [P(0, 1), P(-1)])) == 0
    assert valuation_bound(AFUNC_EQ) == 1


def test_solve_thue_morse():
    basis = solve_series(THUE_MORSE_EQ, 64)
    assert len(basis) == 1
    assert agrees_with(basis[0], prefix_oracle("thue_morse", 64))


def test_solve_binary_partitions():
    basis = solve_series(PARTITION_EQ, 64)
    assert len(basis) == 1
    assert agrees_with(basis[0], prefix_oracle("binary_partitions", 64))


def test_solve_afunc_two_dimensional():
    basis = solve_series(AFUNC_EQ, 7)
    assert len(basis) == 2
    h = next(b for b in basis if b.valuation == 0)
    pole = next(b for b in basis if b.valuation == -1)
    assert h.coefficient_list(0, 7) == [1, 0, -1, 1, -1, 0, 1]
    assert pole.coefficient_list(-1, 7) == [1] + [0] * 7


def test_solve_empty_basis_on_short_window():
    # z^5 F = F(z^2) forces valuation 5; below that window there is no
    # nonzero Laurent solution and the basis comes back empty
    eq = MahlerEquation(2, [Poly([0] * 5 + [1]), P(-1)])
    assert solve_series(eq, 3) == []
    basis = solve_series(eq, 32)
    assert len(basis) == 1 and basis[0].valuation == 5


def test_solve_orders_are_sound():
    for eq in (THUE_MORSE_EQ, STERN_EQ, PARTITION_EQ, AFUNC_EQ):
        for s in solve_series(eq, 48):
            res = verify(eq, s)
            assert res.ok


def test_verify_examples():
    t = prefix_oracle("thue_morse", 64)
    res = verify(THUE_MORSE_EQ, t)
    assert res.ok and res.residual_order >= 64
    # Stern prefix is not a Thue-Morse solution: residual shows up early
    s = prefix_oracle("stern", 64)
    res = verify(THUE_MORSE_EQ, s)
    assert not res.ok and res.residual_order < 8
    # the zero series solves everything to full order
    res = verify(THUE_MORSE_EQ, LaurentSeries.zero(32))
    assert res.ok


def _dense_verify(eq, f):
    """The definition: expand every a_i F(z^(k^i)) in full and add."""
    acc = None
    for i, a in enumerate(eq.coeffs):
        if not a.is_zero():
            term = f.compose_power(eq.k**i).mul_poly(a)
            acc = term if acc is None else acc + term
    # a sum that vanishes on its window has valuation == order
    return VerifyResult(acc.valuation, acc.order)


def _rand_poly(rng, deg, shift):
    cs = [Fraction(rng.randint(-3, 3)) for _ in range(deg)] + [Fraction(rng.choice((-2, -1, 1, 2)))]
    return Poly(cs).shift(shift)


def _solved_equation(rng, k, d, v):
    """z^a p(z^(k^d)) F(z) - z^b p(z) F(z^(k^d)) = 0 with b = a - (k^d - 1) v,
    solved by F = z^v p(z); for d > 1 the coefficients between are zero."""
    p = _rand_poly(rng, rng.randint(0, 2), 0)
    a = max(0, (k**d - 1) * v)
    coeffs = [p.substitute_power(k**d).shift(a)] + [Poly()] * (d - 1)
    return MahlerEquation(k, coeffs + [-p.shift(a - (k**d - 1) * v)])


def _verify_cases():
    rng = random.Random(5)
    for k in (2, 3, 5, 10):
        for d in (1, 2, 3) if k < 10 else (1, 2):
            eqs = [_solved_equation(rng, k, min(d, 2), v) for v in (-1, 0, 2)]
            for _ in range(3):
                coeffs = [_rand_poly(rng, rng.randint(0, 3), rng.randint(0, 2)) for _ in range(d + 1)]
                if d > 1 and rng.random() < 0.5:
                    coeffs[rng.randint(1, d - 1)] = Poly()  # an interior zero a_i
                eqs.append(MahlerEquation(k, coeffs))
            for eq in eqs:
                order = rng.randint(4, 20)
                for val in (-2, 0, 3):
                    cs = [Fraction(rng.randint(-2, 2)) for _ in range(order - val)]
                    yield eq, LaurentSeries(val, [1] + cs[1:], order)
                yield eq, LaurentSeries.zero(order)
                for s in solve_series(eq, order):
                    yield eq, s
                    bumped = s.coefficient_list(s.valuation, s.order)
                    bumped[-1] += 1
                    yield eq, LaurentSeries(s.valuation, bumped, s.order)
    for eq in (THUE_MORSE_EQ, STERN_EQ, PARTITION_EQ, AFUNC_EQ):
        for s in solve_series(eq, 24):
            yield eq, s


def test_verify_matches_dense_definition():
    outcomes = set()
    for eq, f in _verify_cases():
        res = verify(eq, f)
        assert res == _dense_verify(eq, f), (eq, f)
        outcomes.add((eq.k, res.ok, f.valuation < 0, f.is_zero()))
    # for every k: solutions and non-solutions of either sign of valuation, and the zero series
    for k in (2, 3, 5, 10):
        for case in ((ok, neg, False) for ok in (True, False) for neg in (True, False)):
            assert (k, *case) in outcomes
        assert (k, True, False, True) in outcomes


def test_verify_cost_is_bounded_by_the_window():
    # F(z) = F(z^(10^4)) on F = 1 + O(z^64): the definition expands
    # F(z^(10^4)) to 640000 terms; only exponents below 64 can be certified
    eq = MahlerEquation(10, [P(1), Poly(), Poly(), Poly(), P(-1)])
    tracemalloc.start()
    try:
        res = verify(eq, LaurentSeries.from_poly(P(1), 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == VerifyResult(64, 64)
    assert peak < 1 << 20


def test_guess_examples():
    s = prefix_oracle("stern", 64)
    eq = guess(s, 2, 2, 3)
    assert eq is not None and eq.primitive() == STERN_EQ.primitive()
    t = prefix_oracle("thue_morse", 64)
    eq = guess(t, 2, 2, 3)
    assert eq.primitive() == THUE_MORSE_EQ.primitive()


def test_guess_rejects_unrelated_prefix():
    import math

    f = LaurentSeries(0, [Fraction(math.factorial(n)) for n in range(24)], 24)
    assert guess(f, 2, 1, 2, margin=16) is None


def test_guess_insufficient_prefix():
    t = prefix_oracle("thue_morse", 16)
    with pytest.raises(ValueError):
        guess(t, 2, 3, 8)


def test_guess_solve_idempotent_on_corpus():
    for eq in (THUE_MORSE_EQ, STERN_EQ, PARTITION_EQ):
        s = solve_series(eq, 80)[0]
        again = guess(s, eq.k, eq.d + 1, 4)
        assert again is not None and again.primitive() == eq.primitive()


def b_product(eq, n):
    """B_n = A(z) A(z^k) ... A(z^(k^(n-1))), the n-th companion product."""
    return next(islice(_companion_products(eq), n - 1, None))


def test_companion_examples():
    a = companion(THUE_MORSE_EQ)
    assert len(a) == 1 and a[0][0] == RationalFunction(P(1, -1))
    b6 = b_product(PARTITION_EQ, 3)
    # B_n = prod_j 1/(1 - z^(2^j))
    expected = RationalFunction(P_ONE, P(1, -1) * P(1, 0, -1) * Poly([1, 0, 0, 0, -1]))
    assert b6[0][0] == expected
    assert b_product(STERN_EQ, 1) == companion(STERN_EQ)


def test_b_product_recursion_and_row_shift():
    eq = AFUNC_EQ
    a = companion(eq)
    for n in (2, 3):
        bn = b_product(eq, n)
        prev = b_product(eq, n - 1)
        # B_n(z) = A(z) B_{n-1}(z^k)
        prev_sub = [[e.substitute_power(eq.k) for e in row] for row in prev]
        prod = [
            [
                sum((a[i][t] * prev_sub[t][j] for t in range(eq.d)), RationalFunction(Poly()))
                for j in range(eq.d)
            ]
            for i in range(eq.d)
        ]
        assert prod == bn
        # row shift: entry (i, j) of B_n equals entry (i-1, j) of B_{n-1}(z^k)
        for i in range(1, eq.d):
            for j in range(eq.d):
                assert bn[i][j] == prev_sub[i - 1][j]


def test_pole_profile_examples():
    assert pole_profile(PARTITION_EQ, 1, 6) == [1, 2, 3, 4, 5, 6]
    assert pole_profile(THUE_MORSE_EQ, 1, 6) == [0] * 6
    assert pole_profile(STERN_EQ, 1, 6) == [0] * 6


def test_cartier_coordinates_thue_morse():
    e1 = CoordinateVector.unit(1)
    out0, out1 = cartier_coordinates(THUE_MORSE_EQ, e1)
    assert out0 == CoordinateVector((P(1),), P_ONE)
    assert out1 == CoordinateVector((P(-1),), P_ONE)


@pytest.mark.parametrize("r", [0, 1])
def test_cartier_coordinates_match_series(r):
    s = prefix_oracle("stern", 96)
    vec = CoordinateVector((P(1, 2),), P(1, 0, 3))
    out = cartier_coordinates(STERN_EQ, vec)[r]
    lhs = coordinate_series(STERN_EQ, out, s, 32)
    rhs = cartier(coordinate_series(STERN_EQ, vec, s, 70), 2, r)
    assert agrees_with(lhs, rhs, 32)


def test_cartier_coordinates_with_z_power_leading():
    # equations whose a_0 carries a z-power produce Laurent-style
    # coordinates; the series-level consistency must still hold
    eq = MahlerEquation(2, [P(0, 0, 0, 1), P(0, 0, -1), P(0, 0, 1, -1)])
    f = solve_series(eq, 96)
    f = [b for b in f if b.valuation == 0][0]
    vec = CoordinateVector.unit(2)
    for r, out in enumerate(cartier_coordinates(eq, vec)):
        lhs = coordinate_series(eq, out, f, 16)
        rhs = cartier(coordinate_series(eq, vec, f, 40), 2, r)
        assert agrees_with(lhs, rhs, 16)


def _dense_coordinate_series(eq, vec, f, order):
    """coordinate_series by its first formula: expand each entry as a
    rational function and multiply it densely into F(z^(k^t))."""
    acc = None
    for t, num in enumerate(vec.nums):
        entry = RationalFunction(num, vec.den)
        ft = f.compose_power(eq.k**t)
        if entry.is_zero():
            term = LaurentSeries.zero(order)
        else:
            term = dense_mul(dense_rational_to_series(entry, max(order - ft.valuation + 1, 1)), ft)
        acc = term if acc is None else acc + term
    return acc.truncate(order) if acc.order > order else acc


def _closure_basis(eq, max_dim=8):
    """The basis closure_rep builds: section images of the unit vector,
    kept when they leave the span of the earlier ones, up to max_dim of
    them (the binary-partition closure never ends)."""
    basis = [CoordinateVector.unit(eq.d)]
    for vec in basis:
        for w in cartier_coordinates(eq, vec):
            if _coordinates_in_span(basis, w) is None:
                if len(basis) == max_dim:
                    return basis
                basis.append(w)
    return basis


def test_coordinate_series_matches_dense_formula():
    corpus_dir = Path(__file__).resolve().parents[1] / "src" / "mahlerkit" / "data" / "corpus"
    cases = []
    for name in corpus_names():
        item = jsonio.corpus_item_from_json(jsonio.loads_strict((corpus_dir / ("%s.json" % name)).read_text()))
        cases.append((item.equation, item.prefix))
    cases.append((family_equation(2), paradox_family(2, 64).F0))  # valuation -1
    for eq, f in cases:
        for vec in _closure_basis(eq):
            for order in (1, 2, 17):
                assert coordinate_series(eq, vec, f, order) == _dense_coordinate_series(eq, vec, f, order)


def _rand_rational_function(rng, order):
    num = Poly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))])
    den = Poly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])
    if num.is_zero():
        num = P_ONE
    if den.is_zero():
        den = P_ONE
    e = rng.randint(-2, 2)
    phi = cyclotomic(order)
    if e > 0:
        num = num * phi**e
    elif e < 0:
        den = den * phi ** (-e)
    return RationalFunction(num, den)


def _cyclo_val(rf, order):
    return cyclo_multiplicity(rf.num, order) - cyclo_multiplicity(rf.den, order)


def test_section_never_increases_every_valuation():
    # for some r < k the section composed with z -> z^k does not increase
    # the zero order along each cyclotomic
    rng = random.Random(21)
    checked = 0
    for _ in range(50):
        k = rng.randint(2, 3)
        n = rng.randint(1, 6)
        c = _rand_rational_function(rng, n)
        if c.is_zero():
            continue
        base = _cyclo_val(c, n)
        nprime = n // __import__("math").gcd(n, k)
        vals = []
        # F = F(z^k) maps the coordinate c to its sections
        for img in cartier_coordinates(MahlerEquation(k, [P(1), P(-1)]), CoordinateVector((c.num,), c.den)):
            if not img.is_zero():
                vals.append(_cyclo_val(RationalFunction(img.nums[0], img.den), nprime))
        assert vals and min(vals) <= base
        checked += 1
    assert checked >= 40


def _reference_nullspace(rows, ncols):
    ech = linalg.Echelon(ncols)
    for row in rows:
        ech.add_row(row)
    return ech.nullspace()


def _reference_affine(rows, ncols):
    ech = linalg.Echelon(ncols)
    for row in rows:
        ech.add_row(row)
    if ncols - 1 in ech.pivot_rows:
        return None
    ech._back_substitute()
    return ech._kernel_vector(ncols - 1)


def _exact_scan(monkeypatch, search, *args):
    """The search with no modular screen: every system it visits solved
    over Q in full, as before the screen."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "leading_full_rank_mod_p", lambda rows, ncols: 0)
        m.setattr(linalg, "nullspace", _reference_nullspace)
        m.setattr(linalg, "affine_solution", _reference_affine)
        return search(*args)


def test_paradox_rejection_needs_no_exact_row(monkeypatch):
    # the corpus independence check: F0 and F0(z^2) admit no polynomial relation
    fed = []
    add_row = linalg.Echelon.add_row
    monkeypatch.setattr(linalg.Echelon, "add_row", lambda self, row: fed.append(row) or add_row(self, row))
    assert guess(paradox_family(2, 256).F0, 2, 1, 12) is None
    assert fed == []


def _screen_cases():
    """(prefix, k): solutions, unrelated prefixes, and prefixes whose
    coefficients have denominators or numerators divisible by PRIME."""
    rng = random.Random(11)
    p = linalg.PRIME
    thue = prefix_oracle("thue_morse", 64)
    cases = [
        (thue, 2),
        (prefix_oracle("stern", 64), 2),
        (prefix_oracle("binary_partitions", 64), 2),
        (paradox_family(2, 64).F0, 2),
        (solve_series(AFUNC_EQ, 64)[0], 2),
        (LaurentSeries(0, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(64)], 64), 2),
        (LaurentSeries(0, [x * Fraction(1, p) for x in thue.coeffs], 64), 2),
        (LaurentSeries(0, [Fraction(1, p)] + [rng.randint(-2, 2) for _ in range(63)], 64), 2),
        (LaurentSeries(0, [x * p for x in thue.coeffs], 64), 2),
    ]
    for seed in range(3):
        b1 = Poly([1] + [rng.randint(-2, 2) for _ in range(2)])
        b2 = Poly([0, rng.randint(-2, 2), rng.choice((-1, 1))])
        cases.append((solve_series(MahlerEquation(3, [P(1), -b1, -b2]), 96)[0], 3))
    return cases


@pytest.mark.parametrize("case", range(12))
def test_searches_match_the_exact_scan(case, monkeypatch):
    f, k = _screen_cases()[case]
    for d_max, b_max in ((1, 2), (2, 3), (3, 2)):
        assert guess(f, k, d_max, b_max) == _exact_scan(monkeypatch, guess, f, k, d_max, b_max)
        found = pinned_relation_search(f, k, d_max, b_max)
        assert found == _exact_scan(monkeypatch, pinned_relation_search, f, k, d_max, b_max)
