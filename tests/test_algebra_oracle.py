"""Poly arithmetic, the cyclotomic machinery and the norm over the k-th
roots of unity against sympy, and the fixed-point orders that
certify_irregular reads off a cyclotomic profile.

Poly.__mul__ and Poly.divrem run on int when their operands allow it and
on Fraction otherwise; every operand family below is chosen so that both
paths, and the switch between them, are compared with an independent
implementation.
"""

import random
from fractions import Fraction

import pytest

from helpers import reconstruct
from mahlerkit.algebra import Poly, cyclotomic, cyclotomic_profile, norm_over_kth_roots, rational_content
from mahlerkit.becker import _fixed_point_orders
from mahlerkit.errors import InvariantViolation
from mahlerkit.mahler import MahlerEquation

sympy = pytest.importorskip("sympy")

Z = sympy.Symbol("z")


def to_sympy(p: Poly):
    cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(cs or [0], Z, domain="QQ")


def from_sympy(sp) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(sp, Z, domain="QQ").all_coeffs())])


def rand_int_poly(rng, deg, lead=None):
    cs = [rng.randint(-5, 5) for _ in range(deg)] + [lead if lead is not None else rng.choice([-3, -2, 2, 3, 4])]
    return Poly(cs)


def rand_rat_poly(rng, deg):
    cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(deg)]
    return Poly(cs + [Fraction(rng.choice([-7, -1, 2, 5]), rng.randint(2, 6))])


def sparse_binomial(d):
    return Poly([-1] + [0] * (d - 1) + [1])


def operand_pairs(rng):
    """(dividend-or-factor, divisor-or-factor) pairs of every family."""
    pairs = []
    for _ in range(6):
        da, db = rng.randint(0, 12), rng.randint(0, 6)
        # integral, divisor with leading coefficient +-1: the int path
        pairs.append((rand_int_poly(rng, da), rand_int_poly(rng, db, lead=rng.choice([1, -1]))))
        # integral, another leading coefficient: divrem must use Fraction
        pairs.append((rand_int_poly(rng, da), rand_int_poly(rng, db)))
        # rational and mixed operands
        pairs.append((rand_rat_poly(rng, da), rand_rat_poly(rng, db)))
        pairs.append((rand_int_poly(rng, da), rand_rat_poly(rng, db)))
        pairs.append((rand_rat_poly(rng, da), rand_int_poly(rng, db, lead=1)))
        # sparse z^d - 1 on either side
        d = rng.randint(1, 9)
        pairs.append((rand_int_poly(rng, da), sparse_binomial(d)))
        pairs.append((sparse_binomial(d), rand_int_poly(rng, db, lead=-1)))
        pairs.append((rand_rat_poly(rng, da).substitute_power(rng.randint(2, 4)), sparse_binomial(d)))
    # zero and constant operands
    pairs += [
        (Poly(), rand_int_poly(rng, 3, lead=1)),
        (Poly(), Poly([Fraction(2, 3)])),
        (rand_int_poly(rng, 4), Poly([1])),
        (rand_int_poly(rng, 4), Poly([-1])),
        (rand_int_poly(rng, 4), Poly([3])),
        (rand_rat_poly(rng, 4), Poly([Fraction(-2, 7)])),
        (Poly([5]), rand_int_poly(rng, 2, lead=1)),
        (Poly([Fraction(1, 2)]), Poly([Fraction(3, 4)])),
    ]
    return pairs


def assert_fraction_poly(p: Poly):
    assert all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0


@pytest.mark.parametrize("seed", range(4))
def test_mul_divrem_exact_div_match_sympy(seed):
    rng = random.Random(500 + seed)
    for a, b in operand_pairs(rng):
        for x, y in ((a, b), (b, a)):
            prod = x * y
            assert_fraction_poly(prod)
            assert prod == from_sympy(to_sympy(x) * to_sympy(y))
            if y.is_zero():
                with pytest.raises(ValueError):
                    x.divrem(y)
                continue
            q, r = x.divrem(y)
            assert_fraction_poly(q)
            assert_fraction_poly(r)
            sq, sr = sympy.div(to_sympy(x), to_sympy(y))
            assert (q, r) == (from_sympy(sq), from_sympy(sr))
            assert (x * y).exact_div(y) == x
            if not r.is_zero():
                with pytest.raises(InvariantViolation):
                    x.exact_div(y)


def test_divrem_with_non_unit_leading_coefficient_is_exact():
    # an int path that divided by a leading coefficient other than +-1
    # would floor or round here
    q, r = Poly([1, 0, 1]).divrem(Poly([1, 2]))
    assert (q, r) == (Poly([Fraction(-1, 4), Fraction(1, 2)]), Poly([Fraction(5, 4)]))
    q, r = Poly([3, 0, 0, 2]).divrem(Poly([0, 0, -3]))
    assert (q, r) == (Poly([0, Fraction(-2, 3)]), Poly([3]))


def test_cyclotomic_matches_sympy():
    for n in range(1, 121):
        assert cyclotomic(n) == from_sympy(sympy.cyclotomic_poly(n, Z)), n


def sympy_profile(p: Poly):
    """(z-power, cyclotomic orders with multiplicities, cofactor) of p,
    read off sympy's factorization over Q."""
    content, factors = sympy.factor_list(to_sympy(p).as_expr(), Z)
    z_power = 0
    cyclo = {}
    rest = Poly([Fraction(int(content.p), int(content.q))])
    for f, e in factors:
        fp = sympy.Poly(f, Z)
        if fp == sympy.Poly(Z, Z):
            z_power += e
            continue
        deg = fp.degree()
        orders = [
            n
            for n in range(1, 2 * deg * deg + 3)
            if sympy.totient(n) == deg and fp == sympy.Poly(sympy.cyclotomic_poly(n, Z), Z)
        ]
        if orders:
            cyclo[orders[0]] = cyclo.get(orders[0], 0) + e
        else:
            rest = rest * from_sympy(f) ** e
    return z_power, tuple(sorted(cyclo.items())), rest


@pytest.mark.parametrize("seed", range(3))
def test_cyclotomic_profile_matches_sympy_factor_list(seed):
    rng = random.Random(900 + seed)
    for _ in range(8):
        cofactor = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))] + [rng.choice([-3, 2, 5])])
        cofactor = cofactor.scale(Fraction(rng.choice([-5, -1, 2, 3]), rng.randint(1, 7)))
        p = cofactor.shift(rng.randint(0, 3))
        for _ in range(rng.randint(1, 4)):
            p = p * cyclotomic(rng.randint(1, 30)) ** rng.randint(1, 2)
        prof = cyclotomic_profile(p)
        assert (prof.z_power, prof.cyclo, prof.remainder) == sympy_profile(p)
        assert reconstruct(prof) == p


@pytest.mark.parametrize("seed", range(3))
def test_fixed_point_orders_match_sympy_gcd(seed):
    # the orders n with Phi_n | gcd(a_0, z^(k^M - 1) - 1) are exactly the
    # cyclotomic orders of a_0's nonzero zeros fixed by z -> z^(k^M)
    rng = random.Random(950 + seed)
    for _ in range(6):
        cofactor = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [rng.choice([-3, 2, 5])])
        a0 = cofactor.shift(rng.randint(0, 2))
        for _ in range(rng.randint(1, 3)):
            a0 = a0 * cyclotomic(rng.randint(1, 30))
        for k in (2, 3):
            for m in (1, 2, 3):
                big = k**m - 1
                g = sympy.gcd(to_sympy(a0).as_expr(), Z**big - 1)
                expected = [
                    n for n in sympy.divisors(big) if sympy.rem(g, sympy.cyclotomic_poly(n, Z), Z) == 0
                ]
                assert _fixed_point_orders(a0, k, m) == expected, (a0, k, m)


X = sympy.Symbol("x")


@pytest.mark.parametrize("seed", range(3))
def test_norm_over_kth_roots_matches_sympy_resultant(seed):
    # Res_y(q(y), y^k - x) is prod over w^k = 1 of q(w z) at z^k = x up to
    # sign; N's leading coefficient is lc(q)^k (-1)^((k-1) deg q)
    rng = random.Random(970 + seed)
    for k in (2, 3, 4, 5, 7, 10):
        for _ in range(3):
            if rng.random() < 0.2:
                q = Poly([Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))])
            else:
                q = rand_rat_poly(rng, rng.randint(0, 7)).shift(rng.randint(0, 2))
            y = sympy.Symbol("y")
            res = sympy.Poly(sympy.resultant(to_sympy(q).as_expr().subs(Z, y), y**k - X, y), X, domain="QQ")
            lead = sympy.Rational(q.leading().numerator, q.leading().denominator) ** k * (-1) ** ((k - 1) * q.degree())
            expected = (res * (lead / res.LC())).all_coeffs()
            n = norm_over_kth_roots(q, k)
            assert n == Poly([Fraction(int(c.p), int(c.q)) for c in reversed(expected)]), (q, k)
            assert n.substitute_power(k).divrem(q)[1].is_zero()


def test_rational_content():
    polys = [Poly([Fraction(2, 3), Fraction(-4, 9)]), Poly([Fraction(10, 3)])]
    c = rational_content(polys)
    assert c == Fraction(2, 9)
    assert rational_content([p.scale(1 / c) for p in polys]) == 1
    assert rational_content([Poly()]) == 0
    eq = MahlerEquation(2, [Poly([Fraction(-1, 2), Fraction(3, 4)]), Poly([Fraction(5, 6)])])
    assert eq.primitive().coeffs == (Poly([6, -9]), Poly([-10]))
