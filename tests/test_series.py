import itertools
import random
from fractions import Fraction

import pytest

from dense_series import dense_invert, dense_mul, dense_rational_to_series
from mahlerkit.algebra import P_ONE, Poly
from mahlerkit.series import (
    LaurentSeries,
    cartier,
    prefix_oracle,
    rational_to_series,
    sections_recompose,
)
from mahlerkit.algebra import RationalFunction


def rand_series(rng, length=32, valuation=0, lo=-5, hi=5):
    cs = [Fraction(rng.randint(lo, hi)) for _ in range(length)]
    return LaurentSeries(valuation, cs, valuation + length)


def test_normalization_and_windows():
    s = LaurentSeries(0, [0, 0, 1, 2], 4)
    assert s.valuation == 2 and s.coeffs == (Fraction(1), Fraction(2))
    z = LaurentSeries(3, [0, 0], 5)
    assert z.is_zero() and z.valuation == 5 and z.order == 5
    with pytest.raises(ValueError):
        LaurentSeries(0, [1], 3)


def test_invert_geometric():
    inv = LaurentSeries.from_poly(P_ONE, 5).div_poly(Poly([1, -1]))
    assert inv.coefficient_list(0, 5) == [1, 1, 1, 1, 1]
    assert inv.order == 5


def test_compose_power_example():
    s = LaurentSeries(0, [1, 1, 0], 3).compose_power(2)
    assert s.coefficient_list(0, 3) == [1, 0, 1]
    assert s.order == 6


def test_laurent_multiplication():
    a = LaurentSeries(-1, [1, 1, 0], 2)  # z^-1 + 1 known mod z^2
    b = LaurentSeries(1, [1, 0], 3)  # z known mod z^3
    prod = a.mul_poly(Poly([0, 1]))  # b as the exact polynomial z
    assert prod.valuation == 0
    assert prod.order == 3  # Oa + val0(z): z is known exactly
    assert prod.coefficient_list(0, 3) == [1, 1, 0]
    assert prod.truncate(2) == dense_mul(a, b)  # min(Oa + vb, Ob + va) = 2


def test_truncation_order_propagation():
    a = rand_series(random.Random(1), length=10)
    b = rand_series(random.Random(2), length=6)
    assert (a + b).order == 6
    assert a.mul_poly(Poly(b.coeffs)).order == a.order
    inv = LaurentSeries.from_poly(P_ONE, 4).div_poly(Poly([0, 0, 1, 1, 1, 1]))
    assert inv.valuation == -2 and inv.order == 6 - 4


def test_invert_zero_rejected():
    with pytest.raises(ValueError):
        LaurentSeries.from_poly(P_ONE, 5).div_poly(Poly())
    assert LaurentSeries.zero(5).div_poly(Poly([0, 1, 1])) == LaurentSeries.zero(4)


def _rand_poly(rng, deg, shift):
    cs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(deg)]
    return Poly(cs + [Fraction(rng.choice((-2, -1, 1, 3)))]).shift(shift)


def test_div_poly_matches_dense_reference():
    rng = random.Random(11)
    for v in (-2, 0, 3):
        for s in (0, 1, 3):
            for _ in range(6):
                f = rand_series(rng, length=rng.randint(1, 24), valuation=v)
                q = Poly([rng.choice((-2, 1, Fraction(1, 3)))]).shift(s) + _rand_poly(rng, rng.randint(0, 5), s + 1)
                g = f.div_poly(q)
                assert (g.valuation, g.order) == (f.valuation - s, f.order - s)
                # F / q = F * (1/q) by the dense definition, 1/q known far enough
                qinv = dense_invert(LaurentSeries.from_poly(q, f.order - f.valuation + 2 * s))
                assert g == dense_mul(f, qinv)
                assert g.mul_poly(q) == f  # q G = F exactly
            assert LaurentSeries.zero(v + 7).div_poly(q) == LaurentSeries.zero(v + 7 - s)
            with pytest.raises(ValueError):
                f.div_poly(Poly())


def test_mul_poly_matches_dense_reference():
    rng = random.Random(12)
    for v in (-2, 0, 3):
        for s in (0, 1, 3):
            f = rand_series(rng, length=rng.randint(1, 24), valuation=v)
            p = _rand_poly(rng, rng.randint(0, 30), s)
            prod = f.mul_poly(p)
            assert (prod.valuation, prod.order) == (f.valuation + p.val0(), f.order + p.val0())
            # p is exact, so it may be known to any order in the reference
            assert prod == dense_mul(f, LaurentSeries.from_poly(p, f.order - f.valuation + p.degree() + 1))


def test_dense_wrappers_keep_orders_and_coefficients():
    rng = random.Random(13)
    for _ in range(30):
        a = rand_series(rng, length=rng.randint(0, 16), valuation=rng.randint(-3, 3))
        b = rand_series(rng, length=rng.randint(0, 16), valuation=rng.randint(-3, 3))
        assert a * b == dense_mul(a, b)
        if not a.is_zero():
            assert a.invert() == dense_invert(a)
    with pytest.raises(ValueError):
        LaurentSeries.zero(5).invert()


def test_cartier_definition_examples():
    s = LaurentSeries(0, [1, 2, 3, 4], 4)
    assert cartier(s, 2, 0).coefficient_list(0, 2) == [1, 3]
    assert cartier(s, 2, 1).coefficient_list(0, 2) == [2, 4]


def test_cartier_on_thue_morse():
    t = prefix_oracle("thue_morse", 64)
    even = cartier(t, 2, 0)
    odd = cartier(t, 2, 1)
    assert even.agrees_with(t, 32)
    assert odd.agrees_with(t.scale(-1), 32)


def test_cartier_laurent_window():
    s = LaurentSeries(-3, [1, 2, 3, 4, 5, 6, 7], 4)
    c = cartier(s, 2, 1)
    # exponents -3..3; odd ones are -3, -1, 1, 3 -> n = -2, -1, 0, 1
    assert c.valuation == -2
    assert c.coefficient_list(-2, 2) == [1, 3, 5, 7]


def test_recompose_identity_random():
    rng = random.Random(3)
    for k in (2, 3):
        for _ in range(20):
            s = rand_series(rng, length=32, valuation=rng.randint(-4, 4))
            r = sections_recompose(s, k)
            assert r.order == s.order
            assert r.agrees_with(s)


def test_recompose_laurent_and_zero():
    s = LaurentSeries(-1, [1, 1, 1], 2)
    assert sections_recompose(s, 2) == s
    z = LaurentSeries.zero(8)
    assert sections_recompose(z, 2).is_zero()


def test_cartier_linearity():
    rng = random.Random(4)
    a = rand_series(rng)
    b = rand_series(rng)
    for k, i in ((2, 0), (2, 1), (3, 2)):
        lhs = cartier(a + b.scale(3), k, i)
        rhs = cartier(a, k, i) + cartier(b, k, i).scale(3)
        assert lhs.agrees_with(rhs)


def test_product_rule_for_sections():
    # Lambda_i(F(z^k) G) = F Lambda_i(G) for polynomial F, series G
    rng = random.Random(5)
    for k in (2, 3):
        for _ in range(20):
            deg = rng.randint(0, 8)
            f = Poly([Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)])
            if f.is_zero():
                continue
            g = rand_series(rng, length=32)
            fg = g.mul_poly(f.substitute_power(k))
            for i in range(k):
                lhs = cartier(fg, k, i)
                rhs = cartier(g, k, i).mul_poly(f)
                assert lhs.agrees_with(rhs)


def test_thue_morse_oracle_against_parity():
    t = prefix_oracle("thue_morse", 64)
    for n in range(64):
        assert t.coefficient(n) == (-1) ** bin(n).count("1")


def _hyperbinary(n):
    # representations n = sum d_i 2^i with digits in {0, 1, 2}
    count = 0
    bits = n.bit_length() + 1
    for digits in itertools.product((0, 1, 2), repeat=bits):
        if sum(d * 2**i for i, d in enumerate(digits)) == n:
            count += 1
    return count


def test_stern_oracle_against_hyperbinary():
    # coefficient of z^n is the Stern value s(n+1), which counts the
    # hyperbinary representations of n itself
    s = prefix_oracle("stern", 16)
    assert s.coefficient_list(0, 8) == [1, 1, 2, 1, 3, 2, 3, 1]
    for n in range(12):
        assert s.coefficient(n) == _hyperbinary(n)


def _binary_partitions_by_enumeration(n):
    # literally enumerate multisets of powers of two
    powers = [2**j for j in range(n.bit_length() + 1) if 2**j <= n] or [1]

    def rec(rest, idx):
        if rest == 0:
            return 1
        if idx < 0:
            return 0
        return sum(rec(rest - t * powers[idx], idx - 1) for t in range(rest // powers[idx] + 1))

    return rec(n, len(powers) - 1)


def test_binary_partition_oracle_against_enumeration():
    u = prefix_oracle("binary_partitions", 24)
    assert u.coefficient_list(0, 8) == [1, 1, 2, 2, 4, 4, 6, 6]
    for n in range(20):
        assert u.coefficient(n) == _binary_partitions_by_enumeration(n)


def test_prefix_oracle_rejects_unknown():
    with pytest.raises(ValueError):
        prefix_oracle("fibonacci", 8)
    with pytest.raises(ValueError):
        prefix_oracle("stern", 0)


def test_rational_to_series():
    rf = RationalFunction(Poly([1]), Poly([1, -1]))
    s = rational_to_series(rf, 6)
    assert s.coefficient_list(0, 6) == [1] * 6
    # pole at 0
    rf = RationalFunction(Poly([1]), Poly([0, 1]))
    s = rational_to_series(rf, 3)
    assert s.valuation == -1
    assert s.coefficient_list(-1, 3) == [1, 0, 0, 0]


def test_rational_to_series_matches_dense_reference():
    rng = random.Random(14)
    for _ in range(40):
        num = _rand_poly(rng, rng.randint(0, 4), rng.randint(0, 3))
        den = _rand_poly(rng, rng.randint(0, 4), rng.randint(0, 3))
        order = rng.randint(-2, 12)
        rf = RationalFunction(num, den)
        assert rational_to_series(rf, order) == dense_rational_to_series(rf, order)
