import random
from fractions import Fraction

import pytest

from mahlerkit.algebra import (
    P_ONE,
    RF_ONE,
    RF_ZERO,
    Poly,
    RationalFunction,
    cyclo_multiplicity,
    cyclotomic,
    cyclotomic_profile,
    euler_phi,
    norm_over_kth_roots,
    poly_gcd,
    poly_gcd_list,
    rat_to_str,
)
from mahlerkit.becker import normalize
from mahlerkit.mahler import MahlerEquation


def P(*cs):
    return Poly(cs)


def rand_poly(rng, deg, lo=-4, hi=4):
    while True:
        p = Poly([Fraction(rng.randint(lo, hi)) for _ in range(deg + 1)])
        if not p.is_zero():
            return p


def test_rational_strings():
    assert rat_to_str(Fraction(3, 4)) == "3/4"
    assert rat_to_str(Fraction(-5)) == "-5"


def test_divrem_examples():
    # (1 - z^2) = (1 + z)(1 - z) exactly
    q, r = P(1, 0, -1).divrem(P(1, -1))
    assert q == P(1, 1) and r.is_zero()
    with pytest.raises(ValueError):
        P(1).divrem(Poly())


def test_gcd_examples():
    # unit divisor
    assert poly_gcd(P(1, -1), P(-1)) == P_ONE
    # Euclid by hand: gcd(z^2 - 1, z^3 - 1) = z - 1 (monic normalization)
    assert poly_gcd(P(-1, 0, 1), P(-1, 0, 0, 1)) == P(-1, 1)


def test_content_of_equation_coefficients():
    a = P(1, -1) * P(1, 1)
    b = P(1, -1) * P(2)
    assert poly_gcd_list([a, b]) == P(-1, 1)


def test_divrem_reconstruction_random():
    rng = random.Random(7)
    for _ in range(60):
        p = rand_poly(rng, rng.randint(0, 6))
        q = rand_poly(rng, rng.randint(0, 4))
        quot, rem = p.divrem(q)
        assert quot * q + rem == p
        assert rem.is_zero() or rem.degree() < q.degree()


def test_gcd_divides_both_random():
    rng = random.Random(8)
    for _ in range(40):
        p = rand_poly(rng, rng.randint(0, 5))
        q = rand_poly(rng, rng.randint(0, 5))
        g = poly_gcd(p, q)
        assert p.divrem(g)[1].is_zero()
        assert q.divrem(g)[1].is_zero()


def test_substitute_power_examples():
    assert P(1, -1).substitute_power(2) == P(1, 0, -1)
    assert P(1, 1, 1).substitute_power(2) == P(1, 0, 1, 0, 1)
    assert P(0, 0, 0, 1).substitute_power(4) == Poly([0] * 12 + [1])


def test_norm_over_kth_roots_examples():
    # (1 - z)(1 + z) = 1 - z^2
    assert norm_over_kth_roots(P(1, -1), 2) == P(1, -1)
    # (1 + z + z^2)(1 - z + z^2) = 1 + z^2 + z^4
    assert norm_over_kth_roots(P(1, 1, 1), 2) == P(1, 1, 1)
    assert norm_over_kth_roots(P(5), 3) == P(125)


def _det_fraction(m):
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            c = m[i][col] * inv
            if c != 0:
                for j in range(col, n):
                    m[i][j] -= c * m[col][j]
    return det


def _resultant_at(q, k, t):
    # Res_u(u^k - t^k, q(u)) = prod over w^k = 1 of q(w t), via the
    # Sylvester matrix with exact rational entries
    f = [-(t**k)] + [Fraction(0)] * (k - 1) + [Fraction(1)]  # u^k - t^k
    g = list(q.coeffs)
    df, dg = k, len(g) - 1
    size = df + dg
    m = [[Fraction(0)] * size for _ in range(size)]
    for i in range(dg):
        for j, c in enumerate(reversed(f)):
            m[i][i + j] = c
    for i in range(df):
        for j, c in enumerate(reversed(g)):
            m[dg + i][i + j] = c
    return _det_fraction(m)


def _interpolate(points):
    # Lagrange interpolation through exact rational points
    xs = [x for x, _ in points]
    acc = Poly()
    for i, (xi, yi) in enumerate(points):
        basis = Poly([yi])
        for j, xj in enumerate(xs):
            if j != i:
                basis = basis * Poly([-xj, 1]).scale(Fraction(1, xi - xj))
        acc = acc + basis
    return acc


def test_norm_identity_random():
    # independent oracle: evaluate prod_{w^k=1} q(w t) as a Sylvester
    # resultant at enough sample points and interpolate
    rng = random.Random(9)
    for _ in range(20):
        k = rng.randint(2, 4)
        q = rand_poly(rng, rng.randint(0, 6))
        n = norm_over_kth_roots(q, k)
        npoints = k * q.degree() + 1
        points = [(Fraction(t), _resultant_at(q, k, Fraction(t))) for t in range(npoints)]
        product = _interpolate(points)
        assert n.substitute_power(k) == product
        # q divides N(z^k) with the cofactor used by the rational sections
        assert n.substitute_power(k).divrem(q)[1].is_zero()


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_small():
    assert cyclotomic(1) == P(-1, 1)
    assert cyclotomic(2) == P(1, 1)
    assert cyclotomic(3) == P(1, 1, 1)
    assert cyclotomic(6) == P(1, -1, 1)
    assert cyclotomic(12) == P(1, 0, -1, 0, 1)


def test_profile_examples():
    prof = cyclotomic_profile(P(1, -1))
    assert (prof.z_power, prof.cyclo, prof.remainder) == (0, ((1, 1),), P(-1))
    p = Poly([0, 0, 0, 1]) * P(1, 1) ** 2 * P(1, 1, 1)
    prof = cyclotomic_profile(p)
    assert prof.z_power == 3
    assert prof.cyclo == ((2, 2), (3, 1))
    assert prof.remainder == P_ONE
    # golden-ratio roots are not roots of unity
    prof = cyclotomic_profile(P(-1, -1, 1))
    assert prof.cyclo == () and prof.remainder == P(-1, -1, 1)


def test_profile_reconstruction_random():
    rng = random.Random(10)
    for _ in range(30):
        p = Poly([Fraction(rng.randint(1, 3))]).shift(rng.randint(0, 3))
        for _ in range(rng.randint(0, 3)):
            p = p * cyclotomic(rng.randint(1, 12))
        if rng.random() < 0.5:
            p = p * P(-1, -1, 1)  # non-cyclotomic quadratic
        prof = cyclotomic_profile(p)
        assert prof.reconstruct() == p
        # remainder certified free of roots of unity
        assert prof.remainder.val0() == 0
        assert cyclotomic_profile(prof.remainder).cyclo == ()


def _set_a(k, n):
    # set A of a_0 = Phi_n, read off the normalization of Phi_n F = F(z^k)
    return normalize(MahlerEquation(k, [cyclotomic(n), P(-1)])).set_a


def test_classify_examples():
    assert _set_a(2, 1) == ()
    assert _set_a(2, 2) == ((2, 1),)
    assert _set_a(2, 3) == ()  # 2^2 = 4 = 1 mod 3
    assert _set_a(3, 6) == ((6, 1),)


def test_classify_matches_orbit_iteration():
    # membership in A <=> the orbit e -> k e mod n never returns to e != n-trivial
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 30)
        k = rng.randint(2, 5)
        set_a = _set_a(k, n)
        # brute force: does k^M = 1 mod n have a solution?
        seen = set()
        e = k % n
        returns = False
        while e not in seen:
            seen.add(e)
            if e == 1 % n:
                returns = True
                break
            e = (e * k) % n
        if returns:
            assert set_a == ()
        else:
            assert set_a == ((n, 1),)


def test_cyclo_multiplicity_and_rational_functions():
    p = cyclotomic(3) ** 2 * P(1, 1)
    assert cyclo_multiplicity(p, 3) == 2
    assert cyclo_multiplicity(p, 2) == 1
    assert cyclo_multiplicity(p, 4) == 0
    rf = RationalFunction(cyclotomic(3), cyclotomic(2) ** 2)
    assert (cyclo_multiplicity(rf.num, 3), cyclo_multiplicity(rf.den, 3)) == (1, 0)
    assert (cyclo_multiplicity(rf.num, 2), cyclo_multiplicity(rf.den, 2)) == (0, 2)
    sq = rf * rf
    assert (cyclo_multiplicity(sq.num, 2), cyclo_multiplicity(sq.den, 2)) == (0, 4)


def test_rational_function_normalization():
    rf = RationalFunction(P(2, 2), P(4, 0, 4))
    # reduced and monic denominator
    assert rf.den.leading() == 1
    assert poly_gcd(rf.num, rf.den) == P_ONE
    assert rf == RationalFunction(P(1, 1), P(2, 0, 2))
    with pytest.raises(ValueError):
        RationalFunction(P_ONE, Poly())


def test_rational_function_truthiness():
    # the elimination engine tests entries for zero by truthiness
    assert not RF_ZERO and RF_ONE
    assert not (RF_ONE - RF_ONE)
    assert RationalFunction(P(0, 1), P(1, 1))
