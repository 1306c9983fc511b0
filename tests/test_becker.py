import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest

from dense_series import dense_mul
from mahlerkit.algebra import (
    P_ONE,
    Poly,
    cyclotomic,
    cyclotomic_profile,
)
from mahlerkit.becker import (
    INCONCLUSIVE,
    NOT_REGULAR,
    REGULAR,
    certify_irregular,
    certify_regular,
    normalize,
    reciprocal_rep,
    shifted_solution,
    structure_decompose,
    witness_equation,
)
from mahlerkit.corpus import family_equation, paradox_family
from mahlerkit.errors import InvariantViolation
from mahlerkit.mahler import MahlerEquation, pinned_relation_search, solve_series, verify
from mahlerkit.regular import closure_rep, eval_rep, series_of_rep
from mahlerkit.series import LaurentSeries, prefix_oracle


def P(*cs):
    return Poly(cs)


ONE_PLUS_Z_EQ = MahlerEquation(2, [P(1, 1), P(-1)])
THUE_MORSE_EQ = MahlerEquation(2, [P(1), P(-1, 1)])
PARTITION_EQ = MahlerEquation(2, [P(1, -1), P(-1)])
INDUCED_EQ = MahlerEquation(2, [P(0, 0, 0, 1), P(0, 0, -1), P(0, 0, 1, -1)])


def test_normalize_worked_example():
    f = LaurentSeries.from_poly(P(1, -1), 64)
    norm = normalize(ONE_PLUS_Z_EQ)
    assert norm.set_a == ((2, 1),)
    assert norm.N == 1
    assert norm.gamma == 0
    assert norm.c == 1
    assert norm.Q == P(1, -1)
    assert norm.P == P(1, 1)
    assert norm.h == P_ONE
    assert norm.new_eq == MahlerEquation(2, [P(1), P(-1)])
    # Q(z^2) = Q(z) P(z) h(z) exactly
    assert norm.Q.substitute_power(2) == norm.Q * norm.P * norm.h
    g = shifted_solution(ONE_PLUS_Z_EQ, norm, f)
    assert g.coefficient_list(0, 8) == [1, 0, 0, 0, 0, 0, 0, 0]


def test_shifted_solution_checks_f_and_g():
    norm = normalize(ONE_PLUS_Z_EQ)
    stern = prefix_oracle("stern", 64)
    with pytest.raises(ValueError, match="does not solve the input equation"):
        shifted_solution(ONE_PLUS_Z_EQ, norm, stern)
    # the other entry points that take a solution share the same guard
    for check in (certify_irregular, closure_rep):
        with pytest.raises(ValueError, match="does not solve the input equation"):
            check(ONE_PLUS_Z_EQ, stern)
    # a normalization whose Q does not match its new equation
    f = LaurentSeries.from_poly(P(1, -1), 64)
    with pytest.raises(InvariantViolation):
        shifted_solution(ONE_PLUS_Z_EQ, dataclasses.replace(norm, Q=P_ONE), f)


def test_shifted_solution_keeps_the_window_of_a_laurent_f():
    # F = F0 / z has valuation -2, and its equation has gamma = 1, Q = 1:
    # G = F / z to F's full order less gamma, since Q is exact (a product
    # with 1/Q truncated to F's window would lose the last term)
    f = paradox_family(2, 64).F0.shift(-1)
    eq = MahlerEquation(2, [a.shift(2**i) for i, a in enumerate(family_equation(2).coeffs)])
    norm = normalize(eq)
    assert (norm.Q, norm.gamma) == (P_ONE, 1)
    assert shifted_solution(eq, norm, f) == f.shift(-1)


def test_normalize_z_power_only():
    norm = normalize(INDUCED_EQ)
    assert norm.set_a == ()
    assert norm.Q == P_ONE
    assert norm.gamma == 3
    assert norm.new_eq == MahlerEquation(
        2, [P(1), P(0, 0, -1), Poly([0] * 8 + [1, -1])]
    )


def test_normalize_already_clean():
    norm = normalize(THUE_MORSE_EQ)
    assert norm.set_a == () and norm.Q == P_ONE and norm.gamma == 0
    assert norm.new_eq == THUE_MORSE_EQ


def test_normalize_higher_order_set_a():
    # a_0 = Phi_4: order 4 needs two doubling steps to stabilize
    eq = MahlerEquation(2, [P(1, 0, 1), P(-1)])
    norm = normalize(eq)
    assert norm.set_a == ((4, 1),)
    assert norm.N == 2
    assert norm.Q.substitute_power(2) == norm.Q * norm.P * norm.h
    assert norm.Q.constant() == 1 and norm.P.constant() == 1
    prof = cyclotomic_profile(norm.new_eq.coeffs[0])
    assert all(gcd(n, 2) == 1 for n, _ in prof.cyclo)


def test_normalize_with_non_cyclotomic_leading_factor():
    # the construction runs regardless of whether a solution could be
    # regular; a golden-ratio factor just rides along in the a-part
    eq = MahlerEquation(2, [P(-1, -1, 1), P(-1)])
    norm = normalize(eq)
    assert norm.set_a == () and norm.Q == P_ONE
    assert norm.c == -1
    assert norm.a.constant() == 1
    assert norm.new_eq == eq


def test_normalize_invariants_random_cyclotomic_leads():
    rng = random.Random(23)
    for _ in range(12):
        k = rng.randint(2, 3)
        a0 = P_ONE.shift(rng.randint(0, 2))
        for _ in range(rng.randint(1, 2)):
            a0 = a0 * cyclotomic(rng.choice([1, 2, 3, 4, 6]))
        eq = MahlerEquation(k, [a0, P(-1)])
        norm = normalize(eq)
        assert norm.Q.substitute_power(k) == norm.Q * norm.P * norm.h
        assert norm.new_eq.coeffs[0].constant() != 0
        prof = cyclotomic_profile(norm.new_eq.coeffs[0])
        assert all(gcd(n, k) == 1 for n, _ in prof.cyclo)
        # reconstruction: a_0 = c z^gamma a P
        assert norm.a.scale(norm.c).shift(norm.gamma) * norm.P == a0


def test_becker_search_trivial_and_stern():
    one = LaurentSeries.from_poly(P_ONE, 64)
    eq = pinned_relation_search(one, 2, 1, 1)
    assert eq == MahlerEquation(2, [P(1), P(-1)])
    s = prefix_oracle("stern", 64)
    eq = pinned_relation_search(s, 2, 2, 3)
    assert eq == MahlerEquation(2, [P(1), P(-1, -1, -1)])


def test_becker_search_inconclusive():
    u = prefix_oracle("binary_partitions", 128)
    assert pinned_relation_search(u, 2, 2, 4) is None


def test_certify_regular_examples():
    assert certify_regular(THUE_MORSE_EQ).verdict == REGULAR
    eq = MahlerEquation(2, [Poly([0, 0, 0, 1]) * P(1, 1), P(-1)])
    assert certify_regular(eq).verdict == REGULAR
    cert = certify_regular(PARTITION_EQ)
    assert cert.verdict == INCONCLUSIVE and cert.order == 1


def test_certify_regular_content_reduction():
    # multiplying an acceptable equation through by (1 - z) must not
    # change the verdict: the content is divided out first
    eq = MahlerEquation(2, [P(1, 1) * P(1, -1), P(-1) * P(1, -1)])
    assert certify_regular(eq).verdict == REGULAR


def test_certify_irregular_binary_partitions():
    u = prefix_oracle("binary_partitions", 64)
    cert = certify_irregular(PARTITION_EQ, u)
    assert cert.verdict == NOT_REGULAR
    assert cert.proposition == "prop0"
    assert cert.M == 1
    assert cert.order == 1
    assert cert.minimality.startswith("unconditional")
    assert cert.equation.is_associate(PARTITION_EQ)


def test_certify_irregular_inconclusive_cases():
    t = prefix_oracle("thue_morse", 64)
    assert certify_irregular(THUE_MORSE_EQ, t).verdict == INCONCLUSIVE
    f = LaurentSeries.from_poly(P(1, -1), 64)
    cert = certify_irregular(ONE_PLUS_Z_EQ, f)
    assert cert.verdict == INCONCLUSIVE


def test_certify_irregular_requires_solution():
    with pytest.raises(ValueError):
        certify_irregular(PARTITION_EQ, prefix_oracle("stern", 64))


def test_witness_examples():
    # gamma = 0, Q = 1 - z, G - G(z^2) = 0 pulls back to
    # (1 - z^2) F - (1 - z) F(z^2) = 0
    f = LaurentSeries.from_poly(P(1, -1), 64)
    norm = normalize(ONE_PLUS_Z_EQ)
    shifted_solution(ONE_PLUS_Z_EQ, norm, f)  # checks F and G
    wit = witness_equation(norm, MahlerEquation(2, [P(1), P(-1)]))
    assert wit == MahlerEquation(2, [P(1, 0, -1), P(-1, 1)])
    assert certify_regular(wit).verdict == REGULAR
    assert verify(wit, f).ok

    # gamma = 0, Q = 1: the becker equation comes back unchanged
    norm = normalize(THUE_MORSE_EQ)
    beq = MahlerEquation(2, [P(1), P(-1, 1)])
    assert witness_equation(norm, beq) == beq

    # gamma > 0, Q = 1, depth 1: z^(k-1) F - F(z^k) shape
    gamma_eq = MahlerEquation(2, [P(0, 1), P(-1)])
    norm = normalize(gamma_eq)
    assert norm.gamma == 1
    wit = witness_equation(norm, MahlerEquation(2, [P(1), P(-1)]))
    assert wit == MahlerEquation(2, [P(0, 1), P(-1)])


def test_witness_rejects_wrong_leading():
    norm = normalize(THUE_MORSE_EQ)
    with pytest.raises(ValueError):
        witness_equation(norm, MahlerEquation(2, [P(1, 1), P(-1)]))


def test_witness_outputs_certify_across_normalizations():
    cases = [
        (ONE_PLUS_Z_EQ, LaurentSeries.from_poly(P(1, -1), 200)),
        (THUE_MORSE_EQ, prefix_oracle("thue_morse", 200)),
        (MahlerEquation(2, [P(1), P(-1, -1, -1)]), prefix_oracle("stern", 200)),
    ]
    for eq, f in cases:
        norm = normalize(eq)
        g = shifted_solution(eq, norm, f)
        beq = pinned_relation_search(g, eq.k, 4, 12)
        assert beq is not None
        wit = witness_equation(norm, beq)
        assert certify_regular(wit).verdict == REGULAR
        assert verify(wit, f).ok


def test_zero_classification_survives_power_substitution():
    # substituting z -> z^(k^m) into a polynomial whose zeros all have
    # order sharing a factor with k keeps that property
    rng = random.Random(29)
    orders = {2: [2, 4, 6, 8, 10, 12], 3: [3, 6, 9, 12]}
    for _ in range(50):
        k = rng.choice([2, 3])
        q = P_ONE
        for _ in range(rng.randint(1, 2)):
            q = q * cyclotomic(rng.choice(orders[k]))
        m = rng.randint(1, 3)
        prof = cyclotomic_profile(q.substitute_power(k**m))
        assert prof.remainder.degree() == 0
        assert all(gcd(n, k) > 1 for n, _ in prof.cyclo)


def test_structure_decompose_examples():
    u = prefix_oracle("binary_partitions", 16)
    big_j, gamma_poly, rho, delta = structure_decompose(PARTITION_EQ, u)
    assert gamma_poly == P(1, -1) and rho == 1 and delta == 0
    assert big_j.coefficient_list(0, 16) == [1] + [0] * 15

    t = prefix_oracle("thue_morse", 16)
    big_j, gamma_poly, rho, delta = structure_decompose(THUE_MORSE_EQ, t)
    assert gamma_poly == P_ONE
    assert big_j.agrees_with(t)

    f = LaurentSeries.from_poly(P(1, -1), 16)
    big_j, gamma_poly, rho, delta = structure_decompose(ONE_PLUS_Z_EQ, f)
    assert gamma_poly == P(1, 1)
    assert big_j.coefficient_list(0, 16) == [1] + [0] * 15


def test_structure_decompose_reconstructs():
    for eq, f in (
        (PARTITION_EQ, prefix_oracle("binary_partitions", 32)),
        (ONE_PLUS_Z_EQ, LaurentSeries.from_poly(P(1, -1), 32)),
    ):
        big_j, gamma_poly, rho, delta = structure_decompose(eq, f)
        # J divided by each factor of the finite product reproduces F
        order = f.order
        back = big_j
        j = 0
        while eq.k**j < order:
            back = back.div_poly(gamma_poly.substitute_power(eq.k**j))
            j += 1
        assert back.agrees_with(f, order - 1)


def _dense_structure_j(eq, f, gamma_poly):
    """J by its first formula: F times the product of the Gamma(z^(k^j))
    expanded densely mod z^max(O', 1), O' = f.order - max(f.valuation, 0)."""
    order = f.order - max(f.valuation, 0)
    prod = LaurentSeries.from_poly(P_ONE, max(order, 1))
    j = 0
    while eq.k**j < order:
        factor = LaurentSeries.from_poly(gamma_poly.substitute_power(eq.k**j), order)
        prod = dense_mul(prod, factor).truncate(order)
        j += 1
    return dense_mul(f, prod)


def test_structure_decompose_matches_dense_formula():
    # windows with order <= 0 and negative valuations keep the order of
    # the dense product, min(f.order, max(O', 1) + f.valuation)
    windows = [
        LaurentSeries(-3, [1, 2], -1),
        LaurentSeries(-4, [1, -1, 2, 5], 0),
        LaurentSeries(-2, [3, 1, 4, 1, 5, 9, 2], 5),
        LaurentSeries(2, [1, 1, 0, 1, 2, 1], 8),
        LaurentSeries.zero(-2),
        LaurentSeries.zero(6),
        prefix_oracle("binary_partitions", 32),
    ]
    for eq in (PARTITION_EQ, ONE_PLUS_Z_EQ, MahlerEquation(3, [P(0, 0, 2, 2, 0, -6), P(-1)])):
        for f in windows:
            big_j, gamma_poly, rho, delta = structure_decompose(eq, f)
            assert big_j == _dense_structure_j(eq, f, gamma_poly)


def test_reciprocal_rep_examples():
    rep = reciprocal_rep(P(1, -1), 2)
    assert rep.dim == 1
    assert [eval_rep(rep, n) for n in range(8)] == [1] * 8

    rep = reciprocal_rep(P_ONE, 2)
    assert [eval_rep(rep, n) for n in range(6)] == [1, 0, 0, 0, 0, 0]

    rep = reciprocal_rep(P(1, 0, -1), 2)
    expected = LaurentSeries(0, [1 - n % 2 for n in range(64)], 64)  # 1/(1 - z^2)
    assert series_of_rep(rep, 64).agrees_with(expected, 64)


def test_reciprocal_rep_rejects_bad_input():
    with pytest.raises(ValueError):
        reciprocal_rep(P(2, 1), 2)  # constant term != 1
    with pytest.raises(ValueError):
        reciprocal_rep(P(-1, -1, 1).scale(Fraction(-1)), 2)  # golden-ratio zeros
