import random
from fractions import Fraction
from pathlib import Path

import pytest

from mahlerkit import jsonio, mahler
from mahlerkit.algebra import Poly, cyclotomic
from mahlerkit.corpus import CLOSURE_CAPS, corpus_names
from mahlerkit.mahler import MahlerEquation, solve_series, verify
from mahlerkit.regular import (
    LinearRepresentation,
    closure_rep,
    eval_rep,
    rep_to_equation,
    series_of_rep,
)
from mahlerkit.series import cartier, prefix_oracle


def P(*cs):
    return Poly(cs)


THUE_MORSE_EQ = MahlerEquation(2, [P(1), P(-1, 1)])
STERN_EQ = MahlerEquation(2, [P(1), P(-1, -1, -1)])
PARTITION_EQ = MahlerEquation(2, [P(1, -1), P(-1)])

TM_REP = LinearRepresentation(2, 1, [1], [[[1]], [[-1]]], [1])
CONST_ONE_REP = LinearRepresentation(2, 1, [1], [[[1]], [[1]]], [1])


def test_validation():
    with pytest.raises(ValueError):
        LinearRepresentation(2, 2, [1], [[[1]], [[1]]], [1, 0])
    with pytest.raises(ValueError):
        LinearRepresentation(2, 1, [1], [[[1]]], [1])


def test_eval_rep_examples():
    # 6 = 110 in base 2: two sign flips
    assert eval_rep(TM_REP, 6) == 1
    assert eval_rep(TM_REP, 0) == 1
    for n in range(64):
        assert eval_rep(TM_REP, n) == (-1) ** bin(n).count("1")


def test_series_of_rep():
    t = series_of_rep(TM_REP, 32)
    assert t.agrees_with(prefix_oracle("thue_morse", 32))
    zero_rep = LinearRepresentation(2, 1, [1], [[[1]], [[1]]], [0])
    assert series_of_rep(zero_rep, 8).is_zero()


def _rand_rep(rng, k, dim):
    def entry():
        return Fraction(rng.choice((0, 0, 1, -1, 2)), rng.choice((1, 1, 3)))

    mats = [[[entry() for _ in range(dim)] for _ in range(dim)] for _ in range(k)]
    return LinearRepresentation(k, dim, [entry() for _ in range(dim)], mats, [entry() for _ in range(dim)])


def test_series_of_rep_matches_eval_rep():
    # the row-side digit recursion against the column-side definition
    rng = random.Random(21)
    for k in (2, 3, 5, 10):
        for dim in (1, 2, 3, 4):
            for _ in range(3):
                rep = _rand_rep(rng, k, dim)
                for order in (1, 2 * k + 1, 60):
                    values = series_of_rep(rep, order).coefficient_list(0, order)
                    assert values == [eval_rep(rep, n) for n in range(order)]
    with pytest.raises(ValueError):
        series_of_rep(TM_REP, 0)


def test_closure_thue_morse_dim1():
    rep = closure_rep(THUE_MORSE_EQ, prefix_oracle("thue_morse", 64))
    assert rep is not None and rep.dim == 1
    assert rep.row == (1,) and rep.col == (1,)
    assert rep.matrices == (((Fraction(1),),), ((Fraction(-1),),))
    assert series_of_rep(rep, 64).agrees_with(prefix_oracle("thue_morse", 64))


def test_closure_stern_dim2():
    rep = closure_rep(STERN_EQ, prefix_oracle("stern", 96))
    assert rep is not None and rep.dim == 2
    assert series_of_rep(rep, 64).agrees_with(prefix_oracle("stern", 64))
    assert eval_rep(rep, 4) == 3  # Stern value s(5)


def test_closure_inconclusive_for_binary_partitions():
    rep = closure_rep(PARTITION_EQ, prefix_oracle("binary_partitions", 64), max_dim=8, max_depth=8)
    assert rep is None


def test_closure_requires_a_solution():
    with pytest.raises(ValueError):
        closure_rep(THUE_MORSE_EQ, prefix_oracle("stern", 64))


def test_closure_sections_match_series():
    # representations built by closure satisfy f(kn+r) = Lambda_r image
    for eq, name in ((THUE_MORSE_EQ, "thue_morse"), (STERN_EQ, "stern")):
        f = prefix_oracle(name, 128)
        rep = closure_rep(eq, f)
        s = series_of_rep(rep, 64)
        for r in range(2):
            sec = cartier(s, 2, r)
            for n in range(32):
                assert sec.coefficient(n) == eval_rep(rep, 2 * n + r)


def test_rep_to_equation_thue_morse():
    eq = rep_to_equation(TM_REP)
    assert eq.is_associate(THUE_MORSE_EQ)


def test_rep_to_equation_stern_degree_one():
    rep = closure_rep(STERN_EQ, prefix_oracle("stern", 96))
    eq = rep_to_equation(rep)
    assert eq.d == 1
    assert eq.is_associate(STERN_EQ)


def test_rep_to_equation_constant_sequence():
    eq = rep_to_equation(CONST_ONE_REP)
    # the all-ones sequence: F = (1 + z) F(z^2) at k = 2
    assert eq.is_associate(MahlerEquation(2, [P(1), P(-1, -1)]))


def test_rep_to_equation_verifies_on_series():
    rng = random.Random(17)
    for _ in range(6):
        dim = rng.randint(1, 2)
        rep = LinearRepresentation(
            2,
            dim,
            [rng.randint(-2, 2) for _ in range(dim)],
            [
                [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(dim)]
                for _ in range(2)
            ],
            [rng.randint(-2, 2) for _ in range(dim)],
        )
        eq = rep_to_equation(rep)
        assert verify(eq, series_of_rep(rep, 64)).ok


def test_rep_to_equation_handles_leading_zero_sensitivity():
    # row * A_0 != row: the augmented system still produces a valid equation
    rep = LinearRepresentation(2, 1, [1], [[[2]], [[1]]], [1])
    assert eval_rep(rep, 0) == 1  # empty product
    assert eval_rep(rep, 2) == 2  # digits 10: row A_1 A_0 col
    eq = rep_to_equation(rep)
    assert verify(eq, series_of_rep(rep, 96)).ok


def test_whole_stack_on_random_becker_equations():
    # leading coefficient 1 guarantees both the closure and the
    # round-trip extraction; cross-check everything on random instances
    rng = random.Random(41)
    produced = 0
    while produced < 8:
        coeffs = [Poly([1])]
        a1 = Poly([rng.randint(-1, 1) for _ in range(3)])
        if a1.is_zero():
            continue
        coeffs.append(a1)
        eq = MahlerEquation(2, coeffs)
        basis = solve_series(eq, 128)
        if not basis or basis[0].valuation < 0:
            continue
        f = basis[0]
        rep = closure_rep(eq, f, max_dim=24, max_depth=48)
        assert rep is not None
        assert series_of_rep(rep, 96).agrees_with(f, 96)
        eq2 = rep_to_equation(rep)
        assert verify(eq2, f).ok
        produced += 1


def test_closure_on_laurent_solution_keeps_nonnegative_part():
    # F = z^-2 solves F - z^2 F(z^2) = 0; the representation computes the
    # coefficients at nonnegative exponents, which are all zero here
    eq = MahlerEquation(2, [Poly([1]), Poly([0, 0, -1])])
    f = solve_series(eq, 64)[0]
    assert f.valuation == -2
    rep = closure_rep(eq, f)
    assert rep is not None
    assert series_of_rep(rep, 32).is_zero()


def test_round_trip_preserves_values():
    cases = [
        (THUE_MORSE_EQ, prefix_oracle("thue_morse", 96)),
        (STERN_EQ, prefix_oracle("stern", 96)),
    ]
    for eq, f in cases:
        rep = closure_rep(eq, f)
        eq2 = rep_to_equation(rep)
        rep2 = closure_rep(eq2, series_of_rep(rep, 300))
        for n in range(256):
            assert eval_rep(rep2, n) == eval_rep(rep, n)
    # constant-1 representation round trip
    eq = rep_to_equation(CONST_ONE_REP)
    rep2 = closure_rep(eq, series_of_rep(CONST_ONE_REP, 300))
    for n in range(256):
        assert eval_rep(rep2, n) == 1


def test_closure_takes_one_norm_per_basis_vector(monkeypatch):
    # one section step gives all k images of a basis vector from one norm
    corpus_dir = Path(__file__).resolve().parents[1] / "src" / "mahlerkit" / "data" / "corpus"
    cases = []
    for name in corpus_names():
        item = jsonio.corpus_item_from_json(jsonio.loads_strict((corpus_dir / ("%s.json" % name)).read_text()))
        if item.expected["closure_dim"] is not None:
            cases.append((item.equation, item.prefix, item.expected["closure_dim"]))
    # a_0 with set-A factors: Phi_3 Phi_6 at k = 3, Phi_2 Phi_5 at k = 10
    for eq, dim in (
        (MahlerEquation(3, [cyclotomic(3) * cyclotomic(6), P(0, 1), P(-1, 1)]), 5),
        (MahlerEquation(10, [cyclotomic(2) * cyclotomic(5), P(-1, -1)]), 2),
    ):
        cases.append((eq, solve_series(eq, 64)[0], dim))
    norm = mahler.norm_over_kth_roots
    for eq, f, dim in cases:
        calls = []
        monkeypatch.setattr(mahler, "norm_over_kth_roots", lambda q, k: calls.append(q) or norm(q, k))
        rep = closure_rep(eq, f, **CLOSURE_CAPS)
        assert rep.dim == dim
        assert len(calls) == rep.dim
