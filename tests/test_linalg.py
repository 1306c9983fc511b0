import random
from fractions import Fraction
from pathlib import Path

import pytest

from mahlerkit import jsonio
from mahlerkit.algebra import Poly, RationalFunction
from mahlerkit.becker import REGULAR, certify, certify_irregular, certify_regular
from mahlerkit.linalg import PRIME, Echelon, affine_solution, leading_full_rank_mod_p, nullspace, residues
from mahlerkit.mahler import MahlerEquation, _relation_rows, solve_series
from mahlerkit.regular import _poly_rows_dependence
from mahlerkit.series import prefix_oracle

sympy = pytest.importorskip("sympy")

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "mahlerkit" / "data" / "corpus"
Z = sympy.Symbol("z")


def rand_matrix(rng, nrows, ncols, rank):
    """Integer matrix of the given rank: a product of random factors,
    with entries in -3..3 before the product."""
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    return [
        [Fraction(sum(left[i][t] * right[t][j] for t in range(rank))) for j in range(ncols)]
        for i in range(nrows)
    ]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(vec):
    return [Fraction(int(x.p), int(x.q)) for x in vec]


# (nrows, ncols, rank) with several rank-deficient shapes
SHAPES = [(4, 4, 4), (4, 4, 2), (5, 3, 3), (3, 5, 3), (6, 6, 3), (5, 7, 2), (4, 4, 0)]


@pytest.mark.parametrize("seed", range(5))
def test_kernel_matches_sympy_nullspace(seed):
    rng = random.Random(seed)
    for nrows, ncols, rank in SHAPES:
        rows = rand_matrix(rng, nrows, ncols, rank)
        ech = Echelon(ncols)
        grew = [ech.add_row(row) for row in rows]
        expected = [from_sympy(v) for v in to_sympy(rows).nullspace()]
        assert sum(grew) == len(ech.pivot_rows) == to_sympy(rows).rank()
        # both are the echelonized basis: a 1 in each free column, in order
        assert ech.nullspace() == expected
        assert nullspace(rows, ncols) == expected


def solve_system(mat, rhs, ncols):
    """A x = b through the kernel of [A | -b]: x is the vector before its 1."""
    v = affine_solution([row + [-b] for row, b in zip(mat, rhs)], ncols + 1)
    return None if v is None else v[:-1]


@pytest.mark.parametrize("seed", range(5))
def test_solution_matches_sympy(seed):
    rng = random.Random(100 + seed)
    for nrows, ncols, rank in SHAPES:
        mat = rand_matrix(rng, nrows, ncols, rank)
        a = to_sympy(mat)
        # a consistent right-hand side from a planted solution
        planted = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        rhs = [sum((x * y for x, y in zip(row, planted)), Fraction(0)) for row in mat]
        b = to_sympy([rhs]).T
        x = solve_system(mat, rhs, ncols)
        if rank == nrows == ncols:
            assert x == from_sympy(a.LUsolve(b))
        else:
            # the particular solution with every free variable set to 0
            sol, params = a.gauss_jordan_solve(b)
            assert x == from_sympy(sol.subs({p: 0 for p in params}))
        # an inconsistent right-hand side wherever the rank allows one
        if rank < nrows:
            bad = rhs[:]
            for j in range(nrows):
                bad[j] += 1
                if a.row_join(to_sympy([bad]).T).rank() > rank:
                    break
                bad[j] -= 1
            assert solve_system(mat, bad, ncols) is None


def reference_echelon(rows, ncols):
    """The unscreened path: every row through one Echelon over Q."""
    ech = Echelon(ncols)
    for row in rows:
        ech.add_row(row)
    return ech


def reference_nullspace(rows, ncols):
    return reference_echelon(rows, ncols).nullspace()


def reference_affine(rows, ncols):
    ech = reference_echelon(rows, ncols)
    if ncols - 1 in ech.pivot_rows:
        return None
    ech._back_substitute()
    return ech._kernel_vector(ncols - 1)


@pytest.fixture
def exact_rows(monkeypatch):
    """Counts the rows fed to Echelon.add_row."""
    fed = []
    add_row = Echelon.add_row

    def counting(self, row):
        fed.append(row)
        return add_row(self, row)

    monkeypatch.setattr(Echelon, "add_row", counting)
    return fed


def screened_and_reference(rows, ncols, exact_rows):
    """(nullspace, affine_solution) with the screen, the same from the
    unscreened path, and the rows the screened calls fed to Echelon."""
    expected = reference_nullspace(rows, ncols), reference_affine(rows, ncols)
    del exact_rows[:]
    got = nullspace(rows, ncols), affine_solution(rows, ncols)
    return got, expected, exact_rows[:]


@pytest.mark.parametrize("seed", range(5))
def test_screened_kernels_match_the_unscreened_path(seed, exact_rows):
    rng = random.Random(300 + seed)
    for nrows, ncols, rank in SHAPES + [(12, 5, 5), (12, 5, 4), (30, 8, 6), (3, 1, 1)]:
        rows = rand_matrix(rng, nrows, ncols, rank)
        # rational rows: each scaled by its own factor, some with large denominators
        rows = [[x * Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 7, 10**12 + 39))) for x in row] for row in rows]
        got, expected, fed = screened_and_reference(rows, ncols, exact_rows)
        assert got == expected
        if rank == ncols:
            # full column rank mod PRIME settles both answers without exact work
            assert fed == []


def test_rank_drop_mod_p_falls_back_to_the_full_elimination(exact_rows):
    p = PRIME
    cases = [
        # columns that are multiples of p: rank 1 mod p, 2 over Q, kernel {0}
        ([[1, p], [2, 3 * p]], 2),
        # rank 1 mod p, 2 over Q, a one-dimensional kernel over Q
        ([[1, p, 1], [2, 3 * p, 2]], 3),
        # a rank-deficient block plus p times a random one
        ([[i + j + p * ((i * j) % 5) for j in range(4)] for i in range(6)], 4),
    ]
    for rows, ncols in cases:
        rows = [[Fraction(x) for x in row] for row in rows]
        got, expected, _ = screened_and_reference(rows, ncols, exact_rows)
        assert got == expected
        del exact_rows[:]
        nullspace(rows, ncols)
        # the kernel read off the rows independent mod p fails the exact
        # check, so every row goes through the full elimination after them
        assert len(exact_rows) > len(rows) and exact_rows[-len(rows) :] == rows


def test_denominator_divisible_by_p_skips_the_screen(exact_rows):
    for rows, ncols in (([[Fraction(1, PRIME), 1], [1, PRIME]], 2), ([[Fraction(1, 3 * PRIME), 1, 0]], 3)):
        rows = [[Fraction(x) for x in row] for row in rows]
        got, expected, fed = screened_and_reference(rows, ncols, exact_rows)
        assert got == expected
        assert fed[: len(rows)] == rows


def test_a_pivot_mod_p_in_the_last_column_proves_nothing():
    # p x = 1: mod p the last column takes the pivot, over Q x = 1/p
    assert affine_solution([[Fraction(PRIME), Fraction(-1)]], 2) == [Fraction(1, PRIME), 1]
    assert nullspace([[Fraction(PRIME), Fraction(-1)]], 2) == [[Fraction(1, PRIME), 1]]


def residue_rows(rows):
    return [residues([Fraction(x) for x in row]) for row in rows]


def test_leading_full_rank_mod_p():
    # column 1 vanishes mod p, so only column 0 is proven independent
    assert leading_full_rank_mod_p(residue_rows([[1, 0, 1, 5], [0, PRIME, 0, 1], [2, 0, 2, 0]]), 4) == 1
    assert leading_full_rank_mod_p(residue_rows([[1, 0], [0, 1], [1, 1]]), 2) == 2
    assert leading_full_rank_mod_p([], 3) == 0


def rand_poly(rng, deg):
    return Poly([rng.randint(-2, 2) for _ in range(deg + 1)])


def poly_to_sympy(p):
    return sum(sympy.Rational(c.numerator, c.denominator) * Z**i for i, c in enumerate(p.coeffs))


@pytest.mark.parametrize("seed", range(4))
def test_qz_dependence_matches_sympy(seed):
    rng = random.Random(200 + seed)
    for nrows, width in ((2, 2), (3, 3), (3, 4), (4, 3)):
        # the last row is a Q[z]-combination of the others
        rows = [[rand_poly(rng, 2) for _ in range(width)] for _ in range(nrows - 1)]
        mults = [rand_poly(rng, 1) for _ in range(nrows - 1)]
        last = [Poly() for _ in range(width)]
        for m, row in zip(mults, rows):
            last = [acc + m * p for acc, p in zip(last, row)]
        rows.append(last)
        dep = _poly_rows_dependence(rows)
        mat = sympy.Matrix([[poly_to_sympy(p) for p in row] for row in rows])
        kernel = mat.T.nullspace(simplify=True)
        assert dep is not None and kernel
        # the combination vanishes, and it is sympy's first kernel vector up to a factor
        for c in range(width):
            assert sum((q * row[c] for q, row in zip(dep, rows)), Poly()).is_zero()
        expected = [sympy.cancel(x) for x in kernel[0]]
        ours = [poly_to_sympy(q) for q in dep]
        free = next(i for i, x in enumerate(ours) if x != 0)
        for i in range(nrows):
            assert sympy.cancel(ours[i] * expected[free] - expected[i] * ours[free]) == 0
        # dropping the dependent row leaves rows independent over Q(z) for sympy too
        indep = rows[:-1]
        if sympy.Matrix([[poly_to_sympy(p) for p in row] for row in indep]).rank() == nrows - 1:
            assert _poly_rows_dependence(indep) is None


def test_echelon_over_rational_functions():
    z = Poly([0, 1])
    one = RationalFunction.from_poly(Poly([1]))
    rz = RationalFunction.from_poly(z)
    r1 = [one, rz]
    r2 = [rz, rz * rz]
    ech = Echelon(2)
    assert ech.add_row(r1) and not ech.add_row(r2)
    (vec,) = ech.nullspace()
    # the free column carries the rational 1, the pivot column -z
    assert vec[1] == 1 and vec[0] == -rz
    assert not (r1[0] * vec[0] + r1[1] * vec[1])
    assert not (r2[0] * vec[0] + r2[1] * vec[1])


def test_certify_equals_the_two_step_sequence():
    for path in sorted(DATA_DIR.glob("*.json")):
        item = jsonio.corpus_item_from_json(jsonio.loads_strict(path.read_text()))
        eq, f = item.equation, item.prefix
        two_step = certify_regular(eq)
        assert certify(eq) == two_step
        if two_step.verdict != REGULAR:
            two_step = certify_irregular(eq, f)
        assert certify(eq, f) == two_step
        assert certify(eq, f).verdict == item.expected["regularity"]


def seeded_becker_series(seed, order):
    """The solution with f(0) = 1 of f = b_1(z) f(z^3) + b_2(z) f(z^9) for
    seeded b_1, b_2 with b_1(0) + b_2(0) = 1."""
    rng = random.Random(seed)
    b1 = Poly([1] + [rng.randint(-2, 2) for _ in range(2)])
    b2 = Poly([0, rng.randint(-2, 2), rng.choice((-1, 1))])
    (f,) = solve_series(MahlerEquation(3, [Poly([1]), -b1, -b2]), order)
    return f, 3


def sympy_becker_solution(f, k, depth, bound):
    """f + sum a_{i,j} z^j f(z^(k^i)) = 0 mod z^order solved by sympy from
    f's coefficients alone, free parameters set to 0; None when inconsistent."""
    unknowns = [sympy.Symbol("a_%d_%d" % (i, j)) for i in range(1, depth + 1) for j in range(bound + 1)]
    terms = {}
    for n in range(f.valuation, f.order):
        x = f.coefficient(n)
        c = sympy.Rational(x.numerator, x.denominator)
        terms[n] = terms.get(n, 0) + c
        for t, a in enumerate(unknowns):
            i, j = 1 + t // (bound + 1), t % (bound + 1)
            m = n * k**i + j
            if m < f.order:
                terms[m] = terms.get(m, 0) + c * a
    eqs = [e for e in terms.values() if e != 0]
    a, b = sympy.linear_eq_to_matrix(eqs, unknowns)
    try:
        sol, params = a.gauss_jordan_solve(b)
    except ValueError:
        return None
    return from_sympy(sol.subs({p: 0 for p in params}))


@pytest.mark.parametrize(
    "name, depth, bound",
    [("thue_morse", 1, 0), ("thue_morse", 1, 1), ("thue_morse", 2, 4), ("stern", 2, 5), ("seeded", 2, 3), ("seeded", 3, 4)],
)
def test_becker_system_matches_sympy(name, depth, bound):
    f, k = seeded_becker_series(7, 48) if name == "seeded" else (prefix_oracle(name, 48), 2)
    expected = sympy_becker_solution(f, k, depth, bound)
    cols = [(i, j) for i in range(1, depth + 1) for j in range(bound + 1)] + [(0, 0)]
    vec = affine_solution(_relation_rows(f, k, cols), len(cols))
    if expected is None:
        assert vec is None
    else:
        assert vec == expected + [1]
