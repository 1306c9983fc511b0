"""Mahler functional equations over Q[z].

An equation is the data (k, a_0..a_d) representing

    a_0(z) F(z) + a_1(z) F(z^k) + ... + a_d(z) F(z^(k^d)) = 0

with a_0, a_d nonzero.  This module solves such equations for truncated
Laurent series, verifies candidate solutions with sound truncation
bookkeeping, guesses equations from coefficient prefixes, and implements
the companion-matrix form and the section-operator action on coordinate
vectors relative to the basis F(z), F(z^k), ..., F(z^(k^(d-1))).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import ceil

from . import linalg
from .algebra import (
    P_ONE,
    P_ZERO,
    Poly,
    RationalFunction,
    RF_ZERO,
    ZERO,
    ONE,
    cyclo_multiplicity,
    norm_over_kth_roots,
    poly_gcd_list,
    rational_content,
)
from .errors import InvariantViolation
from .series import LaurentSeries


class MahlerEquation:
    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs):
        if k < 2:
            raise ValueError("base k must be >= 2")
        cs = tuple(c if isinstance(c, Poly) else Poly(c) for c in coeffs)
        if len(cs) < 2:
            raise ValueError("equation needs degree d >= 1")
        if cs[0].is_zero() or cs[-1].is_zero():
            raise ValueError("leading and trailing coefficients must be nonzero")
        self.k = k
        self.coeffs = cs

    @property
    def d(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (
            isinstance(other, MahlerEquation)
            and self.k == other.k
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.k, self.coeffs))

    def __repr__(self):
        return "MahlerEquation(k=%d, %r)" % (self.k, list(self.coeffs))

    def content(self) -> Poly:
        """Monic gcd of all coefficient polynomials."""
        return poly_gcd_list(self.coeffs)

    def primitive(self) -> "MahlerEquation":
        """Canonical associate: content divided out, integer coefficients
        with overall gcd 1, first nonzero coefficient of a_0 positive."""
        g = self.content()
        cs = [c.exact_div(g) if g.degree() > 0 else c for c in self.coeffs]
        scale = 1 / rational_content(cs)
        if cs[0].coeffs[cs[0].val0()] < 0:
            scale = -scale
        return MahlerEquation(self.k, [p.scale(scale) for p in cs])

    def is_associate(self, other: "MahlerEquation") -> bool:
        return self.primitive() == other.primitive()


@dataclass(frozen=True)
class VerifyResult:
    """Largest order the residual is known to vanish to, and the order it
    could have been checked to given the input truncations."""

    residual_order: int
    propagated_order: int

    @property
    def ok(self) -> bool:
        return self.residual_order >= self.propagated_order


def valuation_bound(eq: MahlerEquation) -> int:
    """Upper bound nu for the pole order at 0 of any Laurent solution:
    every solution lies in z^(-nu) Q[[z]]."""
    ad = eq.coeffs[-1]
    a0 = eq.coeffs[0]
    kd = eq.k ** eq.d
    first = Fraction(ad.val0(), kd)
    second = Fraction(ad.val0() - a0.val0(), kd - 1)
    return ceil(max(first, second))


def _exponents(k: int, i: int, j: int, v: int, stop: int) -> range:
    """Where z^j F(z^(k^i)) puts F's coefficients n = v, v+1, ...: at k^i n + j < stop."""
    return range(k**i * v + j, stop, k**i)


def _monomials(eq: MahlerEquation):
    """(i, j, c) for every nonzero monomial c z^j of every a_i, i first."""
    return [(i, j, c) for i, a in enumerate(eq.coeffs) for j, c in enumerate(a.coeffs) if c]


def verify(eq: MahlerEquation, f: LaurentSeries) -> VerifyResult:
    """Feed f through the equation and report where the residual vanishes.
    The residual is formed only below the propagated order, the least
    k^i O + val0(a_i) to which a term a_i F(z^(k^i)) is known."""
    stop = min(eq.k**i * f.order + a.val0() for i, a in enumerate(eq.coeffs) if a)
    residual: dict[int, Fraction] = {}
    for i, j, c in _monomials(eq):
        for m, x in zip(_exponents(eq.k, i, j, f.valuation, stop), f.coeffs):
            if x:
                residual[m] = residual.get(m, ZERO) + c * x
    return VerifyResult(min((m for m, x in residual.items() if x), default=stop), stop)


def require_solution(eq: MahlerEquation, f: LaurentSeries) -> None:
    """Raise ValueError unless f solves eq to its propagated order."""
    if not (check := verify(eq, f)).ok:
        raise ValueError("series does not solve the input equation (residual at %d)" % check.residual_order)


def solve_series(eq: MahlerEquation, order: int) -> list[LaurentSeries]:
    """Basis of the Laurent solutions modulo z^order.

    Coefficient equations are processed in increasing exponent order; each
    either determines the highest new coefficient it touches, introduces
    free parameters, or contributes a constraint among the parameters.
    The surviving parameter assignments span the solution space, and every
    basis element is re-checked through verify() before being returned.
    """
    nu = valuation_bound(eq)
    lo = -nu
    if order <= lo:
        raise ValueError("order must exceed -nu = %d" % lo)
    # the pairs (n, c) of c z^j F(z^(k^i)) at each exponent, in column order
    cells: dict[int, list[tuple[int, Fraction]]] = {}
    for i, j, c in _monomials(eq):
        for m, n in zip(_exponents(eq.k, i, j, lo, order + eq.coeffs[0].val0()), count(lo)):
            cells.setdefault(m, []).append((n, c))

    expr: dict[int, dict[int, Fraction]] = {}
    nparams = 0
    constraints: list[dict[int, Fraction]] = []
    for m in sorted(cells):
        if any(n >= order for n, _ in cells[m]):
            # constrains coefficients past the truncation; below the propagated
            # order only when the window is shorter than val0(a_0)
            continue
        row: dict[int, Fraction] = {}
        pending: dict[int, Fraction] = {}
        for n, c in cells[m]:
            if n in expr:
                for p, v in expr[n].items():
                    row[p] = row.get(p, ZERO) + c * v
            else:
                pending[n] = pending.get(n, ZERO) + c
        pending = {n: c for n, c in pending.items() if c != 0}
        if not pending:
            row = {p: v for p, v in row.items() if v != 0}
            if row:
                constraints.append(row)
            continue
        nstar = max(pending)
        cstar = pending.pop(nstar)
        for n, c in pending.items():
            expr[n] = {nparams: ONE}
            row[nparams] = row.get(nparams, ZERO) + c
            nparams += 1
        expr[nstar] = {p: -v / cstar for p, v in row.items() if v != 0}
    for n in range(lo, order):
        if n not in expr:
            expr[n] = {nparams: ONE}
            nparams += 1

    if nparams == 0:
        return []
    rows = []
    for c in constraints:
        row = [ZERO] * nparams
        for p, v in c.items():
            row[p] = v
        rows.append(row)
    basis_vectors = linalg.nullspace(rows, nparams)
    basis = []
    for vec in basis_vectors:
        cs = []
        for n in range(lo, order):
            cs.append(sum((v * vec[p] for p, v in expr[n].items()), ZERO))
        s = LaurentSeries(lo, cs, order)
        check = verify(eq, s)
        if not check.ok:
            raise InvariantViolation("solver produced a series failing verification")
        basis.append(s)
    return basis


# -- guessing equations from prefixes --------------------------------------


def _check_prefix(f: LaurentSeries, k: int, d_max: int, b_max: int, margin: int) -> None:
    if k < 2:
        raise ValueError("base k must be >= 2")
    length = f.order - f.valuation
    if length < (d_max + 1) * (b_max + 1) + margin:
        raise ValueError(
            "insufficient prefix length %d for bounds (%d, %d) plus margin %d"
            % (length, d_max, b_max, margin)
        )


def _relation_rows(f: LaurentSeries, k: int, cols, coeffs=None):
    """Nonzero rows, by increasing exponent m, of the map sending the
    unknowns a_{i,j} at cols to the prefix of sum a_{i,j} z^j F(z^(k^i));
    the same rows mod linalg.PRIME when coeffs holds f's residues."""
    values, zero = (f.coeffs, ZERO) if coeffs is None else (coeffs, 0)
    rows: dict[int, list] = {}
    for t, (i, j) in enumerate(cols):
        for m, x in zip(_exponents(k, i, j, f.valuation, f.order), values):
            if x:
                rows.setdefault(m, [zero] * len(cols))[t] = x
    return [rows[m] for m in sorted(rows)]


def _independent_columns(f: LaurentSeries, k: int, cols, res) -> int:
    """How many leading columns of cols carry relation rows independent mod
    linalg.PRIME, which proves the kernel over Q on those columns trivial;
    res holds f's residues, and None (no residues) proves nothing."""
    if res is None:
        return 0
    return linalg.leading_full_rank_mod_p(_relation_rows(f, k, cols, res), len(cols))


def _vector_to_polys(vec, cols, d: int, bound: int) -> list[Poly]:
    cs = [[ZERO] * (bound + 1) for _ in range(d + 1)]
    for x, (i, j) in zip(vec, cols):
        cs[i][j] = x
    return [Poly(c) for c in cs]


def guess(
    f: LaurentSeries, k: int, d_max: int, b_max: int, margin: int = 16
) -> MahlerEquation | None:
    """Smallest equation (by degree d, then coefficient degree) that the
    whole known prefix of f satisfies; None when no such relation exists
    within the bounds.  The prefix must exceed the unknown count by the
    verification margin.

    The columns of every (d, bound) are among those of (d_max, b_max), so
    when that largest system has a trivial kernel mod linalg.PRIME, so has
    every other and None is returned at once.  Likewise one screen per d
    skips the bounds whose columns are independent mod PRIME."""
    _check_prefix(f, k, d_max, b_max, margin)
    res = linalg.residues(f.coeffs)

    def trivial_bounds(d):
        # ordered by j, the columns of (d, bound) lead those of (d, b_max)
        cols = [(i, j) for j in range(b_max + 1) for i in range(d + 1)]
        return _independent_columns(f, k, cols, res) // (d + 1)

    top = trivial_bounds(d_max)
    if top > b_max:
        return None
    for d in range(1, d_max + 1):
        for bound in range(top if d == d_max else trivial_bounds(d), b_max + 1):
            cols = [(i, j) for i in range(d + 1) for j in range(bound + 1)]
            candidates = []
            for vec in linalg.nullspace(_relation_rows(f, k, cols), len(cols)):
                polys = _vector_to_polys(vec, cols, d, bound)
                if polys[0].is_zero() or polys[-1].is_zero():
                    continue
                eq = MahlerEquation(k, polys).primitive()
                key = (
                    sum(p.degree() for p in eq.coeffs),
                    tuple(x for p in eq.coeffs for x in p.coeffs),
                )
                candidates.append((key, eq))
            if candidates:
                candidates.sort(key=lambda t: t[0])
                return candidates[0][1]
    return None


def pinned_relation_search(f: LaurentSeries, k: int, depth_max: int, deg_max: int) -> MahlerEquation | None:
    """Search for f = sum_{j=1..D} b_j(z) f(z^(k^j)) with polynomial b_j.

    Depth is minimized first; one solve at the full degree bound decides
    whether a given depth works at all, after which the degree is
    minimized.  Returns the equation with a_0 = 1, or None.

    Every attempt's columns are among those of (depth_max, deg_max) with
    a_0's constant column, so when that homogeneous system has a trivial
    kernel, no attempt can succeed and None is returned at once.  The
    prefix must exceed the unknown count by guess's default margin, 16."""
    _check_prefix(f, k, depth_max, deg_max, 16)

    def attempt(depth, bound):
        # a_0's constant column goes last, where affine_solution puts its 1
        cols = [(i, j) for i in range(1, depth + 1) for j in range(bound + 1)] + [(0, 0)]
        vec = linalg.affine_solution(_relation_rows(f, k, cols), len(cols))
        if vec is None:
            return None
        polys = _vector_to_polys(vec, cols, depth, bound)
        if polys[-1].is_zero():
            # a depth-(D-1) relation would have been found earlier
            return None
        return MahlerEquation(k, polys)

    cols = [(i, j) for i in range(1, depth_max + 1) for j in range(deg_max + 1)] + [(0, 0)]
    if _independent_columns(f, k, cols, linalg.residues(f.coeffs)) == len(cols):
        return None
    for depth in range(1, depth_max + 1):
        hit = attempt(depth, deg_max)
        if hit is None:
            continue
        for bound in range(deg_max):
            smaller = attempt(depth, bound)
            if smaller is not None:
                return smaller
        return hit
    return None


# -- companion form ---------------------------------------------------------


def companion(eq: MahlerEquation) -> list[list[RationalFunction]]:
    """The matrix A(z) with F(z) = A(z) F(z^k) for the solution vector
    (F(z), F(z^k), ..., F(z^(k^(d-1)))): quotients in the first row and a
    shifted identity below."""
    d = eq.d
    a0 = eq.coeffs[0]
    first = [
        RationalFunction(-eq.coeffs[i + 1], a0) for i in range(d)
    ]
    rows = [first]
    for i in range(1, d):
        row = [RF_ZERO] * d
        row[i - 1] = RationalFunction.from_poly(P_ONE)
        rows.append(row)
    return rows


def _mat_mul(a, b):
    n = len(a)
    m = len(b[0])
    inner = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = RF_ZERO
            for t in range(inner):
                if not a[i][t].is_zero() and not b[t][j].is_zero():
                    acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def _mat_subst(a, m: int):
    return [[entry.substitute_power(m) for entry in row] for row in a]


def _companion_products(eq: MahlerEquation):
    """B_1, B_2, ... with B_n = A(z) A(z^k) ... A(z^(k^(n-1)))."""
    a = companion(eq)
    b = a
    n = 1
    while True:
        yield b
        b = _mat_mul(b, _mat_subst(a, eq.k**n))
        n += 1


def b_product(eq: MahlerEquation, n: int) -> list[list[RationalFunction]]:
    """The iterated companion product A(z) A(z^k) ... A(z^(k^(n-1)))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return next(islice(_companion_products(eq), n - 1, None))


def pole_profile(eq: MahlerEquation, n_order: int, n_max: int) -> list[int]:
    """Maximal multiplicity of Phi_{n_order} in the denominators of the
    entries of B_1, ..., B_{n_max}."""
    return [
        max((cyclo_multiplicity(e.den, n_order) for row in b for e in row if e), default=0)
        for _, b in zip(range(n_max), _companion_products(eq))
    ]


# -- section operators on coordinate vectors -------------------------------


@dataclass(frozen=True)
class CoordinateVector:
    """Coordinates (h_1/den, ..., h_d/den) of sum_i (h_i/den)(z) F(z^(k^(i-1))):
    polynomial numerators over one denominator."""

    nums: tuple[Poly, ...]
    den: Poly

    @classmethod
    def reduced(cls, nums, den: Poly) -> "CoordinateVector":
        """nums/den with gcd(den, nums...) divided out and den monic, so
        that equal vectors compare equal."""
        g = poly_gcd_list([den, *nums])
        lead = den.leading()
        return cls(tuple(p.exact_div(g).scale(1 / lead) for p in nums), den.exact_div(g).monic())

    @classmethod
    def unit(cls, d: int) -> "CoordinateVector":
        return cls((P_ONE,) + (P_ZERO,) * (d - 1), P_ONE)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.nums)


def cartier_poly(p: Poly, k: int, r: int) -> Poly:
    """Section of a polynomial: keep exponents congruent to r mod k."""
    return Poly(p.coeffs[r::k])


def cartier_coordinates(eq: MahlerEquation, vec: CoordinateVector) -> list[CoordinateVector]:
    """The images [Lambda_0 vec, ..., Lambda_(k-1) vec] under the section operators.

    The F(z) component is first rewritten through the equation,
    F = -sum_{i>=1} (a_i/a_0) F(z^(k^i)), after which every term has the
    form (u_i/D)(z) F(z^(k^i)) over one denominator D, and
    Lambda_r((u_i/D) F(z^(k^i))) = Lambda_r(u_i/D) F(z^(k^(i-1))).
    With D's norm N and cofactor C = N(z^k)/D, u_i/D = u_i C / N(z^k), and
    the substituted denominator passes through the section operator:
    Lambda_r(u_i/D) = Lambda_r(u_i C)/N, one norm for all k images.
    """
    d, k = eq.d, eq.k
    if len(vec.nums) != d:
        raise ValueError("coordinate vector has wrong length")
    h = vec.nums + (P_ZERO,)
    if h[0].is_zero():
        u, den = h[1:], vec.den
    else:
        a0 = eq.coeffs[0]
        u = [h[i] * a0 - h[0] * eq.coeffs[i] for i in range(1, d + 1)]
        den = vec.den * a0
    norm = norm_over_kth_roots(den, k)
    cof = norm.substitute_power(k).exact_div(den)
    u = [p * cof for p in u]
    return [CoordinateVector.reduced([cartier_poly(p, k, r) for p in u], norm) for r in range(k)]


def coordinate_series(
    eq: MahlerEquation, vec: CoordinateVector, f: LaurentSeries, order: int
) -> LaurentSeries:
    """Expand a coordinate vector into a series using a solution prefix:
    the numerators' sum to order + val0(den), then one division by den."""
    top = order + vec.den.val0()
    acc = LaurentSeries.zero(top)
    for t, num in enumerate(vec.nums):
        if not num.is_zero():
            # F(z^(k^t)) is needed to top - val0(num) only
            m = eq.k**t
            stop = -((num.val0() - top) // m)
            ft = (f.truncate(stop) if stop < f.order else f).compose_power(m)
            acc = acc + ft.mul_poly(num)
    return acc.div_poly(vec.den)
