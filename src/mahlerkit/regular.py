"""Linear representations of base-k regular sequences.

A representation is matrix data (row, A_0..A_{k-1}, col): the n-th term is
row * A_{i_s} ... A_{i_0} * col over the base-k digits i_s...i_0 of n, most
significant digit applied leftmost.  This module evaluates representations,
builds them from Mahler equations by closing the coordinate-vector space
under the section operators, and converts representations back into Mahler
equations with an exact zero test for the extracted relation.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from . import linalg
from .algebra import (
    P_ONE,
    P_ZERO,
    Poly,
    RationalFunction,
    ZERO,
    ONE,
    poly_gcd_list,
    poly_lcm,
)
from .errors import InvariantViolation
from .mahler import (
    CoordinateVector,
    MahlerEquation,
    cartier_coordinates,
    cartier_poly,
    coordinate_series,
    guess,
    require_solution,
    verify,
)
from .series import LaurentSeries


class LinearRepresentation:
    __slots__ = ("k", "dim", "row", "matrices", "col")

    def __init__(self, k: int, dim: int, row, matrices, col):
        if k < 2:
            raise ValueError("base k must be >= 2")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        row = tuple(Fraction(x) for x in row)
        col = tuple(Fraction(x) for x in col)
        mats = tuple(
            tuple(tuple(Fraction(x) for x in mrow) for mrow in m) for m in matrices
        )
        if len(row) != dim or len(col) != dim:
            raise ValueError("row/col length must equal dim")
        if len(mats) != k:
            raise ValueError("need one matrix per digit 0..k-1")
        for m in mats:
            if len(m) != dim or any(len(r) != dim for r in m):
                raise ValueError("matrices must be dim x dim")
        self.k = k
        self.dim = dim
        self.row = row
        self.matrices = mats
        self.col = col

    def __eq__(self, other):
        return (
            isinstance(other, LinearRepresentation)
            and (self.k, self.dim, self.row, self.matrices, self.col)
            == (other.k, other.dim, other.row, other.matrices, other.col)
        )

    def __repr__(self):
        return "LinearRepresentation(k=%d, dim=%d)" % (self.k, self.dim)


def _mat_vec(m, v):
    return tuple(sum((a * b for a, b in zip(mrow, v)), ZERO) for mrow in m)


def eval_rep(rep: LinearRepresentation, n: int) -> Fraction:
    """Value at n; n = 0 uses the empty matrix product."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    vec = rep.col
    while n > 0:
        vec = _mat_vec(rep.matrices[n % rep.k], vec)
        n //= rep.k
    return sum((a * b for a, b in zip(rep.row, vec)), ZERO)


def series_of_rep(rep: LinearRepresentation, order: int) -> LaurentSeries:
    """Values at n < order by the digit recursion on the row side:
    r(0) = row, r(n) = r(n // k) A_(n mod k), value(n) = r(n) col."""
    if order < 1:
        raise ValueError("order must be >= 1")
    rows = [rep.row]
    for n in range(1, order):
        r, m = rows[n // rep.k], rep.matrices[n % rep.k]
        rows.append([sum((x * a[j] for x, a in zip(r, m) if x and a[j]), ZERO) for j in range(rep.dim)])
    return LaurentSeries(0, [sum((x * c for x, c in zip(r, rep.col) if x and c), ZERO) for r in rows], order)


# -- closure of the section action -----------------------------------------


def _linearize(vectors):
    """Rows of a Q-matrix whose columns are the given coordinate vectors,
    their numerators brought over one common denominator."""
    den = P_ONE
    for v in vectors:
        den = poly_lcm(den, v.den)
    cols = [[p * den.exact_div(v.den) for p in v.nums] for v in vectors]
    rows = []
    for t in range(len(cols[0])):
        for exp in range(max(c[t].degree() for c in cols) + 1):
            rows.append([c[t].coefficient(exp) for c in cols])
    return rows


def _coordinates_in_span(basis, w):
    """Rational coordinates of w in the span of basis vectors, or None."""
    if w.is_zero():
        return [ZERO] * len(basis)
    # w = sum x_l basis[l] exactly when (-x, 1) is in the kernel of [basis | w]
    v = linalg.affine_solution(_linearize(list(basis) + [w]), len(basis) + 1)
    return None if v is None else [-x for x in v[:-1]]


def closure_rep(
    eq: MahlerEquation,
    f: LaurentSeries,
    max_dim: int = 16,
    max_depth: int = 32,
) -> LinearRepresentation | None:
    """Close {F} under the section operators and read off a representation.

    Starting from the coordinate vector of F itself, images under all k
    section operators are added to a Q-basis until the span stabilizes.
    The matrices transpose the section action in that basis, the column
    holds F's coordinates, and the row holds the constant terms of the
    basis elements' series expansions, which together make eval_rep agree
    with the solution's coefficient sequence.

    For a Laurent solution the representation computes the coefficients at
    nonnegative exponents only: the digit recursion f(kn+r) never reaches
    below n = 0, so that window is closed under the section action.

    Returns None when a cap is exceeded; that outcome is explicitly not a
    proof of non-regularity.
    """
    require_solution(eq, f)
    k = eq.k
    basis = [CoordinateVector.unit(eq.d)]
    depth = [0]
    action: dict[tuple[int, int], list[Fraction]] = {}
    queue = deque([0])
    while queue:
        j = queue.popleft()
        for r, w in enumerate(cartier_coordinates(eq, basis[j])):
            coords = _coordinates_in_span(basis, w)
            if coords is None:
                if len(basis) >= max_dim or depth[j] + 1 > max_depth:
                    return None
                basis.append(w)
                depth.append(depth[j] + 1)
                coords = [ZERO] * len(basis)
                coords[-1] = ONE
                queue.append(len(basis) - 1)
            action[(j, r)] = coords
    dim = len(basis)
    matrices = []
    for r in range(k):
        # entry (l, j) transposes the action: Lambda_r basis[j] = sum_l coords[l] basis[l]
        mat = [[ZERO] * dim for _ in range(dim)]
        for j in range(dim):
            coords = action[(j, r)]
            for l in range(len(coords)):
                mat[l][j] = coords[l]
        matrices.append(mat)
    row = [coordinate_series(eq, b, f, 2).coefficient(0) for b in basis]
    col = [ONE] + [ZERO] * (dim - 1)
    return LinearRepresentation(k, dim, row, matrices, col)


# -- representation -> equation ---------------------------------------------


def _system_matrix(rep):
    """The polynomial system h(z) = B h(z^k) (+ constant fixup).

    h_m(z) collects the row products row * A_(digits of n), so the section
    action is the transposed digit matrix except for a constant correction
    when row * A_0 != row; appending the constant series 1 absorbs it.
    Returns (B, chat, ellhat)."""
    d = rep.dim
    bmat = [[Poly([m[j][i] for m in rep.matrices]) for j in range(d)] for i in range(d)]
    row_a0 = tuple(
        sum((rep.row[i] * rep.matrices[0][i][j] for i in range(d)), ZERO)
        for j in range(d)
    )
    fixup = [rep.row[j] - row_a0[j] for j in range(d)]
    if any(c != 0 for c in fixup):
        for i in range(d):
            bmat[i].append(Poly([fixup[i]]))
        bmat.append([P_ZERO] * d + [P_ONE])
        chat = list(rep.col) + [ZERO]
        ellhat = list(rep.row) + [ONE]
    else:
        chat = list(rep.col)
        ellhat = list(rep.row)
    return bmat, chat, ellhat


def _row_times_mat(row, mat):
    n = len(mat)
    return [
        sum((row[i] * mat[i][j] for i in range(n)), P_ZERO) for j in range(len(mat[0]))
    ]


def _poly_rows_dependence(rows):
    """First kernel vector of sum p_i rows[i] = 0 over Q(z), cleared to
    coprime polynomials; None when the rows are independent."""
    ech = linalg.Echelon(len(rows))
    for c in range(len(rows[0])):
        ech.add_row([RationalFunction.from_poly(row[c]) for row in rows])
    kernel = ech.nullspace()
    if not kernel:
        return None
    # the kernel's unit entries are rationals, the computed ones are in Q(z)
    vec = [
        x if isinstance(x, RationalFunction) else RationalFunction.constant(x)
        for x in kernel[0]
    ]
    den = P_ONE
    for x in vec:
        if x:
            den = poly_lcm(den, x.den)
    polys = [x.num * den.exact_div(x.den) if x else P_ZERO for x in vec]
    g = poly_gcd_list(polys)
    if g.degree() > 0:
        polys = [p.exact_div(g) for p in polys]
    return polys


def _u_rows(bmat, chat, k, level):
    """Rows u_0..u_level with F(z^(k^i)) = u_i . h(z^(k^level))."""
    chat_row = [Poly([c]) for c in chat]
    rows = [chat_row]
    for r in range(1, level + 1):
        sub = [[e.substitute_power(k ** (r - 1)) for e in row] for row in bmat]
        rows = [_row_times_mat(row, sub) for row in rows]
        rows.append(chat_row)
    return rows


def _flatten_poly_row(row, width):
    out = []
    for p in row:
        if len(p.coeffs) > width:
            raise InvariantViolation(
                "section row of degree %d exceeds the span width %d" % (p.degree(), width)
            )
        out.extend(p.coeffs + (ZERO,) * (width - len(p.coeffs)))
    return out


def _combination_vanishes(bmat, ellhat, w, level, k):
    """Exact zero test for w(z) . h(z^(k^level)) given h(z) = B h(z^k).

    Every coefficient of the combination is the constant term of an
    iterated section image; section images live in a finite-dimensional
    space of polynomial rows, so checking the constant-term functional on
    a spanning set of the reachable rows decides vanishing.  The span is
    one incremental echelon form over the degree-capped flattening: a
    section of row . B has degree at most (deg row + deg B) / k, so rows
    of degree at most max(deg frontier, deg B / (k - 1)) stay there.
    """

    def const_zero(row):
        return (
            sum((row[t].constant() * ellhat[t] for t in range(len(ellhat))), ZERO)
            == 0
        )

    frontier = [w]
    for _ in range(level, 0, -1):
        nxt = []
        for row in frontier:
            if not const_zero(row):
                return False
            for s in range(k):
                nxt.append([cartier_poly(p, k, s) for p in row])
        frontier = nxt
    deg_b = max(p.degree() for row in bmat for p in row)
    width = 1 + max([deg_b // (k - 1)] + [p.degree() for row in frontier for p in row])
    span = linalg.Echelon(len(ellhat) * width)
    queue = deque()
    for row in frontier:
        if not const_zero(row):
            return False
        if span.add_row(_flatten_poly_row(row, width)):
            queue.append(row)
    while queue:
        row = queue.popleft()
        shifted = _row_times_mat(row, bmat)
        for s in range(k):
            child = [cartier_poly(p, k, s) for p in shifted]
            if not const_zero(child):
                return False
            if span.add_row(_flatten_poly_row(child, width)):
                queue.append(child)
    return True


def _reduce_smallest_index(ps, k):
    """Turn a relation sum_{i>=i0} p_i F(z^(k^i)) = 0 into one with a
    nonzero index-0 coefficient by taking sections."""
    while ps and ps[0].is_zero():
        i0 = next(i for i, p in enumerate(ps) if not p.is_zero())
        s = next(s for s in range(k) if not cartier_poly(ps[i0], k, s).is_zero())
        ps = [cartier_poly(p, k, s) for p in ps[1:]]
    while ps and ps[-1].is_zero():
        ps.pop()
    return ps


def rep_to_equation(rep: LinearRepresentation) -> MahlerEquation:
    """A Mahler equation satisfied by the representation's series.

    The formal system h(z) = B(z) h(z^k) yields rows u_i with
    F(z^(k^i)) = u_i . h(z^(k^r)); a polynomial dependence among the u_i
    gives a valid relation of degree at most the system dimension.  A
    smaller-degree relation guessed from the coefficient prefix is
    returned instead whenever the exact zero test proves it.
    """
    k = rep.k
    bmat, chat, ellhat = _system_matrix(rep)
    dh = len(chat)
    if all(c == 0 for c in chat) or all(x == 0 for x in ellhat[: rep.dim]):
        # the zero series solves everything
        return MahlerEquation(k, [P_ONE, Poly([-1])])
    ps = None
    for r in range(1, dh + 1):
        rows = _u_rows(bmat, chat, k, r)
        dep = _poly_rows_dependence(rows)
        if dep is not None:
            ps = dep
            break
    if ps is None:
        raise InvariantViolation("no dependence among %d+1 rows of width %d" % (dh, dh))
    ps = _reduce_smallest_index(ps, k)
    if len(ps) < 2:
        return MahlerEquation(k, [P_ONE, Poly([-1])])
    base = MahlerEquation(k, ps).primitive()

    # one prefix serves the guess and the final check on its first 64 terms
    bmax = max(p.degree() for p in base.coeffs)
    needed = (base.d + 1) * (bmax + 1) + 17 if base.d > 1 else 64
    prefix = series_of_rep(rep, max(64, needed))
    if base.d > 1:
        # guess scans d' = 1, 2, ... and returns its first candidate, so one
        # call at the largest d' < base.d the prefix is long enough for
        # (a valuation > 0 shortens it) finds the smallest candidate
        cand = None
        for dprime in range(base.d - 1, 0, -1):
            try:
                cand = guess(prefix, k, dprime, bmax)
            except ValueError:
                continue
            break
        if cand is not None:
            w_rows = _u_rows(bmat, chat, k, cand.d)
            w = [P_ZERO] * dh
            for i, q in enumerate(cand.coeffs):
                if not q.is_zero():
                    for t in range(dh):
                        w[t] = w[t] + q * w_rows[i][t]
            if _combination_vanishes(bmat, ellhat, w, cand.d, k):
                base = cand

    check = verify(base, prefix.truncate(64))
    if not check.ok:
        raise InvariantViolation("extracted equation fails on the series prefix")
    return base
