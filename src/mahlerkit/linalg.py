"""Exact homogeneous linear algebra over a field, used by the solvers, the
guessing kernel and the representation layer.

Vectors are lists of field elements: Fraction for Q, RationalFunction for
Q(z).  The engine needs only + - * / and truthiness as the zero test.  The
workhorse is an incremental echelon form that consumes rows one at a time
and reports whether each one raised the rank, so a row that does not lies
in the span of the rows before it.

Systems are homogeneous only: A x = b is the system [A | -b], whose
solutions are read off by affine_solution() as the kernel vector that is 1
in the last column; there is none exactly when that column takes a pivot.

nullspace() and affine_solution() take rows over Q and screen them modulo
the word-size prime PRIME before any exact work (modular guessing, as in
M. Kauers, Guessing Handbook, RISC report 09-07, 2009).  The screen is
sound in one direction only.  Full column rank mod PRIME is a nonzero
minor mod PRIME, hence a nonzero minor over Q, so it proves the kernel
over Q trivial, and [] or None is returned without exact work.  Anything
less proves nothing; in particular a pivot mod PRIME in the last column
does not rule out a solution over Q (take A = [PRIME], b = [1]).
Otherwise the echelon form over Q is built from the rows that are
independent mod PRIME alone, at most one per column, and every kernel
vector read off it is checked exactly against every row.  When all pass,
the two kernels are equal, and so are the reduced echelon forms and the
answers.  When one fails (an unlucky prime), or when some denominator
vanishes mod PRIME, all rows are eliminated over Q: a bad prime costs
time, never soundness.  The searches in mahler reduce their prefix mod
PRIME once and call leading_full_rank_mod_p() to settle whole families
of systems, which share columns, with one screen.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)


class Echelon:
    """Row echelon accumulator for a homogeneous system over a field.

    The entries that the kernel readers set rather than compute (the unit
    in the chosen free column, 0 in the other free columns) are the
    rationals 0 and 1.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, list] = {}

    def add_row(self, row: list) -> bool:
        """Reduce a row against the current pivots and absorb what is left;
        True when the row raised the rank."""
        row = row[:]
        for col in sorted(self.pivot_rows):
            c = row[col]
            if c:
                prow = self.pivot_rows[col]
                for j in range(col, self.ncols):
                    if prow[j]:
                        row[j] -= c * prow[j]
        for col in range(self.ncols):
            p = row[col]
            if p:
                self.pivot_rows[col] = [x / p if x else x for x in row]
                return True
        return False

    def _back_substitute(self) -> None:
        # Clear pivot columns above each pivot so free columns read off directly.
        cols = sorted(self.pivot_rows, reverse=True)
        for col in cols:
            prow = self.pivot_rows[col]
            for other in cols:
                if other >= col:
                    continue
                orow = self.pivot_rows[other]
                c = orow[col]
                if c:
                    for j in range(self.ncols):
                        if prow[j]:
                            orow[j] -= c * prow[j]

    def _kernel_vector(self, free: int) -> list:
        # 1 in the free column, 0 in the other free columns; needs _back_substitute()
        v = [ZERO] * self.ncols
        v[free] = ONE
        for col, prow in self.pivot_rows.items():
            if prow[free]:
                v[col] = -prow[free]
        return v

    def nullspace(self) -> list[list]:
        """Echelonized kernel basis, one vector per free column, in order."""
        self._back_substitute()
        return [self._kernel_vector(c) for c in range(self.ncols) if c not in self.pivot_rows]


PRIME = 2**31 - 1


def residues(values) -> list[int] | None:
    """Rationals mod PRIME; None when some denominator vanishes mod PRIME."""
    try:
        return [x.numerator * pow(x.denominator, -1, PRIME) % PRIME for x in values]
    except ValueError:
        return None


def _echelon_mod_p(rows, ncols: int) -> tuple[list[int], dict[int, list[int]]] | None:
    """Reduced echelon form of rows mod PRIME, read in order until every
    column carries a pivot: the indices of the rows that raised the rank,
    and the pivot rows by column.  None as soon as a row read is None.

    A pivot row is 1 in its own column and 0 in every other pivot column,
    so a row is reduced on the free columns alone, at a cost of rank times
    nullity."""
    pivots: dict[int, list[int]] = {}
    free = list(range(ncols))
    picked = []
    for index, r in enumerate(rows):
        if r is None:
            return None
        terms = [(r[col], prow) for col, prow in pivots.items() if r[col]]
        rest = [(r[j] - sum(c * prow[j] for c, prow in terms)) % PRIME for j in free]
        at = next((i for i, x in enumerate(rest) if x), None)
        if at is None:
            continue
        col = free.pop(at)
        inv = pow(rest.pop(at), -1, PRIME)
        new = [0] * ncols
        for j, x in zip(free, rest):
            new[j] = x * inv % PRIME
        for prow in pivots.values():
            c = prow[col]
            if c:
                for j in free:
                    prow[j] = (prow[j] - c * new[j]) % PRIME
        pivots[col] = new
        picked.append(index)
        if not free:
            break
    return picked, pivots


def leading_full_rank_mod_p(rows, ncols: int) -> int:
    """The largest n such that the first n columns of rows of residues mod
    PRIME are independent.  Rows over Q that reduce to them then have a
    trivial kernel on those columns, because a nonzero minor mod PRIME is
    a nonzero minor over Q; a smaller n proves nothing."""
    _, pivots = _echelon_mod_p(rows, ncols)
    return next((j for j in range(ncols) if j not in pivots), ncols)


def _annihilates(rows, vec) -> bool:
    """Exact test that vec is in the kernel of every row, in integers:
    vec and each row are scaled by the lcm of their denominators."""
    scale = lcm(*(x.denominator for x in vec))
    w = [(j, x.numerator * (scale // x.denominator)) for j, x in enumerate(vec) if x]
    for row in rows:
        xs = [(row[j], y) for j, y in w if row[j]]
        rscale = lcm(*(x.denominator for x, _ in xs))
        if sum(x.numerator * (rscale // x.denominator) * y for x, y in xs):
            return False
    return True


def _screened(rows: list, ncols: int, read) -> list:
    """read(ech) for an Echelon of rows over Q: the kernel vectors that read
    returns, which must not depend on which rows with the same kernel were
    fed.  Empty when the screen proves the kernel trivial."""
    screen = _echelon_mod_p(map(residues, rows), ncols)
    if screen is not None:
        picked, _ = screen
        if len(picked) == ncols:
            return []
        ech = Echelon(ncols)
        for index in picked:
            ech.add_row(rows[index])
        vecs = read(ech)
        if all(_annihilates(rows, v) for v in vecs):
            return vecs
    ech = Echelon(ncols)
    for row in rows:
        ech.add_row(row)
    return read(ech)


def nullspace(rows: list, ncols: int) -> list[list[Fraction]]:
    """Echelonized kernel basis of rows over Q, one vector per free column,
    in order; [] when the kernel is trivial."""
    return _screened(rows, ncols, Echelon.nullspace)


def _last_kernel_vector(ech: Echelon) -> list:
    last = ech.ncols - 1
    if last in ech.pivot_rows:
        return []
    ech._back_substitute()
    return [ech._kernel_vector(last)]


def affine_solution(rows: list, ncols: int) -> list[Fraction] | None:
    """The kernel vector of rows over Q that is 1 in the last column and 0
    in every other free column; None when no kernel vector is nonzero
    there, that is when the last column takes a pivot over Q."""
    vecs = _screened(rows, ncols, _last_kernel_vector)
    return vecs[0] if vecs else None
