"""Exact linear algebra over a field, used by the solvers, the guessing
kernel and the representation layer.

Vectors are lists of field elements: Fraction for Q, RationalFunction for
Q(z).  The engine needs only + - * / and truthiness as the zero test.  The
workhorse is an incremental echelon form that consumes rows one at a time,
which lets the callers abort early: an inconsistent inhomogeneous system is
usually detected after about as many rows as there are unknowns, a
homogeneous system with full column rank is recognized as soon as every
column carries a pivot, and a row that does not raise the rank lies in the
span of the rows before it.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Echelon:
    """Row echelon accumulator over a field with an optional augmented column.

    Right-hand sides default to the rational 0 and are only touched when
    nonzero, so a homogeneous system over any field needs none of its own.
    The entries that solution() and nullspace() set rather than compute
    (free variables, the unit of each kernel vector) are the rationals 0
    and 1.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, tuple[list, object]] = {}
        self.inconsistent = False

    def add_row(self, row: list, rhs=ZERO) -> bool:
        """Reduce a row against the current pivots and absorb what is left;
        True when the row raised the rank."""
        row = row[:]
        for col in sorted(self.pivot_rows):
            c = row[col]
            if c:
                prow, prhs = self.pivot_rows[col]
                for j in range(col, self.ncols):
                    if prow[j]:
                        row[j] -= c * prow[j]
                if prhs:
                    rhs -= c * prhs
        for col in range(self.ncols):
            p = row[col]
            if p:
                row = [x / p if x else x for x in row]
                if rhs:
                    rhs = rhs / p
                self.pivot_rows[col] = (row, rhs)
                return True
        if rhs:
            self.inconsistent = True
        return False

    def rank(self) -> int:
        return len(self.pivot_rows)

    def full_column_rank(self) -> bool:
        return len(self.pivot_rows) == self.ncols

    def _back_substitute(self) -> None:
        # Clear pivot columns above each pivot so free columns read off directly.
        cols = sorted(self.pivot_rows, reverse=True)
        for col in cols:
            prow, prhs = self.pivot_rows[col]
            for other in cols:
                if other >= col:
                    continue
                orow, orhs = self.pivot_rows[other]
                c = orow[col]
                if c:
                    for j in range(self.ncols):
                        if prow[j]:
                            orow[j] -= c * prow[j]
                    if prhs:
                        orhs -= c * prhs
                    self.pivot_rows[other] = (orow, orhs)

    def solution(self) -> list | None:
        """A particular solution with all free variables set to 0."""
        if self.inconsistent:
            return None
        self._back_substitute()
        x = [ZERO] * self.ncols
        for col, (_, rhs) in self.pivot_rows.items():
            x[col] = rhs
        return x

    def nullspace(self) -> list[list]:
        """Echelonized kernel basis, one vector per free column, in order."""
        self._back_substitute()
        pivots = set(self.pivot_rows)
        basis = []
        for free in range(self.ncols):
            if free in pivots:
                continue
            v = [ZERO] * self.ncols
            v[free] = ONE
            for col, (prow, _) in self.pivot_rows.items():
                if prow[free]:
                    v[col] = -prow[free]
            basis.append(v)
        return basis


def solve_system(rows, rhs_values, ncols: int) -> list[Fraction] | None:
    """Solve A x = b exactly; None when inconsistent."""
    ech = Echelon(ncols)
    for row, rhs in zip(rows, rhs_values):
        ech.add_row(row, rhs)
        if ech.inconsistent:
            return None
    return ech.solution()


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    ech = Echelon(ncols)
    for row in rows:
        ech.add_row(row)
        if ech.full_column_rank():
            return []
    return ech.nullspace()
