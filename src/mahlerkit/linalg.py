"""Exact homogeneous linear algebra over a field, used by the solvers, the
guessing kernel and the representation layer.

Vectors are lists of field elements: Fraction for Q, RationalFunction for
Q(z).  The engine needs only + - * / and truthiness as the zero test.  The
workhorse is an incremental echelon form that consumes rows one at a time,
which lets the callers abort early: a system with full column rank is
recognized as soon as every column carries a pivot, and a row that does not
raise the rank lies in the span of the rows before it.

Systems are homogeneous only: A x = b is the system [A | -b], whose
solutions are read off by affine_solution() as the kernel vector that is 1
in the last column; there is none exactly when that column takes a pivot.
"""

from __future__ import annotations

from fractions import Fraction

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

    def rank(self) -> int:
        return len(self.pivot_rows)

    def full_column_rank(self) -> bool:
        return len(self.pivot_rows) == self.ncols

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


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    ech = Echelon(ncols)
    for row in rows:
        ech.add_row(row)
        if ech.full_column_rank():
            return []
    return ech.nullspace()


def affine_solution(rows, ncols: int) -> list | None:
    """The kernel vector of the rows that is 1 in the last column and 0 in
    every other free column; None as soon as the last column takes a pivot,
    when no kernel vector is nonzero there."""
    ech = Echelon(ncols)
    last = ncols - 1
    for row in rows:
        ech.add_row(row)
        if last in ech.pivot_rows:
            return None
    ech._back_substitute()
    return ech._kernel_vector(last)
