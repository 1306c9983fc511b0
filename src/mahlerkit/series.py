"""Truncated Laurent series with exact coefficients and sound truncation.

A series is known modulo z^order: it stores the coefficients for the
exponents valuation .. order-1 and nothing else.  Every operation returns
the largest order that is provably correct for its inputs, so downstream
exactness claims never rest on silently reused garbage coefficients.
The leading stored coefficient is nonzero; a series that vanishes on its
whole window is normalized to valuation == order with no coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import P_ONE, Poly, ZERO


class LaurentSeries:
    __slots__ = ("valuation", "coeffs", "order")

    def __init__(self, valuation: int, coeffs, order: int):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(cs) != order - valuation:
            raise ValueError(
                "coefficient window [%d, %d) needs %d entries, got %d"
                % (valuation, order, order - valuation, len(cs))
            )
        lead = next((i for i, c in enumerate(cs) if c != 0), len(cs))
        self.valuation = valuation + lead
        self.coeffs = tuple(cs[lead:])
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "LaurentSeries":
        return cls(order, (), order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "LaurentSeries":
        cs = list(p.coeffs[:order]) if order > 0 else []
        cs += [ZERO] * (order - len(cs))
        return cls(min(order, 0), cs, order)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, n: int) -> Fraction:
        if n >= self.order:
            raise IndexError("coefficient %d is beyond the known order %d" % (n, self.order))
        if n < self.valuation:
            return ZERO
        return self.coeffs[n - self.valuation]

    def coefficient_list(self, start: int, stop: int) -> list[Fraction]:
        return [self.coefficient(n) for n in range(start, stop)]

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.valuation == other.valuation
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.valuation, self.coeffs, self.order))

    def __repr__(self):
        return "LaurentSeries(v=%d, O=%d, %s)" % (
            self.valuation,
            self.order,
            list(self.coeffs[:12]) + (["..."] if len(self.coeffs) > 12 else []),
        )

    # -- arithmetic; truncation orders propagated soundly -----------------

    def __add__(self, other):
        order = min(self.order, other.order)
        val = min(self.valuation, other.valuation, order)
        cs = [
            (self.coefficient(n) if n < self.order else ZERO)
            + (other.coefficient(n) if n < other.order else ZERO)
            for n in range(val, order)
        ]
        return LaurentSeries(val, cs, order)

    def __neg__(self):
        return LaurentSeries(self.valuation, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LaurentSeries":
        c = Fraction(c)
        if c == 0:
            return LaurentSeries.zero(self.order)
        return LaurentSeries(self.valuation, [c * x for x in self.coeffs], self.order)

    def shift(self, n: int) -> "LaurentSeries":
        """Multiply by z^n."""
        return LaurentSeries(self.valuation + n, self.coeffs, self.order + n)

    def truncate(self, order: int) -> "LaurentSeries":
        if order > self.order:
            raise ValueError("cannot extend a series by truncation")
        val = min(self.valuation, order)
        return LaurentSeries(val, self.coefficient_list(val, order), order)

    def __mul__(self, other):
        # a known mod z^Oa with valuation va: the product is sound mod
        # z^min(Oa+vb, Ob+va).  The package multiplies by exact polynomials
        # (mul_poly); this wrapper stays while bench/tracing.py names it.
        order = min(self.order + other.valuation, other.order + self.valuation)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(order)
        return self.mul_poly(Poly(other.coeffs)).shift(other.valuation).truncate(order)

    def mul_poly(self, p: Poly) -> "LaurentSeries":
        """Multiply by an exactly known polynomial: order gains val0(p).
        One pass over the window per nonzero coefficient of p."""
        if p.is_zero():
            raise ValueError("multiplying by the zero polynomial loses the order; handle upstream")
        s = p.val0()
        n = len(self.coeffs)
        nonzero = [(i, a) for i, a in enumerate(self.coeffs) if a]
        out = [ZERO] * n
        for j, b in enumerate(p.coeffs[s : s + n]):
            if b:
                for i, a in nonzero:
                    if i + j >= n:
                        break
                    out[i + j] += a * b
        return LaurentSeries(self.valuation + s, out, self.order + s)

    def div_poly(self, q: Poly) -> "LaurentSeries":
        """Divide by an exactly known polynomial through the recurrence
        q G = F: valuation and order both drop by val0(q), at a cost of
        one pass over the window per nonzero coefficient of q."""
        if q.is_zero():
            raise ValueError("cannot divide by the zero polynomial")
        s = q.val0()
        lead = q.coeffs[s]
        tail = [(j, c) for j, c in enumerate(q.coeffs[s + 1 :], 1) if c]
        g = []
        for n, x in enumerate(self.coeffs):
            for j, c in tail:
                if j > n:
                    break
                if g[n - j]:
                    x -= c * g[n - j]
            g.append(x / lead)
        return LaurentSeries(self.valuation - s, g, self.order - s)

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse; input with valuation v and order O gives
        a series of valuation -v known mod z^(O-2v).  The package divides
        by exact polynomials (div_poly); this wrapper stays while
        bench/tracing.py names it."""
        if self.is_zero():
            raise ValueError("cannot invert a series that is 0 modulo its order")
        one = LaurentSeries.from_poly(P_ONE, self.order - self.valuation)
        return one.div_poly(Poly(self.coeffs)).shift(-self.valuation)

    def compose_power(self, m: int) -> "LaurentSeries":
        """The series F(z^m); valuation and order both scale by m."""
        if m < 1:
            raise ValueError("composition power must be >= 1")
        if m == 1:
            return self
        if self.is_zero():
            return LaurentSeries.zero(m * self.order)
        val = m * self.valuation
        order = m * self.order
        out = [ZERO] * (order - val)
        for i, c in enumerate(self.coeffs):
            out[m * i] = c
        return LaurentSeries(val, out, order)


def cartier(f: LaurentSeries, k: int, i: int) -> LaurentSeries:
    """Section operator: coefficient of z^n in the result is the
    coefficient of z^(k*n+i) in the input, over all integers n."""
    if not 0 <= i < k:
        raise ValueError("section index must satisfy 0 <= i < k")
    val = -((i - f.valuation) // k)  # ceil((v - i) / k)
    order = -((i - f.order) // k)  # ceil((O - i) / k)
    cs = [f.coefficient(k * n + i) for n in range(val, order)]
    return LaurentSeries(val, cs, order)


# -- brute-force coefficient oracles ---------------------------------------


def _product_expansion(factor_coeffs, order: int) -> LaurentSeries:
    # factor_coeffs(j) yields the sparse polynomial for the j-th factor.
    acc = LaurentSeries.from_poly(P_ONE, order)
    j = 0
    while 2**j < order:
        acc = acc.mul_poly(Poly(factor_coeffs(j)))
        j += 1
    return acc


def thue_morse_series(order: int) -> LaurentSeries:
    """Expand prod_j (1 - z^(2^j))."""

    def factor(j):
        return [1] + [0] * (2**j - 1) + [-1]

    return _product_expansion(factor, order)


def stern_series(order: int) -> LaurentSeries:
    """Expand prod_j (1 + z^(2^j) + z^(2^(j+1)))."""

    def factor(j):
        return [1] + [0] * (2**j - 1) + [1] + [0] * (2**j - 1) + [1]

    return _product_expansion(factor, order)


def binary_partition_series(order: int) -> LaurentSeries:
    """Count multisets of powers of two summing to n, for n < order."""
    memo: dict[tuple[int, int], int] = {}

    def count(n: int, j: int) -> int:
        # ways to write n using parts 1, 2, ..., 2^j
        if n == 0:
            return 1
        if j < 0:
            return 0
        key = (n, j)
        if key not in memo:
            part = 2**j
            memo[key] = sum(count(n - t * part, j - 1) for t in range(n // part + 1))
        return memo[key]

    top = max(order - 1, 1).bit_length()
    return LaurentSeries(0, [count(n, top) for n in range(order)], order)


_ORACLES = {
    "thue_morse": thue_morse_series,
    "stern": stern_series,
    "binary_partitions": binary_partition_series,
}


def prefix_oracle(name: str, order: int) -> LaurentSeries:
    """Golden prefixes for the three classic base-2 sequences."""
    if order < 1:
        raise ValueError("order must be >= 1")
    try:
        return _ORACLES[name](order)
    except KeyError:
        raise ValueError("unknown oracle %r (have %s)" % (name, sorted(_ORACLES))) from None
