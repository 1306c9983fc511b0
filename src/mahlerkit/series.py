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

from .algebra import Poly, RationalFunction, ZERO

_F1 = Fraction(1)


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
        return cls(0, cs, order)

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

    def agrees_with(self, other: "LaurentSeries", upto: int | None = None) -> bool:
        """Coefficientwise equality on the common (or given) window."""
        stop = min(self.order, other.order)
        if upto is not None:
            stop = min(stop, upto)
        start = min(self.valuation, other.valuation)
        return all(self.coefficient(n) == other.coefficient(n) for n in range(start, stop))

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
        # z^min(Oa+vb, Ob+va).
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(min(self.order + other.valuation, other.order + self.valuation))
        order = min(self.order + other.valuation, other.order + self.valuation)
        val = self.valuation + other.valuation
        out = [ZERO] * (order - val)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            ei = self.valuation + i
            jmax = min(len(other.coeffs), order - ei - other.valuation)
            for j in range(jmax):
                b = other.coeffs[j]
                if b != 0:
                    out[ei + other.valuation + j - val] += a * b
        return LaurentSeries(val, out, order)

    def mul_poly(self, p: Poly) -> "LaurentSeries":
        """Multiply by an exactly known polynomial: order gains val0(p)."""
        if p.is_zero():
            raise ValueError("multiplying by the zero polynomial loses the order; handle upstream")
        order = self.order + p.val0()
        val = self.valuation + p.val0()
        out = [ZERO] * (order - val)
        for j, b in enumerate(p.coeffs):
            if b == 0:
                continue
            for i, a in enumerate(self.coeffs):
                if a != 0:
                    e = self.valuation + i + j
                    if e < order:
                        out[e - val] += a * b
        return LaurentSeries(val, out, order)

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse; input with valuation v and order O gives
        a series of valuation -v known mod z^(O-2v)."""
        if self.is_zero():
            raise ValueError("cannot invert a series that is 0 modulo its order")
        n = len(self.coeffs)  # unit-part coefficients known: O - v of them
        a0 = self.coeffs[0]
        inv = [_F1 / a0]
        for m in range(1, n):
            acc = ZERO
            for j in range(1, m + 1):
                if j < n and self.coeffs[j] != 0:
                    acc += self.coeffs[j] * inv[m - j]
            inv.append(-acc / a0)
        v = self.valuation
        return LaurentSeries(-v, inv, self.order - 2 * v)

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


def rational_to_series(rf: RationalFunction, order: int) -> LaurentSeries:
    """Laurent expansion of a rational function, exact to the given order."""
    if rf.is_zero():
        return LaurentSeries.zero(order)
    dv = rf.den.val0()
    nv = rf.num.val0()
    num = LaurentSeries.from_poly(rf.num, max(order + dv + 1, nv + 1))
    den = LaurentSeries.from_poly(rf.den, max(order + 2 * dv - nv + 1, dv + 1))
    prod = num * den.invert()
    return prod.truncate(order) if prod.order > order else prod


def cartier(f: LaurentSeries, k: int, i: int) -> LaurentSeries:
    """Section operator: coefficient of z^n in the result is the
    coefficient of z^(k*n+i) in the input, over all integers n."""
    if not 0 <= i < k:
        raise ValueError("section index must satisfy 0 <= i < k")
    val = -((i - f.valuation) // k)  # ceil((v - i) / k)
    order = -((i - f.order) // k)  # ceil((O - i) / k)
    cs = [f.coefficient(k * n + i) for n in range(val, order)]
    return LaurentSeries(val, cs, order)


def sections_recompose(f: LaurentSeries, k: int) -> LaurentSeries:
    """Rebuild sum_i z^i * Lambda_i(F)(z^k); equals F to the known order."""
    acc = None
    for i in range(k):
        term = cartier(f, k, i).compose_power(k).shift(i)
        acc = term if acc is None else acc + term
    return acc


# -- brute-force coefficient oracles ---------------------------------------


def _product_expansion(factor_coeffs, order: int) -> LaurentSeries:
    # factor_coeffs(j) yields the sparse polynomial for the j-th factor.
    acc = LaurentSeries.from_poly(Poly([1]), order)
    j = 0
    while 2**j < order:
        acc = (acc * LaurentSeries.from_poly(Poly(factor_coeffs(j)), order)).truncate(order)
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
