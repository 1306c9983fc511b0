"""Dense series arithmetic by the definition, the reference the linear-cost
kernels in mahlerkit.series are checked against.

dense_mul is the schoolbook product of two truncated series and
dense_invert the term-by-term inverse of the unit part; both propagate
orders exactly as a series known mod z^order allows.
dense_rational_to_series expands num * (1/den) with both of them.
"""

from fractions import Fraction

from mahlerkit.algebra import RationalFunction
from mahlerkit.series import LaurentSeries


def dense_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """a known mod z^Oa with valuation va: the product is sound mod
    z^min(Oa+vb, Ob+va)."""
    order = min(a.order + b.valuation, b.order + a.valuation)
    if a.is_zero() or b.is_zero():
        return LaurentSeries.zero(order)
    val = a.valuation + b.valuation
    out = [Fraction(0)] * (order - val)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j < order - val:
                out[i + j] += x * y
    return LaurentSeries(val, out, order)


def dense_invert(a: LaurentSeries) -> LaurentSeries:
    """Valuation v and order O give valuation -v known mod z^(O-2v)."""
    if a.is_zero():
        raise ValueError("cannot invert a series that is 0 modulo its order")
    n = len(a.coeffs)
    inv = [1 / a.coeffs[0]]
    for m in range(1, n):
        inv.append(-sum((a.coeffs[j] * inv[m - j] for j in range(1, m + 1)), Fraction(0)) / a.coeffs[0])
    return LaurentSeries(-a.valuation, inv, a.order - 2 * a.valuation)


def dense_rational_to_series(rf: RationalFunction, order: int) -> LaurentSeries:
    """num times the inverse of den, each known past the order asked for."""
    if rf.is_zero():
        return LaurentSeries.zero(order)
    nv, dv = rf.num.val0(), rf.den.val0()
    num = LaurentSeries.from_poly(rf.num, max(order + dv + 1, nv + 1))
    den = LaurentSeries.from_poly(rf.den, max(order + 2 * dv - nv + 1, dv + 1))
    return dense_mul(num, dense_invert(den)).truncate(order)
