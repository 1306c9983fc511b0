"""Checks the tests share: windowed equality of series, recomposition
from sections, and the product a cyclotomic profile describes."""

from mahlerkit.algebra import CyclotomicProfile, Poly, cyclotomic
from mahlerkit.series import LaurentSeries, cartier


def agrees_with(a: LaurentSeries, b: LaurentSeries, upto: int | None = None) -> bool:
    """Coefficientwise equality on the common (or given) window."""
    stop = min(a.order, b.order)
    if upto is not None:
        stop = min(stop, upto)
    start = min(a.valuation, b.valuation)
    return all(a.coefficient(n) == b.coefficient(n) for n in range(start, stop))


def sections_recompose(f: LaurentSeries, k: int) -> LaurentSeries:
    """Rebuild sum_i z^i * Lambda_i(F)(z^k); equals F to the known order."""
    acc = None
    for i in range(k):
        term = cartier(f, k, i).compose_power(k).shift(i)
        acc = term if acc is None else acc + term
    return acc


def reconstruct(prof: CyclotomicProfile) -> Poly:
    """z^z_power times remainder times the cyclotomic factors."""
    p = prof.remainder.shift(prof.z_power)
    for n, e in prof.cyclo:
        p = p * cyclotomic(n) ** e
    return p
