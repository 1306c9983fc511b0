"""Canonical example equations with golden data, plus the two-term matrix
family whose solution is regular but admits no leading-coefficient-1
equation for any power-series multiple.

Golden corpus files are committed under data/corpus and regenerated from
the brute-force oracles; a regeneration mismatch fails the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import P_ONE, Poly
from .becker import NOT_REGULAR, certify, normalize
from .errors import InvariantViolation
from .mahler import MahlerEquation, guess, pinned_relation_search, verify
from .regular import closure_rep
from .series import LaurentSeries, prefix_oracle


@dataclass(frozen=True)
class ParadoxFamily:
    """The 2x2 matrix construction: H is the stabilized top-left entry of
    the iterated products, F0 = H + 1/z is the Laurent solution admitting
    a leading-coefficient-1 relation, and F = z F0 = 1 + z H is the
    power series that admits none."""

    k: int
    matrix: tuple[tuple[Poly, Poly], tuple[Poly, Poly]]
    H: LaurentSeries
    F0: LaurentSeries
    F: LaurentSeries


def paradox_family(k: int, order: int) -> ParadoxFamily:
    if k < 2:
        raise ValueError("k must be >= 2")
    if order < 4:
        raise ValueError("order must be >= 4")
    top = Poly([1, -1]) + Poly([0] * (k - 1) + [1])  # 1 - z + z^(k-1)
    off = -Poly([1, -1]).shift(k * k - k)  # -z^(k^2-k) (1 - z)
    matrix = ((top, off), (Poly([1]), Poly()))
    # row-product [1, 0] M(z) M(z^k) ... truncated at the requested order;
    # factors beyond k^(J-1) >= order change nothing modulo z^order
    row = [LaurentSeries.from_poly(P_ONE, order), LaurentSeries.zero(order)]
    j = 0
    while not (j >= 1 and k ** (j - 1) >= order):
        m00 = LaurentSeries.from_poly(top.substitute_power(k**j), order)
        m01 = LaurentSeries.from_poly(off.substitute_power(k**j), order)
        row = [
            (row[0] * m00 + row[1]).truncate(order),
            (row[0] * m01).truncate(order),
        ]
        j += 1
    h = row[0]
    if h.coefficient(0) != 1:
        raise InvariantViolation("H(0) must be 1")
    one = LaurentSeries.from_poly(P_ONE, order + 1)
    f0 = h + LaurentSeries(-1, [1] + [0] * order, order)
    f = h.shift(1) + one
    if f0.valuation != -1:
        raise InvariantViolation("F0 must have valuation -1")
    return ParadoxFamily(k, matrix, h, f0, f)


def family_equation(k: int) -> MahlerEquation:
    """The two-term relation satisfied by H, F0, and (after clearing the
    z-shift) by F."""
    top = Poly([1, -1]) + Poly([0] * (k - 1) + [1])
    off = Poly([1, -1]).shift(k * k - k)
    return MahlerEquation(k, [P_ONE, -top, off])


def induced_equation_k2() -> MahlerEquation:
    """The equation for F = z F0 at k = 2, with the z-powers cleared."""
    return MahlerEquation(
        2, [Poly([0, 0, 0, 1]), Poly([0, 0, -1]), Poly([0, 0, 1, -1])]
    )


def independence_check(k: int, deg_max: int = 12, terms: int = 256) -> bool:
    """Desk-scale corroboration that F0(z) and F0(z^k) admit no two-term
    polynomial relation: the guessing kernel must come back empty."""
    fam = paradox_family(k, terms)
    return guess(fam.F0, k, 1, deg_max) is None


@dataclass(frozen=True)
class ProbeResult:
    multiplier: Poly
    found: bool
    equation: MahlerEquation | None


def no_becker_multiple_probe(
    k: int,
    r_list: tuple[Poly, ...] | None = None,
    depth_max: int = 3,
    deg_max: int = 10,
    terms: int = 256,
) -> list[ProbeResult]:
    """Spot-check that R(z) F(z) admits no leading-coefficient-1 relation
    for each polynomial multiplier R; a finite probe of a universal claim,
    explicitly heuristic."""
    if r_list is None:
        r_list = (
            P_ONE,
            Poly([1, 1]),
            Poly([1, -1]),
            Poly([1, 1, 1]),
            Poly([1, 0, 1]),
        )
    fam = paradox_family(k, terms)
    out = []
    for r in r_list:
        if r.is_zero():
            raise ValueError("multipliers must be nonzero polynomials")
        rf = fam.F.mul_poly(r).truncate(fam.F.order)
        eq = pinned_relation_search(rf, k, depth_max, deg_max)
        out.append(ProbeResult(r, eq is not None, eq))
    return out


# -- corpus items -----------------------------------------------------------


@dataclass(frozen=True)
class CorpusItem:
    name: str
    k: int
    equation: MahlerEquation
    prefix: LaurentSeries
    expected: dict


PREFIX_ORDER = 256
CLOSURE_CAPS = {"max_dim": 8, "max_depth": 16}


def _expectations(eq: MahlerEquation, prefix: LaurentSeries) -> dict:
    rep = closure_rep(eq, prefix, **CLOSURE_CAPS)
    cert = certify(eq, prefix)
    norm = normalize(eq)
    expected = {
        "regularity": cert.verdict,
        "closure_dim": rep.dim if rep is not None else None,
        "normalization": {
            "gamma": norm.gamma,
            "N": norm.N,
            "Q": norm.Q,
        },
    }
    if cert.verdict == NOT_REGULAR:
        expected["proposition"] = cert.proposition
        expected["M"] = cert.M
    return expected


def build_corpus() -> list[CorpusItem]:
    """Recompute every corpus item from the oracles."""
    items = []

    teq = MahlerEquation(2, [Poly([1]), Poly([-1, 1])])
    t = prefix_oracle("thue_morse", PREFIX_ORDER)
    items.append(CorpusItem("thue_morse", 2, teq, t, _expectations(teq, t)))

    seq = MahlerEquation(2, [Poly([1]), Poly([-1, -1, -1])])
    s = prefix_oracle("stern", PREFIX_ORDER)
    items.append(CorpusItem("stern", 2, seq, s, _expectations(seq, s)))

    ueq = MahlerEquation(2, [Poly([1, -1]), Poly([-1])])
    u = prefix_oracle("binary_partitions", PREFIX_ORDER)
    items.append(CorpusItem("binary_partitions", 2, ueq, u, _expectations(ueq, u)))

    oeq = MahlerEquation(2, [Poly([1, 1]), Poly([-1])])
    o = LaurentSeries.from_poly(Poly([1, -1]), PREFIX_ORDER)
    items.append(CorpusItem("one_plus_z", 2, oeq, o, _expectations(oeq, o)))

    peq = induced_equation_k2()
    p = paradox_family(2, PREFIX_ORDER).F.truncate(PREFIX_ORDER)
    items.append(CorpusItem("paradox_k2", 2, peq, p, _expectations(peq, p)))

    for item in items:
        check = verify(item.equation, item.prefix)
        if not check.ok:
            raise InvariantViolation("corpus prefix fails its equation: %s" % item.name)
    return items


def corpus_names() -> list[str]:
    return ["thue_morse", "stern", "binary_partitions", "one_plus_z", "paradox_k2"]
