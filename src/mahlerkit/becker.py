"""Normalization of Mahler equations toward leading coefficient 1, with
regularity and irregularity certificates.

The central construction removes from a_0 the root-of-unity zeros whose
orders share a factor with k (the set A): an explicit polynomial Q with
Q(0) = 1 and a z-power shift gamma are produced such that
G = F / (z^gamma Q) satisfies an equation whose leading coefficient is
nonzero at 0 and free of set-A zeros.  1/Q is itself representable, and
a bounded search then finds the leading-coefficient-1 relation for G
whose existence the normalization guarantees for regular F.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .algebra import (
    P_ONE,
    Poly,
    ZERO,
    classify_unity_zeros,
    cyclotomic,
    cyclotomic_profile,
    euler_phi,
    poly_gcd,
)
from .errors import InvariantViolation
# pinned_relation_search is the Becker-form search; it stays importable from here
from .mahler import MahlerEquation, guess, pinned_relation_search, require_solution, verify  # noqa: F401
from .regular import LinearRepresentation, closure_rep
from .series import LaurentSeries


@dataclass(frozen=True)
class BeckerNormalization:
    """Output bundle of normalize().

    Invariants: Q(0) = P(0) = 1, Q(z^k) = Q(z) P(z) h(z) exactly,
    a_0 = c z^gamma a(z) P(z) with a(0) = 1, and the new equation's leading
    coefficient c*a(z) has no root-of-unity zero of order sharing a factor
    with k.
    """

    set_a: tuple[tuple[int, int], ...]
    N: int
    gamma: int
    c: Fraction
    Q: Poly
    P: Poly
    h: Poly
    a: Poly
    new_eq: MahlerEquation


@dataclass(frozen=True)
class Certificate:
    """Machine-checked regularity verdict with its trace.

    NOT_REGULAR is only issued from the pole-growth criterion with all of
    its hypotheses checked (equation satisfied, content 1, minimality as
    recorded, and a leading-coefficient zero fixed by z -> z^(k^M)).
    REGULAR is only issued when every zero of the leading coefficient of
    an equivalent equation is 0 or a root of unity of order not coprime
    to k.
    """

    verdict: str
    proposition: str | None = None
    order: int | None = None
    M: int | None = None
    equation: MahlerEquation | None = None
    minimality: str | None = None
    note: str = ""


REGULAR = "REGULAR"
NOT_REGULAR = "NOT_REGULAR"
INCONCLUSIVE = "INCONCLUSIVE"


def _stabilization_exponent(k: int, n: int) -> int:
    """Least M >= 1 with k^(2M) == k^M (mod n), so the orbit of the k-th
    power map on n-th roots of unity has settled after M steps."""
    m = 1
    while pow(k, 2 * m, n) != pow(k, m, n):
        m += 1
    return m


def _inverse_orbit_product(nprime: int, w_power: int) -> Poly:
    """prod over primitive nprime-th roots xi of (1 - z^(w_power) xi),
    which equals (Phi_nprime(0) * Phi_nprime(z^(w_power)))."""
    phi = cyclotomic(nprime)
    unit = phi.evaluate(ZERO)
    out = phi.substitute_power(w_power)
    return out.scale(unit)


def normalize(eq: MahlerEquation) -> BeckerNormalization:
    """Remove the set-A zeros of a_0 and the z-power, producing the shifted
    equation for G = F / (z^gamma Q).  shifted_solution checks the
    construction on a solution prefix."""
    k = eq.k
    a0 = eq.coeffs[0]
    prof = cyclotomic_profile(a0)
    classified = classify_unity_zeros(prof, k)
    set_a = classified.set_a

    n_stab = 1
    for n, _ in set_a:
        n_stab = lcm(n_stab, _stabilization_exponent(k, n))
    k_pow_n = k**n_stab

    q = P_ONE
    p = P_ONE
    for n, e in set_a:
        nprime = n // gcd(n, k_pow_n)
        mult = e * (euler_phi(n) // euler_phi(nprime))
        for j in range(n_stab):
            q = q * _inverse_orbit_product(nprime, k**j) ** mult
        p = p * _inverse_orbit_product(n, 1) ** e
    if q.constant() != 1 or p.constant() != 1:
        raise InvariantViolation("Q and P must have constant term 1")
    h = q.substitute_power(k).exact_div(q * p)

    gamma = prof.z_power
    q0 = a0.exact_div(p).shift(-gamma)
    c = q0.constant()
    if c == 0:
        raise InvariantViolation("leading coefficient of the new equation vanishes at 0")
    a_part = q0.scale(1 / c)

    new_coeffs = [q0]
    for i in range(1, eq.d + 1):
        qi = eq.coeffs[i].shift(gamma * (k**i - 2)) * h
        for j in range(2, i + 1):
            qi = qi * p.substitute_power(k ** (j - 1)) * h.substitute_power(k ** (j - 1))
        new_coeffs.append(qi)
    new_eq = MahlerEquation(k, new_coeffs)

    if classify_unity_zeros(cyclotomic_profile(q0), k).set_a:
        raise InvariantViolation("new leading coefficient still has set-A zeros")

    return BeckerNormalization(
        set_a=set_a,
        N=n_stab,
        gamma=gamma,
        c=c,
        Q=q,
        P=p,
        h=h,
        a=a_part,
        new_eq=new_eq,
    )


def shifted_solution(eq: MahlerEquation, norm: BeckerNormalization, f: LaurentSeries) -> LaurentSeries:
    """Expand G = F / (z^gamma Q) from a prefix of F, checked end to end:
    f must solve eq (ValueError otherwise), and G must satisfy the new
    equation to the propagated order (InvariantViolation otherwise)."""
    require_solution(eq, f)
    g = f.div_poly(norm.Q).shift(-norm.gamma)
    if not verify(norm.new_eq, g).ok:
        raise InvariantViolation("G = F/(z^gamma Q) fails the new equation")
    return g


def certify_regular(eq: MahlerEquation) -> Certificate:
    """Sufficiency certificate: after dividing out the coefficient content
    (which preserves the solution set), every zero of a_0 must be 0 or a
    root of unity of order not coprime to k."""
    reduced = eq.primitive()
    prof = cyclotomic_profile(reduced.coeffs[0])
    bad = [n for n, _ in prof.cyclo if gcd(n, eq.k) == 1]
    if prof.remainder.degree() > 0:
        return Certificate(
            INCONCLUSIVE,
            note="a_0 has zeros that are not roots of unity",
        )
    if bad:
        return Certificate(
            INCONCLUSIVE,
            order=bad[0],
            note="a_0 has root-of-unity zeros of order coprime to k: %s" % bad,
        )
    return Certificate(
        REGULAR,
        proposition="dumas",
        equation=reduced,
        note="all zeros of a_0 are zero or roots of unity of order not coprime to k",
    )


def _fixed_point_gcd(a0: Poly, k: int, m: int) -> Poly:
    """gcd(a_0, z^(k^M - 1) - 1), computed with z^K reduced mod a_0."""
    if a0.degree() == 0:
        return P_ONE
    base = Poly([0, 1])
    power = P_ONE
    e = k**m - 1
    while e:
        if e & 1:
            power = (power * base).divrem(a0)[1]
        base = (base * base).divrem(a0)[1]
        e >>= 1
    return poly_gcd(a0, power - P_ONE)


def certify_irregular(
    eq: MahlerEquation, f: LaurentSeries, m_max: int = 3, margin: int = 16
) -> Certificate:
    """Pole-growth certificate: for M = 1..m_max take a base-k^M equation
    for f (the input at M = 1, guessed from the prefix otherwise), divide
    out the content, and fire NOT_REGULAR when the leading coefficient
    vanishes at some xi != 0 with xi^(k^M) = xi.

    Minimality of the equation is unconditional at degree 1 and otherwise
    holds up to the recorded search bounds; failure to certify anything
    is INCONCLUSIVE, never a claim of regularity.
    """
    require_solution(eq, f)
    if f.is_zero():
        return Certificate(INCONCLUSIVE, note="zero series is regular")
    k = eq.k
    b0 = max(p.degree() for p in eq.coeffs)
    notes = []
    for m in range(1, m_max + 1):
        if m == 1:
            cand = eq.primitive()
            bound = max(b0, 1)
            minimality = "input equation; minimal up to search bounds (d < %d, deg <= %d)" % (
                cand.d,
                bound,
            )
            if cand.d > 1:
                try:
                    lowered = guess(f, k, cand.d - 1, bound, margin)
                except ValueError:
                    lowered = None
                    notes.append("M=1: prefix too short to probe lower degrees")
                if lowered is not None:
                    cand = lowered
                    minimality = (
                        "guessed from prefix; minimal up to search bounds (d <= %d, deg <= %d)"
                        % (cand.d, bound)
                    )
        else:
            bound = b0 * (k**m - 1) // (k - 1)
            try:
                cand = guess(f, k**m, eq.d, bound, margin)
            except ValueError:
                notes.append("M=%d: prefix too short for bounds (%d, %d)" % (m, eq.d, bound))
                continue
            if cand is None:
                notes.append("M=%d: no base-%d equation within bounds" % (m, k**m))
                continue
            minimality = (
                "guessed from prefix; minimal up to search bounds (d <= %d, deg <= %d)"
                % (eq.d, bound)
            )
        if cand.d == 1:
            minimality = "unconditional (degree 1, nonzero series)"
        a0 = cand.coeffs[0]
        g = _fixed_point_gcd(a0, k, m)
        if g.degree() > 0:
            order = min(n for n, _ in cyclotomic_profile(g).cyclo)
            return Certificate(
                NOT_REGULAR,
                proposition="prop0",
                order=order,
                M=m,
                equation=cand,
                minimality=minimality,
                note="a_0 vanishes at a nonzero fixed point of z -> z^(k^M)",
            )
        notes.append("M=%d: a_0 has no nonzero fixed-point zeros" % m)
    return Certificate(INCONCLUSIVE, note="; ".join(notes))


def certify(
    eq: MahlerEquation, f: LaurentSeries | None = None, m_max: int = 3
) -> Certificate:
    """The certification entry point: certify_regular, and when that is not
    REGULAR and a solution prefix f is given, certify_irregular on f."""
    cert = certify_regular(eq)
    if cert.verdict != REGULAR and f is not None:
        cert = certify_irregular(eq, f, m_max)
    return cert


def witness_equation(norm: BeckerNormalization, becker_eq: MahlerEquation) -> MahlerEquation:
    """Clear denominators in the a_0 = 1 equation for G back to an
    equation for F = z^gamma Q G.

    The output's leading coefficient is z^(gamma (k^D - 1)) Q(z^k)...Q(z^(k^D));
    after content reduction it passes certify_regular.
    """
    if becker_eq.coeffs[0] != P_ONE:
        raise ValueError("expected an equation with leading coefficient 1")
    k = becker_eq.k
    if k != norm.new_eq.k:
        raise ValueError("base mismatch between normalization and equation")
    depth = becker_eq.d
    gamma = norm.gamma
    qsubs = [norm.Q.substitute_power(k**j) for j in range(depth + 1)]
    coeffs = []
    for i in range(depth + 1):
        prod = P_ONE
        for j in range(depth + 1):
            if j != i:
                prod = prod * qsubs[j]
        coeffs.append(becker_eq.coeffs[i] * prod.shift(gamma * (k**depth - k**i)))
    return MahlerEquation(k, coeffs)


def structure_decompose(
    eq: MahlerEquation, f: LaurentSeries
) -> tuple[LaurentSeries, Poly, Fraction, int]:
    """Split a solution as F = J / prod_j Gamma(z^(k^j)) where
    a_0 = rho z^delta Gamma(z) and Gamma(0) = 1.

    J is returned as the series F * prod_{j < J_max} Gamma(z^(k^j)); the
    product stabilizes modulo z^order because Gamma(z^(k^j)) = 1 + O(z^(k^j)).
    """
    a0 = eq.coeffs[0]
    delta = a0.val0()
    unit_part = a0.shift(-delta)
    rho = unit_part.constant()
    gamma_poly = unit_part.scale(1 / rho)
    # the factors are needed only as far as F's window reaches, and J is
    # known as far as F times their product known mod z^max(order, 1)
    order = f.order - max(f.valuation, 0)
    big_j, j = f, 0
    while eq.k**j < order:
        big_j = big_j.mul_poly(gamma_poly.substitute_power(eq.k**j))
        j += 1
    return big_j.truncate(min(f.order, max(order, 1) + f.valuation)), gamma_poly, rho, delta


def reciprocal_rep(
    q: Poly, k: int, max_dim: int = 16, max_depth: int = 32, order: int = 64
) -> LinearRepresentation:
    """Representation of the reciprocal series 1/Q(z) for Q(0) = 1.

    The gate is certify_regular on the degree-1 equation with leading
    coefficient Q.  The closure itself runs on an equation solved by 1/Q:
    when Q divides Q(z^k) the quotient W gives the leading-coefficient-1
    relation H = W(z) H(z^k); otherwise Q(z) H(z) = Q(z^k) H(z^k) is used.
    """
    if q.constant() != 1:
        raise ValueError("Q(0) must be 1")
    qk = q.substitute_power(k)
    if q.degree() == 0:
        heq = MahlerEquation(k, [P_ONE, Poly([-1])])
    else:
        # Normalization-produced Q divides Q(z^k); the quotient W gives the
        # telescoping relation H = W(z) H(z^k) for H = 1/Q.  Otherwise fall
        # back to Q(z) H(z) = Q(z^k) H(z^k), gated by the zero certificate.
        quot, rem = qk.divrem(q)
        if rem.is_zero():
            heq = MahlerEquation(k, [P_ONE, -quot])
        else:
            gate = certify_regular(MahlerEquation(k, [q, Poly([-1])]))
            if gate.verdict != REGULAR:
                raise ValueError("certificate rejected Q: %s" % gate.note)
            heq = MahlerEquation(k, [q, -qk])
    series = LaurentSeries.from_poly(P_ONE, order).div_poly(q)
    rep = closure_rep(heq, series, max_dim=max_dim, max_depth=max_depth)
    if rep is None:
        raise InvariantViolation("closure caps exceeded for an accepted Q")
    return rep
