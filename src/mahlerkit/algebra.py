"""Exact rational and univariate polynomial arithmetic over Q.

Polynomials are dense ascending coefficient tuples of Fraction with no
trailing zeros; the zero polynomial has an empty tuple.  Roots of unity are
never represented as complex numbers: zero sets are described by cyclotomic
orders n (the factor Phi_n) with multiplicities, which is enough because
multiplicities of a Q-polynomial are constant along each Galois orbit.

Integer rule: ``Poly.__mul__`` multiplies on ``int`` when both operands
have integral coefficients, and ``Poly.divrem`` divides on ``int`` when
both are integral and the divisor's leading coefficient is +-1 (every
cyclotomic divisor); otherwise both work on ``Fraction``.  Either way they
skip the zero terms of the second operand, and the results are identical.
No other function carries integer polynomial arithmetic of its own.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InvariantViolation

ZERO = Fraction(0)
ONE = Fraction(1)


def rat_to_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def _integral(coeffs) -> bool:
    return all(c.denominator == 1 for c in coeffs)


class Poly:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else ZERO

    def coefficient(self, n: int) -> Fraction:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return ZERO

    def val0(self) -> int:
        """Multiplicity of the zero at z = 0."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation at 0")
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError("unnormalized polynomial")

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(rat_to_str(c))
            elif i == 1:
                parts.append("%s*z" % rat_to_str(c))
            else:
                parts.append("%s*z^%d" % (rat_to_str(c), i))
        return "Poly(%s)" % " + ".join(parts)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        terms = [(j, c) for j, c in enumerate(b) if c]
        if _integral(a) and _integral(c for _, c in terms):
            a = [c.numerator for c in a]
            terms = [(j, c.numerator) for j, c in terms]
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in terms:
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c: Fraction) -> "Poly":
        return Poly([c * x for x in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder; raises on a zero divisor."""
        if other.is_zero():
            raise ValueError("division by zero polynomial")
        rem = list(self.coeffs)
        db = other.degree()
        dq = len(rem) - 1 - db
        if dq < 0:
            return Poly(), self
        lead = other.coeffs[-1]
        terms = [(j, c) for j, c in enumerate(other.coeffs[:-1]) if c]
        if lead in (1, -1) and _integral(rem) and _integral(c for _, c in terms):
            rem = [c.numerator for c in rem]
            terms = [(j, c.numerator) for j, c in terms]
            inv = lead.numerator
        else:
            inv = 1 / lead
        quot = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + db]
            if c:
                q = c * inv
                quot[i] = q
                for j, cb in terms:
                    rem[i + j] -= q * cb
        return Poly(quot), Poly(rem[:db])

    def exact_div(self, other: "Poly") -> "Poly":
        """Division known to be exact; a nonzero remainder is a bug."""
        q, r = self.divrem(other)
        if not r.is_zero():
            raise InvariantViolation("expected exact polynomial division")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    # -- substitutions ---------------------------------------------------

    def substitute_power(self, m: int) -> "Poly":
        """The polynomial p(z^m)."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        if m == 1 or self.is_zero():
            return self
        out = [ZERO] * (m * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            out[m * i] = c
        return Poly(out)

    def shift(self, n: int) -> "Poly":
        """Multiply by z^n (n may be negative when divisible)."""
        if self.is_zero() or n == 0:
            return self
        if n > 0:
            return Poly((ZERO,) * n + self.coeffs)
        if any(c != 0 for c in self.coeffs[:-n]):
            raise ValueError("not divisible by z^%d" % -n)
        return Poly(self.coeffs[-n:])

    def evaluate(self, x: Fraction) -> Fraction:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


P_ZERO = Poly()
P_ONE = Poly([1])


def rational_content(polys) -> Fraction:
    """gcd of the numerators over lcm of the denominators of all
    coefficients: the positive c that leaves every p / c integral with
    coefficient gcd 1 (0 when every p is zero)."""
    denom_lcm = 1
    numer_gcd = 0
    for p in polys:
        for x in p.coeffs:
            denom_lcm = lcm(denom_lcm, x.denominator)
            numer_gcd = gcd(numer_gcd, x.numerator)
    return Fraction(numer_gcd, denom_lcm)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm (monic == positive leading)."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a.divrem(b)[1]
    return a.monic()


def poly_gcd_list(polys) -> Poly:
    """Monic gcd of a list; this is the content of an equation's coefficients."""
    g = P_ZERO
    for p in polys:
        g = poly_gcd(g, p)
        if g.degree() == 0:
            break
    return g


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return P_ZERO
    return (p * q).exact_div(poly_gcd(p, q)).monic()


# -- cyclotomic machinery ------------------------------------------------


_PHI_SIEVE: list[int] = [0, 1]


def euler_phi(n: int) -> int:
    """Euler's totient, read from a sieve table that at least doubles
    whenever it has to grow, so a scan over n = 1, 2, ... stays linear."""
    global _PHI_SIEVE
    if n >= len(_PHI_SIEVE):
        limit = max(n, 2 * len(_PHI_SIEVE))
        table = list(range(limit + 1))
        for p in range(2, limit + 1):
            if table[p] == p:  # p prime
                for mult in range(p, limit + 1, p):
                    table[mult] -= table[mult] // p
        _PHI_SIEVE = table
    return _PHI_SIEVE[n]


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial Phi_n over Z, as the Moebius product
    prod_{d | n} (z^d - 1)^mu(n/d)."""
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    acc = P_ONE
    for d in divisors:
        if _mobius(n // d) == 1:
            acc = acc * Poly([-1] + [0] * (d - 1) + [1])
    for d in divisors:
        if _mobius(n // d) == -1:
            acc = acc.exact_div(Poly([-1] + [0] * (d - 1) + [1]))
    return acc


@lru_cache(maxsize=None)
def _cyclotomic_at_2(n: int) -> int:
    return cyclotomic(n).evaluate(2).numerator


def cyclo_multiplicity(p: Poly, n: int) -> int:
    """Multiplicity of Phi_n as a factor of p (p nonzero)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    phi_n = cyclotomic(n)
    e = 0
    while p.degree() >= phi_n.degree():
        q, r = p.divrem(phi_n)
        if not r.is_zero():
            break
        p = q
        e += 1
    return e


@dataclass(frozen=True)
class CyclotomicProfile:
    """Zero set of a polynomial split into z-power, cyclotomic, and rest.

    ``z_power`` is the multiplicity of the root 0, ``cyclo`` the detected
    cyclotomic orders with multiplicities, and ``remainder`` the cofactor,
    certified free of roots of unity by exhausting all candidate orders.
    """

    z_power: int
    cyclo: tuple[tuple[int, int], ...]
    remainder: Poly

    def reconstruct(self) -> Poly:
        p = self.remainder.shift(self.z_power)
        for n, e in self.cyclo:
            p = p * cyclotomic(n) ** e
        return p


def cyclotomic_profile(p: Poly) -> CyclotomicProfile:
    """Detect every cyclotomic factor of p with exact multiplicity.

    Candidate orders run up to 2*deg^2, which is complete because
    phi(n) >= sqrt(n/2); each candidate with phi(n) <= deg is tested by
    trial division.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no profile")
    z_power = p.val0()
    rest = p.shift(-z_power)
    # Phi_n | rest only if Phi_n(2) divides rest(2) / content, an integer
    content = rational_content([rest])
    at2 = (rest.evaluate(2) / content).numerator

    found = []
    n = 1
    while rest.degree() > 0 and n <= 2 * rest.degree() ** 2:
        if euler_phi(n) <= rest.degree():
            f2 = _cyclotomic_at_2(n)
            if at2 == 0 or f2 == 1 or at2 % f2 == 0:
                e = 0
                while True:
                    q, r = rest.divrem(cyclotomic(n))
                    if r:
                        break
                    rest = q
                    e += 1
                if e:
                    found.append((n, e))
                    at2 = (rest.evaluate(2) / content).numerator
        n += 1
    return CyclotomicProfile(z_power, tuple(found), rest)


# -- norms over the k-th roots of unity -----------------------------------


def norm_over_kth_roots(q: Poly, k: int) -> Poly:
    """The polynomial N with N(z^k) equal to the product of q(w*z) over w^k = 1.

    Write q = c z^v prod_i (1 - alpha_i z).  The power sums s_m of the
    alpha_i are the coefficients of -z q'/q, and the product of
    (1 - alpha_i w z) over w^k = 1 is 1 - alpha_i^k z^k, so Newton's
    identities on s_k, s_2k, ... give back prod_i (1 - alpha_i^k x) and
    N = (-1)^((k-1)v) c^k x^v prod_i (1 - alpha_i^k x).  N(z^k) agrees with
    the product including leading coefficients, hence q divides N(z^k)
    exactly.
    """
    if q.is_zero():
        raise ValueError("norm of the zero polynomial")
    if k < 1:
        raise ValueError("k must be >= 1")
    v = q.val0()
    c = q.coeffs[v]
    a = [x / c for x in q.coeffs[v:]]
    n = len(a) - 1
    terms = [(j, x) for j, x in enumerate(a) if x and j]
    # m a_m = -sum_{i=1..m} s_i a_(m-i), with a_0 = 1
    s = [ZERO]
    for m in range(1, k * n + 1):
        acc = -m * a[m] if m <= n else ZERO
        for j, x in terms:
            if j >= m:
                break
            acc -= x * s[m - j]
        s.append(acc)
    # j e_j = -sum_{i=1..j} s_(ik) e_(j-i) for the coefficients e of prod (1 - alpha_i^k x)
    e = [ONE]
    for j in range(1, n + 1):
        e.append(-sum((s[i * k] * e[j - i] for i in range(1, j + 1)), ZERO) / j)
    lead = c**k if (k - 1) * v % 2 == 0 else -(c**k)
    return Poly([ZERO] * v + [lead * x for x in e])


class RationalFunction:
    """Reduced fraction of two polynomials; denominator kept monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = P_ONE, _reduced=False):
        if den.is_zero():
            raise ValueError("zero denominator")
        if num.is_zero():
            num, den = P_ZERO, P_ONE
        elif not _reduced:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.leading()
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFunction":
        return cls(p, P_ONE, _reduced=True)

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(Poly([c]), P_ONE, _reduced=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == P_ONE:
            return "RF(%r)" % self.num
        return "RF(%r / %r)" % (self.num, self.den)

    def __add__(self, other):
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num.scale(Fraction(other)), self.den, _reduced=True)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def substitute_power(self, m: int) -> "RationalFunction":
        # gcd(num, den) = 1 is preserved by z -> z^m, and a monic
        # denominator stays monic, so no renormalization is needed.
        return RationalFunction(
            self.num.substitute_power(m), self.den.substitute_power(m), _reduced=True
        )


RF_ZERO = RationalFunction(P_ZERO)
RF_ONE = RationalFunction(P_ONE)
