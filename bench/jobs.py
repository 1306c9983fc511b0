"""Job runners and answer checks for the three workloads.

A runner takes a prepared input and returns the raw outputs of one job;
it is the only code inside the timed region.  Runners call the package
through its module attributes, so that a traced run sees its wrappers.
A checker takes the input and those outputs, runs outside the timed
region, and returns None when the answer is right or a one-line reason
when it is wrong, together with whether the answer is definite.  The
checks recompute what they need with the small routines below instead of
trusting the package's own verify.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

from mahlerkit import becker, cli, jsonio, regular
from mahlerkit.algebra import Poly, poly_gcd
from mahlerkit.becker import NOT_REGULAR, REGULAR
from mahlerkit.corpus import CLOSURE_CAPS
from mahlerkit.series import LaurentSeries

from workloads import ORDER

CERTIFY_M_MAX = 3


# -- independent arithmetic for the checks -------------------------------------


def relation_holds(k, coeffs, f) -> bool:
    """sum_i a_i(z) f(z^(k^i)) vanishes to the order the truncation of f
    allows.  coeffs are Polys and f a LaurentSeries; the coefficients are
    summed directly instead of expanding f(z^(k^i)) densely."""
    terms = [
        (k**i, [(j, c) for j, c in enumerate(a.coeffs) if c != 0])
        for i, a in enumerate(coeffs)
        if not a.is_zero()
    ]
    upto = min(kp * f.order + mons[0][0] for kp, mons in terms)
    start = min(kp * f.valuation + mons[0][0] for kp, mons in terms)
    for m in range(start, upto):
        acc = Fraction(0)
        for kp, mons in terms:
            for j, c in mons:
                t = m - j
                if t % kp == 0 and f.valuation <= t // kp:
                    acc += c * f.coeffs[t // kp - f.valuation]
        if acc != 0:
            return False
    return True


def divide_out(f, gamma, q):
    """Coefficients of G = F / (z^gamma Q) for Q(0) = 1, by the recurrence
    G_n = F_(n+gamma) - sum_(j>=1) Q_j G_(n-j), as (valuation, list)."""
    val = f.valuation - gamma
    g = []
    for n in range(val, f.order - gamma):
        acc = f.coeffs[n + gamma - f.valuation]
        for j in range(1, min(len(q.coeffs), n - val + 1)):
            acc -= q.coeffs[j] * g[n - j - val]
        g.append(acc)
    return val, g


def fixed_point_zero(a0: Poly, k: int, m: int) -> bool:
    """a_0 vanishes at some xi != 0 with xi^(k^m) = xi."""
    big = Poly([-1] + [0] * (k**m - 2) + [1])  # z^(k^m - 1) - 1
    return poly_gcd(a0, big).degree() > 0


def rep_values(rep_doc, count: int) -> list[Fraction]:
    """row . A_(top digit) ... A_(bottom digit) . col for n < count, from
    the JSON form: the row vector of n is that of n // k times A_(n mod k)."""
    k = rep_doc["k"]
    mats = [[[Fraction(x) for x in r] for r in m] for m in rep_doc["matrices"]]
    col = [Fraction(x) for x in rep_doc["col"]]
    rows = [[Fraction(x) for x in rep_doc["row"]]]
    for n in range(1, count):
        prev, mat = rows[n // k], mats[n % k]
        rows.append([sum((prev[i] * mat[i][j] for i in range(len(prev))), Fraction(0)) for j in range(len(prev))])
    return [sum((a * b for a, b in zip(r, col)), Fraction(0)) for r in rows]


# -- pipeline ---------------------------------------------------------------------


def prepare_pipeline(job):
    return [
        "--format",
        "json",
        "pipeline",
        json.dumps(job["equation"]),
        "--series",
        json.dumps(job["series"]),
    ]


def run_pipeline(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_pipeline(job, out):
    code, text = out
    if code != 0:
        return "exit code %d" % code, False
    report = json.loads(text)
    expected = job["expected"]
    verdict = report["certificate"]["verdict"]
    if verdict != expected["regularity"]:
        return "verdict %s, expected %s" % (verdict, expected["regularity"]), verdict in (REGULAR, NOT_REGULAR)
    decided = verdict in (REGULAR, NOT_REGULAR)
    norm = report["normalization"]
    if "normalization" in expected:
        for key in ("gamma", "N", "Q"):
            if norm[key] != expected["normalization"][key]:
                return "normalization %s differs from the golden file" % key, decided
    if "M" in expected and report["certificate"].get("M") != expected["M"]:
        return "certificate M differs from the golden file", decided
    if report["becker"]["verdict"] == "FOUND":
        f = jsonio.series_from_json(job["series"])
        val, g = divide_out(f, norm["gamma"], jsonio.poly_from_json(norm["Q"]))
        g_series = LaurentSeries(val, g, val + len(g))
        becker = jsonio.equation_from_json(report["becker"]["equation"])
        if becker.coeffs[0] != Poly([1]):
            return "Becker equation does not have a_0 = 1", decided
        if not relation_holds(becker.k, becker.coeffs, g_series):
            return "Becker equation fails on G", decided
        if report["witness"]["certificate"]["verdict"] != REGULAR:
            return "witness certificate is not REGULAR", decided
        witness = jsonio.equation_from_json(report["witness"]["equation"])
        if not relation_holds(witness.k, witness.coeffs, f):
            return "witness equation fails on F", decided
    return None, decided


# -- certify ----------------------------------------------------------------------


def prepare_certify(job):
    return jsonio.equation_from_json(job["equation"]), jsonio.series_from_json(job["series"])


def run_certify(prepared):
    eq, f = prepared
    return becker.certify_regular(eq), becker.certify_irregular(eq, f, m_max=CERTIFY_M_MAX)


def _check_not_regular(cert, f, k):
    if cert.M is None or cert.M < 1 or cert.equation is None:
        return "NOT_REGULAR without its M and equation"
    eq = cert.equation
    if eq.k != k**cert.M:
        return "NOT_REGULAR equation has base %d, expected %d" % (eq.k, k**cert.M)
    if not relation_holds(eq.k, eq.coeffs, f):
        return "NOT_REGULAR equation fails on the series"
    if not fixed_point_zero(eq.coeffs[0], k, cert.M):
        return "NOT_REGULAR without a fixed-point zero of a_0"
    return None


def check_certify(job, out):
    reg, irr = out
    k = job["equation"]["k"]
    f = jsonio.series_from_json(job["series"])
    final = reg.verdict if reg.verdict == REGULAR else irr.verdict
    decided = final in (REGULAR, NOT_REGULAR)
    if irr.verdict == NOT_REGULAR:
        if job["regular"]:
            return "NOT_REGULAR on an input regular by construction", decided
        if reg.verdict == REGULAR:
            return "REGULAR and NOT_REGULAR certificates for one input", decided
        reason = _check_not_regular(irr, f, k)
        if reason:
            return reason, decided
    if reg.verdict == REGULAR and reg.equation is None:
        return "REGULAR without its equation", decided
    expected = job.get("expected")
    if expected is not None:
        if final != expected["regularity"]:
            return "verdict %s, golden %s" % (final, expected["regularity"]), decided
        if "M" in expected and irr.M != expected["M"]:
            return "M %s, golden %s" % (irr.M, expected["M"]), decided
    return None, decided


# -- convert ----------------------------------------------------------------------


def prepare_convert(job):
    if "rep" in job:
        return "rep", jsonio.rep_from_json(job["rep"])
    return "closure", (jsonio.equation_from_json(job["equation"]), jsonio.series_from_json(job["series"]))


def run_convert(prepared):
    kind, data = prepared
    if kind == "rep":
        eq = regular.rep_to_equation(data)
        return eq, regular.closure_rep(eq, regular.series_of_rep(data, ORDER))
    eq, f = data
    return eq, regular.closure_rep(eq, f, **CLOSURE_CAPS)


def check_convert(job, out):
    eq, rebuilt = out
    decided = rebuilt is not None
    if "rep" in job:
        values = rep_values(job["rep"], ORDER)
        if not relation_holds(eq.k, eq.coeffs, LaurentSeries(0, values, ORDER)):
            return "extracted equation fails on the sequence", decided
    else:
        expected_dim = job["expected"]["closure_dim"]
        got = rebuilt.dim if rebuilt is not None else None
        if got != expected_dim:
            return "closure dimension %s, golden %s" % (got, expected_dim), decided
        f = jsonio.series_from_json(job["series"])
        values = [f.coeffs[n - f.valuation] if n >= f.valuation else Fraction(0) for n in range(f.order)]
    if rebuilt is not None:
        for n, (got, want) in enumerate(zip(rep_values(jsonio.rep_to_json(rebuilt), ORDER), values)):
            if got != want:
                return "rebuilt representation differs at n = %d" % n, decided
    return None, decided


WORKLOADS = {
    "pipeline": (prepare_pipeline, run_pipeline, check_pipeline),
    "certify": (prepare_certify, run_certify, check_certify),
    "convert": (prepare_convert, run_convert, check_convert),
}
