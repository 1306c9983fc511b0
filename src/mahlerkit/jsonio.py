"""Canonical JSON encoding for every schema the package exposes.

Canonical form: object keys sorted, two-space indent, one trailing newline,
rationals as "p/q" strings (just "p" when the denominator is 1), no floats
anywhere.  Serializing any parsed document reproduces it byte for byte,
which keeps golden files diffable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import Poly, rat_to_str
from .becker import INCONCLUSIVE, NOT_REGULAR, REGULAR, BeckerNormalization, Certificate
from .corpus import CorpusItem
from .mahler import MahlerEquation
from .regular import LinearRepresentation
from .series import LaurentSeries

_RAT_RE = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$")


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_rat(s) -> Fraction:
    if not isinstance(s, str) or not _RAT_RE.match(s):
        raise ValueError("not a rational string: %r" % (s,))
    x = Fraction(s)
    if rat_to_str(x) != s:
        raise ValueError("rational %r is not in lowest terms" % (s,))
    return x


def _expect(cond, msg):
    if not cond:
        raise ValueError(msg)


def _int(v, what):
    _expect(isinstance(v, int) and not isinstance(v, bool), "%s must be an integer" % what)
    return v


# -- polynomials -------------------------------------------------------------


def poly_to_json(p: Poly) -> list[str]:
    return [rat_to_str(c) for c in p.coeffs]


def poly_from_json(doc) -> Poly:
    _expect(isinstance(doc, list), "polynomial must be an array of rational strings")
    coeffs = [parse_rat(c) for c in doc]
    _expect(not coeffs or coeffs[-1] != 0, "polynomial has a trailing zero coefficient")
    return Poly(coeffs)


# -- series ------------------------------------------------------------------


def series_to_json(s: LaurentSeries) -> dict:
    return {
        "valuation": s.valuation,
        "order": s.order,
        "coeffs": [rat_to_str(c) for c in s.coeffs],
    }


def series_from_json(doc) -> LaurentSeries:
    _expect(isinstance(doc, dict), "series must be an object")
    val = _int(doc.get("valuation"), "valuation")
    order = _int(doc.get("order"), "order")
    coeffs = doc.get("coeffs")
    _expect(isinstance(coeffs, list), "coeffs must be an array")
    cs = [parse_rat(c) for c in coeffs]
    _expect(len(cs) == order - val, "series window and coefficient count disagree")
    _expect(not cs or cs[0] != 0, "series leading coefficient must be nonzero")
    return LaurentSeries(val, cs, order)


# -- equations ---------------------------------------------------------------


def equation_to_json(eq: MahlerEquation) -> dict:
    return {"k": eq.k, "coeffs": [poly_to_json(p) for p in eq.coeffs]}


def equation_from_json(doc) -> MahlerEquation:
    _expect(isinstance(doc, dict), "equation must be an object")
    k = _int(doc.get("k"), "k")
    coeffs = doc.get("coeffs")
    _expect(isinstance(coeffs, list), "coeffs must be an array of polynomials")
    return MahlerEquation(k, [poly_from_json(p) for p in coeffs])


# -- linear representations --------------------------------------------------


def rep_to_json(rep: LinearRepresentation) -> dict:
    return {
        "k": rep.k,
        "dim": rep.dim,
        "row": [rat_to_str(x) for x in rep.row],
        "matrices": [
            [[rat_to_str(x) for x in mrow] for mrow in m] for m in rep.matrices
        ],
        "col": [rat_to_str(x) for x in rep.col],
    }


def rep_from_json(doc) -> LinearRepresentation:
    _expect(isinstance(doc, dict), "representation must be an object")
    k = _int(doc.get("k"), "k")
    dim = _int(doc.get("dim"), "dim")
    row = doc.get("row")
    col = doc.get("col")
    mats = doc.get("matrices")
    _expect(isinstance(row, list) and isinstance(col, list), "row/col must be arrays")
    _expect(
        isinstance(mats, list)
        and all(isinstance(m, list) and all(isinstance(r, list) for r in m) for m in mats),
        "matrices must be an array of arrays of rows",
    )
    return LinearRepresentation(
        k,
        dim,
        [parse_rat(x) for x in row],
        [[[parse_rat(x) for x in mrow] for mrow in m] for m in mats],
        [parse_rat(x) for x in col],
    )


# -- normalizations and certificates ----------------------------------------


def normalization_to_json(norm: BeckerNormalization) -> dict:
    return {
        "set_A": [[n, e] for n, e in norm.set_a],
        "N": norm.N,
        "gamma": norm.gamma,
        "c": rat_to_str(norm.c),
        "Q": poly_to_json(norm.Q),
        "P": poly_to_json(norm.P),
        "h": poly_to_json(norm.h),
        "a": poly_to_json(norm.a),
        "new_eq": equation_to_json(norm.new_eq),
    }


def normalization_from_json(doc) -> BeckerNormalization:
    _expect(isinstance(doc, dict), "normalization must be an object")
    set_a = doc.get("set_A")
    _expect(
        isinstance(set_a, list) and all(isinstance(p, list) and len(p) == 2 for p in set_a),
        "set_A must be an array of [order, multiplicity]",
    )
    return BeckerNormalization(
        set_a=tuple((_int(n, "order"), _int(e, "multiplicity")) for n, e in set_a),
        N=_int(doc.get("N"), "N"),
        gamma=_int(doc.get("gamma"), "gamma"),
        c=parse_rat(doc.get("c")),
        Q=poly_from_json(doc.get("Q")),
        P=poly_from_json(doc.get("P")),
        h=poly_from_json(doc.get("h")),
        a=poly_from_json(doc.get("a")),
        new_eq=equation_from_json(doc.get("new_eq")),
    )


def certificate_to_json(cert: Certificate) -> dict:
    doc = {"verdict": cert.verdict}
    if cert.proposition is not None:
        doc["proposition"] = cert.proposition
    if cert.order is not None:
        doc["order"] = cert.order
    if cert.M is not None:
        doc["M"] = cert.M
    if cert.equation is not None:
        doc["equation"] = equation_to_json(cert.equation)
    if cert.minimality is not None:
        doc["minimality"] = cert.minimality
    if cert.note:
        doc["note"] = cert.note
    return doc


def certificate_from_json(doc) -> Certificate:
    _expect(isinstance(doc, dict), "certificate must be an object")
    verdicts = (REGULAR, NOT_REGULAR, INCONCLUSIVE)
    _expect(doc.get("verdict") in verdicts, "verdict must be one of %s" % ", ".join(verdicts))
    for key in ("proposition", "minimality", "note"):
        _expect(isinstance(doc.get(key, ""), str), "%s must be a string" % key)
    order, m = (_int(doc[key], key) if key in doc else None for key in ("order", "M"))
    eq = doc.get("equation")
    return Certificate(
        verdict=doc["verdict"],
        proposition=doc.get("proposition"),
        order=order,
        M=m,
        equation=equation_from_json(eq) if eq is not None else None,
        minimality=doc.get("minimality"),
        note=doc.get("note", ""),
    )


def search_result_to_json(eq: MahlerEquation | None) -> dict:
    return {"verdict": "NONE"} if eq is None else {"verdict": "FOUND", "equation": equation_to_json(eq)}


def search_result_from_json(doc) -> MahlerEquation | None:
    """The output of guess and becker-search: FOUND with an equation, or NONE alone."""
    _expect(isinstance(doc, dict), "search result must be an object")
    found = doc.get("verdict") == "FOUND"
    keys = {"verdict", "equation"} if found else {"verdict"}
    _expect(
        doc.get("verdict") in ("FOUND", "NONE") and set(doc) == keys,
        "search result must be FOUND with an equation, or NONE alone",
    )
    return equation_from_json(doc["equation"]) if found else None


# -- corpus items ------------------------------------------------------------


def _expected_to_json(expected: dict) -> dict:
    doc = dict(expected)
    norm = dict(doc["normalization"])
    norm["Q"] = poly_to_json(norm["Q"])
    doc["normalization"] = norm
    return doc


def _expected_from_json(doc) -> dict:
    _expect(isinstance(doc, dict), "expected must be an object")
    _expect(isinstance(doc.get("normalization"), dict), "expected normalization must be an object")
    out = dict(doc)
    norm = dict(out["normalization"])
    norm["Q"] = poly_from_json(norm.get("Q"))
    out["normalization"] = norm
    return out


def corpus_item_to_json(item: CorpusItem) -> dict:
    return {
        "name": item.name,
        "k": item.k,
        "equation": equation_to_json(item.equation),
        "prefix": series_to_json(item.prefix),
        "expected": _expected_to_json(item.expected),
    }


def corpus_item_from_json(doc) -> CorpusItem:
    _expect(isinstance(doc, dict), "corpus item must be an object")
    return CorpusItem(
        name=doc.get("name"),
        k=_int(doc.get("k"), "k"),
        equation=equation_from_json(doc.get("equation")),
        prefix=series_from_json(doc.get("prefix")),
        expected=_expected_from_json(doc.get("expected")),
    )


# -- schema detection for the roundtrip check --------------------------------

_SCHEMAS = (
    ("corpus_item", lambda d: {"name", "equation", "prefix"} <= set(d), corpus_item_from_json, corpus_item_to_json),
    ("normalization", lambda d: "set_A" in d, normalization_from_json, normalization_to_json),
    ("search_result", lambda d: d.get("verdict") in ("FOUND", "NONE"), search_result_from_json, search_result_to_json),
    ("certificate", lambda d: "verdict" in d, certificate_from_json, certificate_to_json),
    ("representation", lambda d: "matrices" in d, rep_from_json, rep_to_json),
    ("series", lambda d: "valuation" in d, series_from_json, series_to_json),
    ("equation", lambda d: {"k", "coeffs"} <= set(d), equation_from_json, equation_to_json),
)


def detect_schema(doc):
    """(name, parser, serializer) for a decoded JSON document."""
    if isinstance(doc, dict):
        for name, match, parse, dump in _SCHEMAS:
            if match(doc):
                return name, parse, dump
    if isinstance(doc, list):
        return "polynomial", poly_from_json, poly_to_json
    raise ValueError("document matches no known schema")


def loads_strict(text: str):
    """Decode JSON while rejecting floats (canonical form has none)."""

    def no_floats(s):
        raise ValueError("floats are not allowed in canonical documents: %s" % s)

    return json.loads(text, parse_float=no_floats)
