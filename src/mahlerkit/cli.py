"""Command-line interface.

Inputs are file paths, "-" for standard input, or inline JSON.  Exit codes:
0 success (an INCONCLUSIVE verdict is a successful run), 2 usage error,
3 malformed input, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

from . import corpus as corpus_mod
from . import jsonio
from .algebra import rat_to_str
from .becker import (
    certify,
    certify_regular,
    normalize,
    shifted_solution,
    structure_decompose,
    witness_equation,
)
from .errors import InvariantViolation
from .mahler import guess, pinned_relation_search, pole_profile, solve_series, valuation_bound, verify
from .regular import closure_rep, eval_rep, rep_to_equation, series_of_rep
from .series import cartier


def _defaults():
    """Search-bound defaults, overridable through the environment.  They stay
    strings: argparse applies type=int only when a subcommand uses the flag,
    so a malformed value is a usage error there and harmless elsewhere."""
    env = os.environ.get
    return {
        "depth_max": env("MAHLERKIT_DEPTH_MAX") or "4",
        "deg_max": env("MAHLERKIT_DEG_MAX") or "12",
        "m_max": env("MAHLERKIT_M_MAX") or "3",
    }


def _read_doc(spec: str):
    if spec == "-":
        text = sys.stdin.read()
    elif spec.lstrip().startswith(("{", "[")):
        text = spec
    else:
        text = Path(spec).read_text()
    return jsonio.loads_strict(text)


def _read_equation(spec: str, k_flag=None):
    eq = jsonio.equation_from_json(_read_doc(spec))
    if k_flag is not None and k_flag != eq.k:
        raise ValueError("--k %d disagrees with the equation's k = %d" % (k_flag, eq.k))
    return eq


def _read_series(spec: str):
    return jsonio.series_from_json(_read_doc(spec))


def _emit(args, doc, text_lines):
    if args.format == "json":
        sys.stdout.write(jsonio.dumps_canonical(doc))
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")
    return 0


def _series_or_unique_solution(args, eq):
    """The --series input, or else the one Laurent solution of eq."""
    if args.series:
        return _read_series(args.series)
    basis = solve_series(eq, args.order)
    if len(basis) != 1:
        raise ValueError(
            "solution space has dimension %d; supply --series to pick one" % len(basis)
        )
    return basis[0]


def _series_text(s):
    return "valuation %d, order %d: %s" % (
        s.valuation,
        s.order,
        ", ".join(rat_to_str(c) for c in s.coeffs),
    )


def _eq_text(eq):
    return "k=%d, coeffs %s" % (
        eq.k,
        "; ".join("[" + ", ".join(rat_to_str(c) for c in p.coeffs) + "]" for p in eq.coeffs),
    )


# -- subcommand handlers -----------------------------------------------------


def cmd_solve(args):
    eq = _read_equation(args.equation, args.k)
    basis = solve_series(eq, args.order)
    doc = {
        "valuation_bound": valuation_bound(eq),
        "basis": [jsonio.series_to_json(b) for b in basis],
    }
    lines = ["valuation bound: %d" % valuation_bound(eq)]
    lines += [_series_text(b) for b in basis] or ["no Laurent solutions in the window"]
    return doc, lines


def cmd_verify(args):
    eq = _read_equation(args.equation, args.k)
    f = _read_series(args.series)
    res = verify(eq, f)
    doc = {
        "residual_order": res.residual_order,
        "propagated_order": res.propagated_order,
        "ok": res.ok,
    }
    return doc, ["residual order %d of %d: %s" % (res.residual_order, res.propagated_order, "ok" if res.ok else "FAILS")]


def cmd_guess(args):
    f = _read_series(args.series)
    eq = guess(f, args.k, args.d_max, args.b_max, args.margin)
    lines = ["no equation within the bounds"] if eq is None else ["found: " + _eq_text(eq)]
    return jsonio.search_result_to_json(eq), lines


def cmd_cartier(args):
    f = _read_series(args.series)
    out = cartier(f, args.k, args.index)
    return jsonio.series_to_json(out), [_series_text(out)]


def cmd_rep_eval(args):
    rep = jsonio.rep_from_json(_read_doc(args.representation))
    if args.count is not None:
        values = series_of_rep(rep, args.count).coefficient_list(0, args.count) if args.count > 0 else []
        return (
            {"values": [rat_to_str(v) for v in values]},
            [", ".join(rat_to_str(v) for v in values)],
        )
    value = eval_rep(rep, args.n)
    return {"n": args.n, "value": rat_to_str(value)}, ["f(%d) = %s" % (args.n, rat_to_str(value))]


def cmd_rep_from_eq(args):
    eq = _read_equation(args.equation, args.k)
    f = _series_or_unique_solution(args, eq)
    rep = closure_rep(eq, f, max_dim=args.max_dim, max_depth=args.max_depth)
    if rep is None:
        return (
            {"verdict": "INCONCLUSIVE", "note": "closure caps exceeded (not a non-regularity proof)"},
            ["INCONCLUSIVE: closure caps exceeded"],
        )
    return jsonio.rep_to_json(rep), ["dimension %d representation" % rep.dim]


def cmd_eq_from_rep(args):
    rep = jsonio.rep_from_json(_read_doc(args.representation))
    eq = rep_to_equation(rep)
    return jsonio.equation_to_json(eq), [_eq_text(eq)]


def cmd_normalize(args):
    eq = _read_equation(args.equation, args.k)
    f = _read_series(args.series) if args.series else None
    norm = normalize(eq)
    if f is not None:
        shifted_solution(eq, norm, f)  # for its checks; G is not printed
    lines = [
        "gamma = %d, N = %d, c = %s" % (norm.gamma, norm.N, rat_to_str(norm.c)),
        "Q = %r, P = %r, h = %r" % (norm.Q, norm.P, norm.h),
        "new equation: " + _eq_text(norm.new_eq),
    ]
    return jsonio.normalization_to_json(norm), lines


def cmd_becker_search(args):
    g = _read_series(args.series)
    eq = pinned_relation_search(g, args.k, args.depth_max, args.deg_max)
    if eq is None:
        return (
            {"verdict": "INCONCLUSIVE", "note": "bounds exhausted"},
            ["INCONCLUSIVE: bounds exhausted"],
        )
    return jsonio.search_result_to_json(eq), ["found: " + _eq_text(eq)]


def cmd_certify(args):
    eq = _read_equation(args.equation, args.k)
    f = _read_series(args.series) if args.series else None
    cert = certify(eq, f, args.m_max)
    doc = jsonio.certificate_to_json(cert)
    lines = ["%s%s" % (cert.verdict, " (%s)" % cert.note if cert.note else "")]
    return doc, lines


def cmd_witness(args):
    norm = jsonio.normalization_from_json(_read_doc(args.normalization))
    beq = jsonio.equation_from_json(_read_doc(args.becker_eq))
    eq = witness_equation(norm, beq)
    return jsonio.equation_to_json(eq), [_eq_text(eq)]


def cmd_decompose(args):
    eq = _read_equation(args.equation, args.k)
    f = _read_series(args.series)
    big_j, gamma_poly, rho, delta = structure_decompose(eq, f)
    doc = {
        "J": jsonio.series_to_json(big_j),
        "Gamma": jsonio.poly_to_json(gamma_poly),
        "rho": rat_to_str(rho),
        "delta": delta,
    }
    lines = [
        "a_0 = rho z^delta Gamma: rho = %s, delta = %d, Gamma = %r" % (rat_to_str(rho), delta, gamma_poly),
        "J: " + _series_text(big_j),
    ]
    return doc, lines


def cmd_pole_profile(args):
    eq = _read_equation(args.equation, args.k)
    profile = pole_profile(eq, args.cyclo_order, args.n_max)
    return (
        {"cyclo_order": args.cyclo_order, "profile": profile},
        ["pole orders at Phi_%d: %s" % (args.cyclo_order, profile)],
    )


def cmd_corpus(args):
    if args.action == "list":
        names = corpus_mod.corpus_names()
        return {"items": names}, names
    items = {item.name: item for item in corpus_mod.build_corpus()}
    if args.action == "emit":
        if args.name not in items:
            raise ValueError("unknown corpus item %r (have %s)" % (args.name, sorted(items)))
        doc = jsonio.corpus_item_to_json(items[args.name])
        return doc, [jsonio.dumps_canonical(doc).rstrip("\n")]
    # regenerate
    out_dir = Path(args.out) if args.out else _data_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, item in sorted(items.items()):
        path = out_dir / ("%s.json" % name)
        path.write_text(jsonio.dumps_canonical(jsonio.corpus_item_to_json(item)))
        written.append(str(path))
    return {"written": written}, written


def _data_dir() -> Path:
    return Path(__file__).parent / "data" / "corpus"


def cmd_roundtrip(args):
    report = []
    for spec in args.paths:
        doc = _read_doc(spec)
        name, parse, dump = jsonio.detect_schema(doc)
        parsed = parse(doc)
        canonical = jsonio.dumps_canonical(dump(parsed))
        if spec == "-" or spec.lstrip().startswith(("{", "[")):
            original = None
        else:
            original = Path(spec).read_text()
        entry = {"path": spec, "schema": name, "canonical": original == canonical if original is not None else None}
        if original is not None and original != canonical:
            for i, (a, b) in enumerate(zip(original, canonical)):
                if a != b:
                    entry["first_difference"] = i
                    break
            else:
                entry["first_difference"] = min(len(original), len(canonical))
        report.append(entry)
    lines = [
        "%s [%s]: %s" % (e["path"], e["schema"], "canonical" if e["canonical"] else "NOT canonical")
        for e in report
    ]
    return {"report": report}, lines


def cmd_pipeline(args):
    stage = "parse"
    try:
        eq = _read_equation(args.equation, args.k)
        report = {"equation": jsonio.equation_to_json(eq)}
        stage = "solve"
        f = _series_or_unique_solution(args, eq)
        report["solution"] = jsonio.series_to_json(f)
        stage = "normalize"
        norm = normalize(eq)
        g = shifted_solution(eq, norm, f)
        report["normalization"] = jsonio.normalization_to_json(norm)
        stage = "becker-search"
        try:
            becker_eq = pinned_relation_search(g, eq.k, args.depth_max, args.deg_max)
        except ValueError as exc:  # the prefix is too short for the search bounds
            becker_eq = None
            report["becker"] = {"verdict": "INCONCLUSIVE", "note": str(exc)}
        if becker_eq is None:
            report.setdefault("becker", {"verdict": "INCONCLUSIVE"})
        else:
            res = verify(becker_eq, g)
            report["becker"] = {
                "verdict": "FOUND",
                "equation": jsonio.equation_to_json(becker_eq),
                "residual_order": res.residual_order,
            }
            stage = "witness"
            wit = witness_equation(norm, becker_eq)
            report["witness"] = {
                "equation": jsonio.equation_to_json(wit),
                "certificate": jsonio.certificate_to_json(certify_regular(wit)),
            }
        stage = "certify"
        cert = certify(eq, f, args.m_max)
        report["certificate"] = jsonio.certificate_to_json(cert)
    except Exception as exc:
        exc.pipeline_stage = stage
        raise
    lines = ["stage-complete pipeline report; verdict %s" % report["certificate"]["verdict"]]
    return report, lines


# -- parser ------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; the MAHLERKIT_* bound defaults
    are read when it is built."""
    d = _defaults()
    parser = argparse.ArgumentParser(
        prog="mahlerkit",
        description="Exact solver, guesser, and certifier for Mahler functional equations",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        return p

    p = add("solve", cmd_solve, help="basis of Laurent series solutions")
    p.add_argument("equation")
    p.add_argument("--k", type=int)
    p.add_argument("--order", type=int, default=64)

    p = add("verify", cmd_verify, help="check a series against an equation")
    p.add_argument("equation")
    p.add_argument("--series", required=True)
    p.add_argument("--k", type=int)

    p = add("guess", cmd_guess, help="guess an equation from a coefficient prefix")
    p.add_argument("series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d-max", type=int, default=2)
    p.add_argument("--b-max", type=int, default=4)
    p.add_argument("--margin", type=int, default=16)

    p = add("cartier", cmd_cartier, help="apply a section operator to a series")
    p.add_argument("series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", dest="index", type=int, required=True)

    p = add("rep-eval", cmd_rep_eval, help="evaluate a linear representation")
    p.add_argument("representation")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=int)
    which.add_argument("--count", type=int)

    p = add("rep-from-eq", cmd_rep_from_eq, help="build a representation by section closure")
    p.add_argument("equation")
    p.add_argument("--k", type=int)
    p.add_argument("--series")
    p.add_argument("--order", type=int, default=64)
    p.add_argument("--max-dim", type=int, default=16)
    p.add_argument("--max-depth", type=int, default=32)

    p = add("eq-from-rep", cmd_eq_from_rep, help="extract an equation from a representation")
    p.add_argument("representation")

    p = add("normalize", cmd_normalize, help="remove set-A zeros and the z-power from a_0")
    p.add_argument("equation")
    p.add_argument("--k", type=int)
    p.add_argument("--series")

    p = add("becker-search", cmd_becker_search, help="search for a leading-coefficient-1 relation")
    p.add_argument("series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depth-max", type=int, default=d["depth_max"])
    p.add_argument("--deg-max", type=int, default=d["deg_max"])

    p = add("certify", cmd_certify, help="regularity then irregularity certificates")
    p.add_argument("equation")
    p.add_argument("--k", type=int)
    p.add_argument("--series")
    p.add_argument("--m-max", type=int, default=d["m_max"])

    p = add("witness", cmd_witness, help="clear a normalized relation back to the original function")
    p.add_argument("--normalization", required=True)
    p.add_argument("--becker-eq", required=True)

    p = add("decompose", cmd_decompose, help="series/infinite-product structure split")
    p.add_argument("equation")
    p.add_argument("--series", required=True)
    p.add_argument("--k", type=int)

    p = add("pole-profile", cmd_pole_profile, help="pole orders of companion products at a cyclotomic")
    p.add_argument("equation")
    p.add_argument("--k", type=int)
    p.add_argument("--cyclo-order", type=int, required=True)
    p.add_argument("--n-max", type=int, default=6)

    p = add("corpus", cmd_corpus, help="list, emit, or regenerate the example corpus")
    p.add_argument("action", choices=("list", "emit", "regenerate"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out")

    p = add("roundtrip", cmd_roundtrip, help="parse-serialize-parse fixpoint check")
    p.add_argument("paths", nargs="+")

    p = add("pipeline", cmd_pipeline, help="solve, normalize, search, witness, certify in one run")
    p.add_argument("equation")
    p.add_argument("--k", type=int)
    p.add_argument("--series")
    p.add_argument("--order", type=int, default=256)
    p.add_argument("--depth-max", type=int, default=d["depth_max"])
    p.add_argument("--deg-max", type=int, default=d["deg_max"])
    p.add_argument("--m-max", type=int, default=d["m_max"])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, lines = args.func(args)
    except json.JSONDecodeError as exc:
        print("malformed JSON: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        stage = getattr(exc, "pipeline_stage", None)
        prefix = "[%s] " % stage if stage else ""
        print("%sinput error: %s" % (prefix, exc), file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        stage = getattr(exc, "pipeline_stage", None)
        prefix = "[%s] " % stage if stage else ""
        print("%sinternal invariant violation: %s" % (prefix, exc), file=sys.stderr)
        return 4
    return _emit(args, doc, lines)


if __name__ == "__main__":
    sys.exit(main())
