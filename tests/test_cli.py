import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mahlerkit import cli, jsonio
from mahlerkit.algebra import Poly, RationalFunction
from mahlerkit.becker import Certificate, normalize, reciprocal_rep
from mahlerkit.corpus import corpus_names
from mahlerkit.mahler import MahlerEquation
from mahlerkit.regular import LinearRepresentation, closure_rep, series_of_rep
from mahlerkit.series import LaurentSeries, prefix_oracle

TM_EQ_JSON = json.dumps({"k": 2, "coeffs": [["1"], ["-1", "1"]]})
U_EQ_JSON = json.dumps({"k": 2, "coeffs": [["1", "-1"], ["-1"]]})
OPZ_EQ_JSON = json.dumps({"k": 2, "coeffs": [["1", "1"], ["-1"]]})


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, stdin=None, timeout=300, **env):
    """`python -m mahlerkit ARGS` on this checkout's sources, with the
    environment variables in env added; a run past timeout seconds fails
    the test with TimeoutExpired instead of hanging the suite."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mahlerkit", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
        timeout=timeout,
    )


def run_json(*args, stdin=None):
    proc = run_cli("--format", "json", *args, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def series_json(s):
    return json.dumps(jsonio.series_to_json(s))


# -- serialization fixpoints --------------------------------------------------


def test_roundtrip_fixpoints():
    eq = MahlerEquation(2, [Poly([1]), Poly([-1, 1])])
    assert jsonio.equation_from_json(jsonio.equation_to_json(eq)) == eq
    s = LaurentSeries(-2, [1, 0, 3], 1)
    assert jsonio.series_from_json(jsonio.series_to_json(s)) == s
    rep = LinearRepresentation(2, 1, [1], [[[1]], [[-1]]], [1])
    assert jsonio.rep_from_json(jsonio.rep_to_json(rep)) == rep
    norm = normalize(MahlerEquation(2, [Poly([1, 1]), Poly([-1])]))
    back = jsonio.normalization_from_json(jsonio.normalization_to_json(norm))
    assert back == norm
    cert = Certificate("NOT_REGULAR", proposition="prop0", M=1, order=1)
    assert jsonio.certificate_from_json(jsonio.certificate_to_json(cert)) == cert


def test_canonical_dump_is_deterministic():
    eq = MahlerEquation(2, [Poly([1]), Poly([-1, 1])])
    a = jsonio.dumps_canonical(jsonio.equation_to_json(eq))
    b = jsonio.dumps_canonical(jsonio.equation_to_json(jsonio.equation_from_json(json.loads(a))))
    assert a == b


def test_strict_parsing_rejects_junk():
    with pytest.raises(ValueError):
        jsonio.parse_rat("2/4")  # not lowest terms
    with pytest.raises(ValueError):
        jsonio.parse_rat("1.5")
    with pytest.raises(ValueError):
        jsonio.parse_rat("+3")
    with pytest.raises(ValueError):
        jsonio.loads_strict('{"x": 1.5}')
    with pytest.raises(ValueError):
        jsonio.poly_from_json(["1", "0"])  # trailing zero
    with pytest.raises(ValueError):
        jsonio.series_from_json({"valuation": 0, "order": 2, "coeffs": ["1"]})


def test_rational_function_str_round():
    rf = RationalFunction(Poly([1, 2]), Poly([1, 0, 3]))
    assert rf == RationalFunction(Poly([2, 4]), Poly([2, 0, 6]))


# -- CLI behavior -------------------------------------------------------------


def test_cli_solve_thue_morse():
    doc = run_json("solve", TM_EQ_JSON, "--k", "2", "--order", "8")
    assert doc["basis"][0]["coeffs"] == ["1", "-1", "-1", "1", "-1", "1", "1", "-1"]
    assert doc["valuation_bound"] == 0


def test_cli_certify_binary_partitions():
    prefix = series_json(prefix_oracle("binary_partitions", 64))
    doc = run_json("certify", U_EQ_JSON, "--k", "2", "--series", prefix)
    assert doc["verdict"] == "NOT_REGULAR"
    assert doc["proposition"] == "prop0"
    assert doc["M"] == 1


def test_cli_normalize_worked_example():
    doc = run_json("normalize", OPZ_EQ_JSON, "--k", "2")
    assert doc["Q"] == ["1", "-1"]
    assert doc["gamma"] == 0
    assert doc["P"] == ["1", "1"]
    assert doc["h"] == ["1"]
    assert doc["N"] == 1


def test_cli_verify_and_guess():
    prefix = series_json(prefix_oracle("stern", 64))
    doc = run_json("verify", json.dumps({"k": 2, "coeffs": [["1"], ["-1", "-1", "-1"]]}), "--series", prefix)
    assert doc["ok"] is True
    doc = run_json("guess", prefix, "--k", "2", "--d-max", "2", "--b-max", "3")
    assert doc["verdict"] == "FOUND"
    assert doc["equation"]["coeffs"] == [["1"], ["-1", "-1", "-1"]]


def test_cli_cartier():
    s = json.dumps({"valuation": 0, "order": 4, "coeffs": ["1", "2", "3", "4"]})
    doc = run_json("cartier", s, "--k", "2", "--i", "1")
    assert doc["coeffs"] == ["2", "4"]


def test_cli_rep_roundtrip_and_eval():
    rep_doc = run_json("rep-from-eq", TM_EQ_JSON, "--order", "64")
    assert rep_doc["dim"] == 1
    doc = run_json("rep-eval", json.dumps(rep_doc), "--n", "6")
    assert doc["value"] == "1"
    doc = run_json("rep-eval", json.dumps(rep_doc), "--count", "8")
    assert doc["values"] == ["1", "-1", "-1", "1", "-1", "1", "1", "-1"]
    eq_doc = run_json("eq-from-rep", json.dumps(rep_doc))
    assert eq_doc["coeffs"] == [["1"], ["-1", "1"]]


def test_cli_rep_from_eq_inconclusive():
    doc = run_json("rep-from-eq", U_EQ_JSON, "--order", "64", "--max-dim", "4", "--max-depth", "4")
    assert doc["verdict"] == "INCONCLUSIVE"


def test_cli_becker_search_and_witness(tmp_path):
    norm_doc = run_json("normalize", OPZ_EQ_JSON)
    norm_path = tmp_path / "norm.json"
    norm_path.write_text(jsonio.dumps_canonical(norm_doc))
    g = series_json(LaurentSeries.from_poly(Poly([1]), 64))
    search = run_json("becker-search", g, "--k", "2", "--depth-max", "2", "--deg-max", "2")
    assert search["verdict"] == "FOUND"
    beq_path = tmp_path / "beq.json"
    beq_path.write_text(jsonio.dumps_canonical(search["equation"]))
    wit = run_json("witness", "--normalization", str(norm_path), "--becker-eq", str(beq_path))
    assert wit["coeffs"] == [["1", "0", "-1"], ["-1", "1"]]


def test_cli_decompose_and_pole_profile():
    prefix = series_json(prefix_oracle("binary_partitions", 16))
    doc = run_json("decompose", U_EQ_JSON, "--series", prefix)
    assert doc["Gamma"] == ["1", "-1"]
    assert doc["J"]["coeffs"] == ["1"] + ["0"] * 15
    doc = run_json("pole-profile", U_EQ_JSON, "--cyclo-order", "1", "--n-max", "6")
    assert doc["profile"] == [1, 2, 3, 4, 5, 6]


def test_cli_corpus_and_roundtrip(tmp_path):
    doc = run_json("corpus", "list")
    assert "thue_morse" in doc["items"]
    item = run_json("corpus", "emit", "stern")
    assert item["name"] == "stern"
    out = tmp_path / "corpus"
    run_json("corpus", "regenerate", "--out", str(out))
    files = sorted(p.name for p in out.glob("*.json"))
    assert files == sorted("%s.json" % n for n in doc["items"])
    rt = run_json("roundtrip", *(str(p) for p in sorted(out.glob("*.json"))))
    assert all(e["canonical"] for e in rt["report"])


def test_cli_roundtrip_equation_and_rep_files(tmp_path):
    eq_path = tmp_path / "eq.json"
    eq_path.write_text(jsonio.dumps_canonical(json.loads(TM_EQ_JSON)))
    rep = LinearRepresentation(2, 1, [1], [[[1]], [[-1]]], [1])
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(jsonio.dumps_canonical(jsonio.rep_to_json(rep)))
    doc = run_json("roundtrip", str(eq_path), str(rep_path))
    assert [e["canonical"] for e in doc["report"]] == [True, True]
    assert [e["schema"] for e in doc["report"]] == ["equation", "representation"]


def test_cli_roundtrip_flags_non_canonical(tmp_path):
    path = tmp_path / "eq.json"
    path.write_text('{"coeffs": [["1"], ["-1", "1"]], "k": 2}')  # wrong layout
    doc = run_json("roundtrip", str(path))
    entry = doc["report"][0]
    assert entry["canonical"] is False
    assert "first_difference" in entry


def test_cli_roundtrip_search_results(tmp_path):
    stern = series_json(prefix_oracle("stern", 64))
    outputs = {
        "guess-found": ("guess", stern, "--k", "2", "--d-max", "2", "--b-max", "3"),
        "guess-none": ("guess", stern, "--k", "2", "--d-max", "1", "--b-max", "0"),
        "search-found": ("becker-search", stern, "--k", "2", "--depth-max", "1", "--deg-max", "2"),
    }
    paths = []
    for name, args in outputs.items():
        proc = run_cli("--format", "json", *args)
        assert proc.returncode == 0, proc.stderr
        paths.append(tmp_path / (name + ".json"))
        paths[-1].write_text(proc.stdout)
    assert [json.loads(p.read_text())["verdict"] for p in paths] == ["FOUND", "NONE", "FOUND"]
    doc = run_json("roundtrip", *map(str, paths))
    assert [(e["schema"], e["canonical"]) for e in doc["report"]] == [("search_result", True)] * 3


def test_cli_empty_window_far_out_runs_in_bounded_time():
    # a series known to vanish below z^3000000: nothing past its (empty)
    # window is expanded, so each command ends in about a second
    zero = json.dumps({"valuation": 3000000, "order": 3000000, "coeffs": []})
    for command in ("normalize", "decompose"):
        proc = run_cli(command, OPZ_EQ_JSON, "--series", zero, timeout=30)
        assert proc.returncode == 0, proc.stderr
    proc = run_cli("pipeline", OPZ_EQ_JSON, "--series", zero, timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("[becker-search] input error: insufficient prefix length 0")


def test_cli_exit_codes():
    # malformed JSON -> 3 with a position in the message
    proc = run_cli("solve", '{"k": 2, "coeffs": [[')
    assert proc.returncode == 3
    assert "column" in proc.stderr
    # schema violation -> 3
    proc = run_cli("solve", '{"k": 2, "coeffs": [["1"], ["0.5"]]}')
    assert proc.returncode == 3
    # usage error -> 2
    proc = run_cli("no-such-command")
    assert proc.returncode == 2
    # missing file -> 3
    proc = run_cli("solve", "/nonexistent/equation.json")
    assert proc.returncode == 3
    # k mismatch -> 3
    proc = run_cli("solve", TM_EQ_JSON, "--k", "3")
    assert proc.returncode == 3


def test_cli_rep_eval_needs_exactly_one_of_n_and_count():
    rep = json.dumps({"k": 2, "dim": 1, "row": ["1"], "matrices": [[["1"]], [["-1"]]], "col": ["1"]})
    for extra in ((), ("--n", "3", "--count", "4")):
        proc = run_cli("rep-eval", rep, *extra)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr


def _golden(name):
    return json.loads((Path(__file__).resolve().parents[1] / "src" / "mahlerkit" / "data" / "corpus" / (name + ".json")).read_text())


def _without(doc, *path):
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return doc


NORM_DOC = {
    "set_A": [1],
    "N": 1,
    "gamma": 0,
    "c": "1",
    "Q": ["1"],
    "P": ["1"],
    "h": ["1"],
    "a": ["1"],
    "new_eq": {"k": 2, "coeffs": [["1"], ["-1"]]},
}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("rep-eval", {"k": 2, "dim": 1, "row": ["1"], "matrices": [1, 2], "col": ["1"]}),
        ("roundtrip", {"k": 2, "dim": 1, "row": ["1"], "matrices": [[1], [["1"]]], "col": ["1"]}),
        ("roundtrip", NORM_DOC),
        ("roundtrip", _without(_golden("thue_morse"), "expected")),
        ("roundtrip", _without(_golden("thue_morse"), "expected", "normalization")),
        ("roundtrip", _without(_golden("thue_morse"), "expected", "normalization", "Q")),
        ("roundtrip", {"verdict": "MAYBE"}),
        ("roundtrip", {"verdict": "REGULAR", "M": "x"}),
        ("roundtrip", {"verdict": "REGULAR", "order": True}),
        ("roundtrip", {"verdict": "REGULAR", "minimality": [1]}),
        ("roundtrip", {"verdict": "FOUND"}),
    ],
    ids=[
        "matrix-not-array",
        "matrix-row-not-array",
        "set-A-entry-not-pair",
        "no-expected",
        "no-normalization",
        "no-Q",
        "unknown-verdict",
        "M-not-integer",
        "order-boolean",
        "minimality-not-string",
        "found-without-equation",
    ],
)
def test_cli_malformed_nested_shapes_exit_3(command, doc):
    extra = ("--n", "3") if command == "rep-eval" else ()
    proc = run_cli(command, json.dumps(doc), *extra)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr and "input error" in proc.stderr


@pytest.mark.parametrize("k", ["0", "-2"])
@pytest.mark.parametrize(
    "command, bounds",
    [("guess", ()), ("becker-search", ("--depth-max", "1", "--deg-max", "2"))],
    ids=["guess", "becker-search"],
)
def test_cli_searches_reject_base_below_2(command, bounds, k):
    proc = run_cli(command, series_json(prefix_oracle("stern", 64)), "--k", k, *bounds)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr and "base k must be >= 2" in proc.stderr


def test_cli_stdin_input():
    proc = run_cli("--format", "json", "solve", "-", "--order", "8", stdin=TM_EQ_JSON)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["basis"][0]["coeffs"][0] == "1"


def test_cli_text_format():
    proc = run_cli("solve", TM_EQ_JSON, "--order", "8")
    assert proc.returncode == 0
    assert "1, -1, -1, 1" in proc.stdout


def test_cli_pipeline_thue_morse():
    doc = run_json("pipeline", TM_EQ_JSON)
    assert doc["becker"]["verdict"] == "FOUND"
    assert doc["certificate"]["verdict"] == "REGULAR"
    assert doc["witness"]["certificate"]["verdict"] == "REGULAR"


def test_cli_pipeline_inconclusive_branch():
    prefix = series_json(prefix_oracle("binary_partitions", 128))
    doc = run_json("pipeline", U_EQ_JSON, "--series", prefix, "--depth-max", "2", "--deg-max", "3")
    assert doc["becker"]["verdict"] == "INCONCLUSIVE"
    assert doc["certificate"]["verdict"] == "NOT_REGULAR"


def test_cli_pipeline_reports_normalization():
    doc = run_json("pipeline", OPZ_EQ_JSON)
    assert doc["normalization"]["Q"] == ["1", "-1"]
    assert doc["becker"]["verdict"] == "FOUND"

    induced = json.dumps(
        {"k": 2, "coeffs": [["0", "0", "0", "1"], ["0", "0", "-1"], ["0", "0", "1", "-1"]]}
    )
    from mahlerkit.corpus import paradox_family

    prefix = series_json(paradox_family(2, 256).F.truncate(256))
    doc = run_json("pipeline", induced, "--series", prefix)
    assert doc["normalization"]["gamma"] == 3
    assert doc["becker"]["verdict"] == "FOUND"
    assert doc["witness"]["certificate"]["verdict"] == "REGULAR"


def test_cli_pipeline_demands_series_when_ambiguous():
    induced = json.dumps(
        {"k": 2, "coeffs": [["0", "0", "0", "1"], ["0", "0", "-1"], ["0", "0", "1", "-1"]]}
    )
    proc = run_cli("pipeline", induced)
    assert proc.returncode == 3
    assert "supply --series" in proc.stderr


def test_cli_normalize_and_pipeline_reject_a_non_solution():
    bad = series_json(prefix_oracle("stern", 64))
    proc = run_cli("normalize", OPZ_EQ_JSON, "--series", bad)
    assert proc.returncode == 3, proc.stderr
    proc = run_cli("pipeline", OPZ_EQ_JSON, "--series", bad)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("[normalize] input error: series does not solve the input equation")


def test_cli_pipeline_expands_g_once(monkeypatch, capsys):
    calls = []
    div_poly = LaurentSeries.div_poly

    def counted(self, q):
        calls.append(q)
        return div_poly(self, q)

    monkeypatch.setattr(LaurentSeries, "div_poly", counted)
    prefix = series_json(LaurentSeries.from_poly(Poly([1, -1]), 256))
    assert cli.main(["--format", "json", "pipeline", OPZ_EQ_JSON, "--series", prefix]) == 0
    assert json.loads(capsys.readouterr().out)["becker"]["verdict"] == "FOUND"
    assert len(calls) == 1


def test_no_dense_series_product_on_any_path(monkeypatch, capsys, tmp_path):
    # every product and quotient of series in the package multiplies or
    # divides by an exact polynomial; the dense kernels must not be reached
    def dense(*args):
        raise AssertionError("dense series arithmetic reached")

    monkeypatch.setattr(LaurentSeries, "__mul__", dense)
    monkeypatch.setattr(LaurentSeries, "invert", dense)
    assert cli.main(["corpus", "regenerate", "--out", str(tmp_path)]) == 0
    golden_dir = Path(__file__).resolve().parents[1] / "src" / "mahlerkit" / "data" / "corpus"
    for name in corpus_names():
        assert (tmp_path / (name + ".json")).read_bytes() == (golden_dir / (name + ".json")).read_bytes()
        doc = _golden(name)
        eq, prefix = json.dumps(doc["equation"]), json.dumps(doc["prefix"])
        assert cli.main(["--format", "json", "pipeline", eq, "--series", prefix]) == 0
        assert cli.main(["--format", "json", "decompose", eq, "--series", prefix]) == 0
    capsys.readouterr()
    rep = reciprocal_rep(Poly([1, 0, -1]), 2)
    assert series_of_rep(rep, 16).coefficient_list(0, 16) == [1 - n % 2 for n in range(16)]
    stern = MahlerEquation(2, [Poly([1]), Poly([-1, -1, -1])])
    assert closure_rep(stern, prefix_oracle("stern", 64)).dim == 2


def test_cli_rep_eval_count_matches_single_n(capsys):
    # k = 3, dimension 3, and row * A_0 != row, so n = 0 is no special case
    rep = LinearRepresentation(
        3,
        3,
        [1, 0, 2],
        [
            [[1, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 1, 0], [1, 0, -1], [0, 2, 1]],
            [[1, 0, 0], [0, Fraction(1, 2), 0], [1, 1, 1]],
        ],
        [1, -1, 1],
    )
    assert [sum(rep.row[i] * rep.matrices[0][i][j] for i in range(3)) for j in range(3)] != list(rep.row)
    doc = json.dumps(jsonio.rep_to_json(rep))
    assert cli.main(["--format", "json", "rep-eval", doc, "--count", "40"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    singles = []
    for n in range(40):
        assert cli.main(["--format", "json", "rep-eval", doc, "--n", str(n)]) == 0
        single = json.loads(capsys.readouterr().out)
        assert single["n"] == n
        singles.append(single["value"])
    assert values == singles
    assert cli.main(["--format", "json", "rep-eval", doc, "--count", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"values": []}


def test_cli_env_var_default_bounds():
    g = series_json(prefix_oracle("stern", 64))
    env = {"MAHLERKIT_DEG_MAX": "0", "MAHLERKIT_DEPTH_MAX": "1"}
    proc = run_cli("--format", "json", "becker-search", g, "--k", "2", **env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "INCONCLUSIVE"
    # explicit flags override the environment defaults
    proc = run_cli("--format", "json", "becker-search", g, "--k", "2", "--deg-max", "2", **env)
    assert json.loads(proc.stdout)["verdict"] == "FOUND"


def test_cli_builds_one_parser_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    assert cli.main(["corpus", "list"]) == 0
    assert "stern" in capsys.readouterr().out
    assert cli.main(["--format", "json", "normalize", OPZ_EQ_JSON]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 1
    assert built.count("mahlerkit") == 1


def test_cli_normalize_large_orbit_product_in_time():
    # k = 10, a_0 = 2 Phi_8^2: N = 3 and Q = prod_{j<3} (1 - z^(10^j))^8,
    # deg Q = 888, built from sparse integer products and divisions
    eq = '{"k":10,"coeffs":[["2","0","0","0","4","0","0","0","2"],["1","1"]]}'
    proc = run_cli("--format", "json", "normalize", eq, timeout=20)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (len(doc["Q"]) - 1, doc["N"]) == (888, 3)


def _mod_eval(coeffs, x, prime):
    """A JSON polynomial (rational strings, ascending) at x mod prime."""
    acc = 0
    for c in reversed(coeffs):
        c = Fraction(c)
        acc = (acc * x + c.numerator * pow(c.denominator, -1, prime)) % prime
    return acc


def test_cli_normalize_phi26_in_time():
    # k = 2, a_0 = Phi_26: 2 has order 12 mod 13, so N = 12, the orbit
    # product is B = Psi_13 and Q = prod_{j<12} B(z^(2^j)) has degree
    # 12 (2^12 - 1) = 49,140; h is checked at one point mod a prime
    eq = '{"k":2,"coeffs":[["1","-1","1","-1","1","-1","1","-1","1","-1","1","-1","1"],["-1"]]}'
    proc = run_cli("--format", "json", "normalize", eq, timeout=10)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["N"], len(doc["Q"]) - 1) == (12, 49140)
    prime = 2**31 - 1
    x = random.Random(26).randrange(2, prime)
    q_sq = _mod_eval(doc["Q"], x * x % prime, prime)
    rhs = _mod_eval(doc["Q"], x, prime) * _mod_eval(doc["P"], x, prime) * _mod_eval(doc["h"], x, prime)
    assert q_sq == rhs % prime


def test_cli_malformed_env_var_is_a_usage_error_only_where_used():
    g = series_json(prefix_oracle("stern", 64))
    proc = run_cli("becker-search", g, "--k", "2", MAHLERKIT_DEPTH_MAX="abc")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "--depth-max" in proc.stderr
    proc = run_cli("corpus", "list", MAHLERKIT_M_MAX="x")
    assert proc.returncode == 0, proc.stderr


def test_cli_json_outputs_reparse_and_are_deterministic():
    out1 = run_cli("--format", "json", "normalize", OPZ_EQ_JSON).stdout
    out2 = run_cli("--format", "json", "normalize", OPZ_EQ_JSON).stdout
    assert out1 == out2
    doc = json.loads(out1)
    jsonio.normalization_from_json(doc)  # re-parses under the schema
