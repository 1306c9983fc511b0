from pathlib import Path

import pytest

from helpers import agrees_with
from mahlerkit import jsonio
from mahlerkit.algebra import P_ONE, Poly
from mahlerkit.corpus import build_corpus, corpus_names, family_equation, induced_equation_k2, paradox_family
from mahlerkit.mahler import MahlerEquation, guess, pinned_relation_search, solve_series, verify
from mahlerkit.series import prefix_oracle

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "mahlerkit" / "data" / "corpus"


def P(*cs):
    return Poly(cs)


def test_paradox_family_k2_prefixes():
    fam = paradox_family(2, 8)
    assert fam.H.coefficient_list(0, 7) == [1, 0, -1, 1, -1, 0, 1]
    assert fam.F.coefficient_list(0, 8) == [1, 1, 0, -1, 1, -1, 0, 1]
    assert fam.F0.valuation == -1
    assert fam.H.coefficient(0) == 1


def test_paradox_family_general_k():
    for k in (2, 3, 4):
        fam = paradox_family(k, 30)
        assert fam.H.coefficient(0) == 1
        assert fam.F0.valuation == -1
        # H solves the two-term relation it was built from
        assert verify(family_equation(k), fam.H).ok


def test_paradox_two_constructions_agree():
    fam = paradox_family(2, 64)
    basis = solve_series(family_equation(2), 64)
    h = next(b for b in basis if b.valuation == 0)
    assert agrees_with(h, fam.H, 64)
    # and 1/z spans the rest of the solution space
    pole = next(b for b in basis if b.valuation == -1)
    assert pole.coefficient_list(-1, 64) == [1] + [0] * 64


def test_f_solves_induced_equation():
    fam = paradox_family(2, 64)
    assert verify(induced_equation_k2(), fam.F).ok


def test_independence_check():
    # F0(z) and F0(z^k) admit no two-term relation of degree <= 12
    for k in (2, 3):
        assert guess(paradox_family(k, 256).F0, k, 1, 12) is None


def test_independence_inversion_control():
    # the same probe on the binary-partition series must find the
    # two-term relation, confirming the probe has teeth
    u = prefix_oracle("binary_partitions", 256)
    found = guess(u, 2, 1, 12)
    assert found is not None and found.d == 1


def multiple_relation(f, r, k, depth_max, deg_max):
    """A leading-coefficient-1 relation for R(z) F(z) within the bounds, or
    None: a finite probe of a universal claim, explicitly heuristic."""
    return pinned_relation_search(f.mul_poly(r).truncate(f.order), k, depth_max, deg_max)


def test_no_becker_multiple_probe_defaults():
    f = paradox_family(2, 256).F
    for r in (P_ONE, P(1, 1), P(1, -1), P(1, 1, 1), P(1, 0, 1)):
        assert multiple_relation(f, r, 2, 3, 10) is None


def test_no_becker_probe_control_on_shifted_function():
    # F/z does admit a relation within the same bounds
    fam = paradox_family(2, 256)
    eq = pinned_relation_search(fam.F0, 2, 3, 10)
    assert eq == MahlerEquation(2, [P(1), P(-1), P(0, 0, 1, -1)])


def test_probe_rejects_zero_multiplier():
    with pytest.raises(ValueError):
        multiple_relation(paradox_family(2, 256).F, Poly(), 2, 3, 10)


def test_probe_accepts_z_multiple_multipliers():
    f = paradox_family(2, 256).F
    for r in (P(0, 1), P(0, 1, 1)):
        assert multiple_relation(f, r, 2, 2, 6) is None


def test_every_corpus_prefix_solves_its_equation():
    for item in build_corpus():
        assert verify(item.equation, item.prefix).ok


def test_corpus_expectations():
    items = {i.name: i for i in build_corpus()}
    assert items["thue_morse"].expected["closure_dim"] == 1
    assert items["stern"].expected["closure_dim"] == 2
    assert items["binary_partitions"].expected["regularity"] == "NOT_REGULAR"
    assert items["binary_partitions"].expected["closure_dim"] is None
    assert items["binary_partitions"].expected["M"] == 1
    assert items["one_plus_z"].expected["normalization"]["Q"] == P(1, -1)
    assert items["paradox_k2"].expected["normalization"]["gamma"] == 3
    assert items["paradox_k2"].expected["regularity"] == "REGULAR"


def test_golden_files_match_regeneration():
    # committed golden data must be byte-identical to a fresh regeneration
    # from the oracles; a mismatch fails the build
    items = {i.name: i for i in build_corpus()}
    assert sorted(items) == sorted(corpus_names())
    for name, item in items.items():
        path = DATA_DIR / ("%s.json" % name)
        regenerated = jsonio.dumps_canonical(jsonio.corpus_item_to_json(item))
        assert path.exists(), "missing golden file %s" % path
        assert path.read_text() == regenerated, "stale golden file %s" % path


def test_golden_files_parse_back():
    for name in corpus_names():
        doc = jsonio.loads_strict((DATA_DIR / ("%s.json" % name)).read_text())
        item = jsonio.corpus_item_from_json(doc)
        assert item.name == name
        assert verify(item.equation, item.prefix).ok
