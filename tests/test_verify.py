import itertools
import json
import math
import random

import pytest

from schubcalc import cli, crystals, faces, oracles, polytopes, verify
from schubcalc.cartan import (
    RootDatum,
    all_elements,
    length,
    longest_element,
    multiply,
    reduced_word,
    standard_word,
    word_to_element,
)

import reference_routes as ref


def test_theorem_suites_rank_two():
    for kind, family in (("theorem1", "A"), ("theorem1", "C"), ("theorem2", "A"), ("theorem3", "C")):
        report = verify.theorem_suite(kind, family, 2, 1)
        assert report["status"] == "pass"
        assert all(cell["status"] == "pass" for cell in report["cells"])


def test_duality_suite():
    report = verify.duality_suite("C", 2)
    assert report["status"] == "pass"
    assert len(report["cells"]) == 14
    for cell in report["cells"]:
        assert cell["status"] == "pass"
        assert cell["pairing"] in (0, 1)


@pytest.mark.parametrize(
    "family, cells, order", [("A", 106, 24), ("C", 296, 48)], ids=["A3", "C3"]
)
def test_duality_suite_rank_three(family, cells, order):
    report = verify.duality_suite(family, 3)
    assert report["status"] == "pass"
    assert len(report["cells"]) == cells
    # every cell is numbered and scored; each element pairs to 1 with its dual only
    assert all(c["status"] == "pass" and c["pairing"] in (0, 1) for c in report["cells"])
    assert sum(c["pairing"] for c in report["cells"]) == order


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("C", 2), ("C", 3)], ids=["A2", "A3", "C2", "C3"])
def test_duality_suite_matches_the_all_pairs_filter(family, rank):
    # each u meets the slice of length N - l(u): the cells of the all-pairs
    # filter, in its order
    reports = [verify.duality_suite(family, rank), ref.all_pairs_duality_report(family, rank)]
    for report in reports:
        del report["elapsed_seconds"]
    assert json.dumps(reports[0]) == json.dumps(reports[1])


def test_partial_duality_report_numbers_its_cells():
    report = verify.duality_suite("C", 2, budget=0.0)
    assert report["status"] == "partial"
    assert len(report["cells"]) == 1
    assert report["cells"][0]["pairing"] in (0, 1)


def test_partial_report_is_sorted(monkeypatch):
    # a clock that advances one second per reading: the 2.5 s budget runs
    # out after the third cell
    ticks = itertools.count()
    monkeypatch.setattr(verify.time, "perf_counter", lambda: next(ticks))
    report = verify.theorem_suite("theorem1", "A", 2, 1, budget=2.5)
    assert report["status"] == "partial"
    assert [c["w"] for c in report["cells"]] == [[], [1], [2]]


@pytest.mark.parametrize("off", [1, -1], ids=["high", "low"])
@pytest.mark.parametrize("kind, family", [("theorem1", "A"), ("theorem3", "C")])
def test_cell_flags_a_model_count_off_by_one(monkeypatch, kind, family, off):
    true = faces.model_face_union_count
    monkeypatch.setattr(faces, "model_face_union_count", lambda *args: true(*args) + off)
    cell = verify._theorem_cell((kind, family, 2, (1, 1), (1,)))
    assert cell["status"] == "violation"
    count = cell["n_lattice_points"]
    assert count > 0
    assert cell["mismatches"] == [
        {"kind": "model-face-union-count", "model": count + off, "string": count}
    ]


def test_verify_path_decodes_no_point(monkeypatch):
    # a union's size, h0_dimension and a passing theorem cell are bit counts
    # and mask comparisons over one table: they run with the decoder refusing
    def refuse(mask, points):
        raise RuntimeError("a point set was decoded")

    A3 = RootDatum("A", 3)
    lam, letters = (1, 0, 1), (1, 2, 3)
    w = word_to_element(A3, letters)
    schubert = ref.demazure_dimension(A3, w, lam)
    opposite = ref.demazure_dimension(A3, multiply(longest_element(A3), w), lam)
    monkeypatch.setattr(polytopes, "mask_points", refuse)
    dec = faces.opposite_demazure_faces(A3, w, lam)
    assert len(dec.union) == opposite
    assert faces.h0_dimension(A3, "opposite", w, lam) == opposite
    assert faces.h0_dimension(A3, "schubert", w, lam) == schubert
    for kind, count in (("theorem1", opposite), ("theorem2", schubert)):
        cell = verify._theorem_cell((kind, "A", 3, lam, letters))
        assert (cell["status"], cell["n_lattice_points"]) == ("pass", count)
    with pytest.raises(RuntimeError, match="decoded"):
        list(dec.union)


# each suite with one planted failure: the failing cells, and only they, are
# violations listing what failed, and so is the report


@pytest.fixture
def one_wrong_crystal_string(monkeypatch):
    """The opposite Demazure fold of s_1 at A2 (1, 1) with one string
    replaced by one outside B(lambda), a bit past the record's strings, as
    `faces` reads it; every other fold stays true."""
    A2 = RootDatum("A", 2)
    s1 = word_to_element(A2, (1,))
    true = crystals.fold
    target = crystals.record(A2, standard_word(A2), (1, 1))

    def planted(record, w, opposite):
        out = true(record, w, opposite)
        if record is target and (w, opposite) == (s1, True):
            out = out ^ 1 << out.bit_length() - 1 | 1 << len(record.strings)
        return out

    monkeypatch.setattr(faces.crystals, "fold", planted)
    return true(target, s1, True).bit_count()


def test_theorem1_suite_reports_a_crystal_side_with_one_wrong_string(one_wrong_crystal_string):
    report = verify.theorem_suite("theorem1", "A", 2, 1)
    assert report["status"] == "violation"
    bad = [c for c in report["cells"] if c["status"] != "pass"]
    assert [(c["lambda"], c["w"], c["status"]) for c in bad] == [([1, 1], [1], "violation")]
    n = one_wrong_crystal_string
    assert bad[0]["mismatches"] == [{
        "theorem": "opposite-demazure-faces", "type": "A", "rank": 2, "lambda": [1, 1],
        "w": [1], "face_union": n, "crystal": n,
    }]
    assert all(c["mismatches"] == [] for c in report["cells"] if c["status"] == "pass")


def test_verify_command_exits_one_and_prints_the_violation_report(one_wrong_crystal_string, capsys):
    code = cli.main(["verify", "theorem1", "--type", "A", "--rank", "2", "--lambda-max", "1"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_VIOLATION
    assert err == ""
    printed = json.loads(out)
    report = json.loads(json.dumps(verify.theorem_suite("theorem1", "A", 2, 1)))
    printed.pop("elapsed_seconds")
    report.pop("elapsed_seconds")
    assert printed == report
    assert printed["status"] == "violation"


def test_a_model_row_off_its_certificate_makes_every_theorem_cell_a_violation(plant_rows, capsys):
    # one GT/SGT row coefficient changed: the model side is no longer the
    # certified image of the string side, so no cell passes, every cell says
    # why, the suites run to the end, and the command exits 1
    plant_rows("_interlacing_specs", ref.one_coefficient_off)
    expected = {"kind": "model-map", "error": "the map onto the model rows has no solution"}
    for kind, family in (("theorem1", "A"), ("theorem2", "A"), ("theorem1", "C"), ("theorem3", "C")):
        report = verify.theorem_suite(kind, family, 2, 1)
        assert report["status"] == "violation"
        assert len(report["cells"]) == 4 * len(all_elements(RootDatum(family, 2)))
        for cell in report["cells"]:
            assert (cell["status"], cell["mismatches"]) == ("violation", [expected])
            assert cell["n_lattice_points"] > 0
    code = cli.main(["verify", "theorem1", "--type", "C", "--rank", "2", "--lambda-max", "1"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_VIOLATION
    assert err == ""
    assert json.loads(out)["status"] == "violation"


def test_duality_suite_reports_a_pairing_off_by_one(monkeypatch):
    true = faces.degree_pairing
    monkeypatch.setattr(faces, "degree_pairing", lambda *args: true(*args) + 1)
    report = verify.duality_suite("C", 2)
    assert report["status"] == "violation"
    assert len(report["cells"]) == 14
    for cell in report["cells"]:
        assert cell["status"] == "violation"
        assert cell["pairing"] in (1, 2)
        assert cell["mismatches"] == [{"expected": cell["pairing"] - 1, "got": cell["pairing"]}]


PRODUCT_CELL_KEYS = {"theorem", "type", "rank", "v", "w", "mismatches", "status"}


def test_products_suite_reports_an_oracle_coefficient_off_by_one(monkeypatch):
    # the oracle's first coefficient of s_1 * s_2 in C2 one too high
    C2 = RootDatum("C", 2)
    s1, s2 = word_to_element(C2, (1,)), word_to_element(C2, (2,))
    true = oracles.bgg_structure_constants
    good = true(C2, s1, s2)
    wrong = tuple((t, c + (k == 0)) for k, (t, c) in enumerate(good))
    monkeypatch.setattr(
        faces.oracles, "bgg_structure_constants",
        lambda datum, v, w: wrong if (v, w) == (s1, s2) else true(datum, v, w),
    )
    report = verify.products_suite("C", 2)
    assert report["status"] == "violation"
    bad = [c for c in report["cells"] if c["status"] != "pass"]
    assert [(c["v"], c["w"], c["status"]) for c in bad] == [([1], [2], "violation")]
    assert bad[0]["mismatches"] == [{
        "theorem": "product", "v": [1], "w": [2],
        "expansion": {str(t): c for t, c in good}, "oracle": {str(t): c for t, c in wrong},
    }]
    assert set(bad[0]) == PRODUCT_CELL_KEYS


def test_axioms_suite_reports_an_epsilon_off_by_one(monkeypatch):
    # phi = eps + <wt, h_i> fails at every letter of every sample; the
    # checks along f_i compare two shifted epsilons and still hold
    true = crystals.epsilon
    monkeypatch.setattr(crystals, "epsilon", lambda *args: true(*args) + 1)
    report = verify.axioms_suite("A", 2, 6, seed=7)
    assert report["status"] == "violation"
    assert len(report["cells"]) == 6
    for cell in report["cells"]:
        assert cell["status"] == "violation"
        assert [(m["axiom"], m["letter"]) for m in cell["mismatches"]] == [
            ("phi-eps-wt", 1), ("phi-eps-wt", 2)
        ]
        assert cell["mismatches"][0]["state"] == cell["mismatches"][1]["state"]


def test_products_suite_computes_each_unordered_pair_once(monkeypatch):
    # the oracle takes each pair in group-table order, so product_c(v, w) and
    # product_c(w, v) share one computation: one normalization check per
    # unordered pair of degree at most N, and one result for both orders
    datum = RootDatum("C", 2)
    oracles.bgg_structure_constants.cache_clear()
    calls = []
    true = oracles.check_normalization
    monkeypatch.setattr(oracles, "check_normalization", lambda d: calls.append(d) or true(d))
    assert verify.products_suite("C", 2)["status"] == "pass"
    elems = all_elements(datum)
    unordered = [
        (u, v) for k, u in enumerate(elems) for v in elems[k:] if length(u) + length(v) <= datum.num_positive_roots
    ]
    assert len(calls) == len(unordered) == 22
    for u, v in unordered:
        assert oracles.bgg_structure_constants(datum, u, v) is oracles.bgg_structure_constants(datum, v, u)


def test_products_suite():
    report = verify.products_suite("C", 2)
    assert report["status"] == "pass"
    assert len(report["cells"]) == 64
    # no identification method and no histogram of them: every product is
    # one degree in the deformed ring, or zero above the top degree N = 4
    assert set(report) == {"theorem", "type", "rank", "cells", "elapsed_seconds", "status"}
    for cell in report["cells"]:
        assert set(cell) == PRODUCT_CELL_KEYS
        assert cell["mismatches"] == [] and cell["status"] == "pass"


def test_axioms_suite_deterministic():
    a = verify.axioms_suite("A", 2, 40, seed=7)
    b = verify.axioms_suite("A", 2, 40, seed=7)
    assert a["cells"] == b["cells"]
    assert a["status"] == "pass"


def test_budget_produces_partial_report():
    report = verify.theorem_suite("theorem1", "A", 2, 2, budget=0.0)
    assert report["status"] == "partial"
    assert len(report["cells"]) < 54


def test_higher_rank_spot_checks():
    # fixed-seed randomized invariants beyond the exhaustive desk range
    for family, rank in (("A", 4), ("C", 3)):
        report = verify.axioms_suite(family, rank, 30, seed=11)
        assert report["status"] == "pass"


# a suite over no cells reports "pass" having checked nothing, and a NaN
# budget never runs out: each suite refuses these before any cell runs or any
# context is built
REFUSED_SUITES = {
    "theorem1": lambda budget: verify.theorem_suite("theorem1", "A", 2, 1, budget=budget),
    "duality": lambda budget: verify.duality_suite("C", 2, budget=budget),
    "products": lambda budget: verify.products_suite("C", 2, budget=budget),
    "axioms": lambda budget: verify.axioms_suite("A", 2, 5, budget=budget),
}


@pytest.fixture
def no_work(monkeypatch):
    """Make building a context or running a theorem cell fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran work before refusing its arguments")

    monkeypatch.setattr(faces, "default_context", refuse)
    monkeypatch.setattr(verify, "_theorem_cell", refuse)
    monkeypatch.setattr(verify.crystals, "f_op", refuse)


@pytest.mark.parametrize("kind, family", [("theorem4", "A"), ("duality", "C")])
def test_theorem_suite_refuses_a_statement_outside_theorems(no_work, kind, family):
    # any kind but "theorem1" would run the Demazure side under its own label
    message = "%r is not one of the statements theorem1, theorem2, theorem3$" % kind
    with pytest.raises(ValueError, match=message):
        verify.theorem_suite(kind, family, 2, 0)


# (suite, statement, family, the families the statement is stated for); the
# families are a tuple, so "" and "AC" match none of them
WRONG_FAMILIES = {
    "products-A": (lambda: verify.products_suite("A", 2), "products", "A", "C"),
    "theorem2-C": (lambda: verify.theorem_suite("theorem2", "C", 2, 1), "theorem2", "C", "A"),
    "theorem3-A": (lambda: verify.theorem_suite("theorem3", "A", 2, 1), "theorem3", "A", "C"),
    "theorem1-AC": (lambda: verify.theorem_suite("theorem1", "AC", 2, 1), "theorem1", "AC", "A or C"),
    "duality-empty": (lambda: verify.duality_suite("", 2), "duality", "", "A or C"),
    "axioms-B": (lambda: verify.axioms_suite("B", 2, 5), "axioms", "B", "A or C"),
}


@pytest.mark.parametrize("case", sorted(WRONG_FAMILIES))
def test_suites_refuse_a_family_the_statement_is_not_stated_for(no_work, case):
    suite, kind, family, families = WRONG_FAMILIES[case]
    message = "^%s is stated for type %s, not %r$" % (kind, families, family)
    with pytest.raises(ValueError, match=message):
        suite()


def test_theorem_suite_refuses_a_negative_lambda_max(no_work):
    with pytest.raises(ValueError, match="lambda_max must be at least 0, got -1"):
        verify.theorem_suite("theorem1", "A", 2, -1)


def test_theorem_suite_refuses_a_lambda_max_that_is_not_an_int(no_work):
    # 1.5 once passed the request check and failed in `range`
    with pytest.raises(ValueError, match=r"^lambda_max must be an integer, got 1\.5$"):
        verify.theorem_suite("theorem1", "A", 2, 1.5)


def test_axioms_suite_refuses_samples_that_are_not_an_int(no_work):
    with pytest.raises(ValueError, match=r"^samples must be an integer, got 2\.5$"):
        verify.axioms_suite("A", 2, 2.5)


def test_suites_refuse_bool_counts(no_work):
    # theorem_suite("theorem1", "A", 2, True) once ran as lambda_max 1 and
    # reported "lambda_max": true
    with pytest.raises(ValueError, match=r"^lambda_max must be an integer, got True$"):
        verify.theorem_suite("theorem1", "A", 2, True)
    with pytest.raises(ValueError, match=r"^samples must be an integer, got True$"):
        verify.axioms_suite("A", 2, True)


@pytest.mark.parametrize("samples", [0, -3])
def test_axioms_suite_refuses_fewer_than_one_sample(no_work, samples):
    with pytest.raises(ValueError, match="samples must be at least 1, got %d" % samples):
        verify.axioms_suite("A", 2, samples)


@pytest.mark.parametrize("suite", sorted(REFUSED_SUITES))
def test_suites_refuse_a_nan_budget(no_work, suite):
    with pytest.raises(ValueError, match="budget must be a nonnegative number of seconds, got nan"):
        REFUSED_SUITES[suite](math.nan)


@pytest.mark.parametrize("suite", sorted(REFUSED_SUITES))
def test_suites_refuse_a_negative_budget(no_work, suite):
    with pytest.raises(ValueError, match="budget must be a nonnegative number of seconds, got -1"):
        REFUSED_SUITES[suite](-1)


def _rank_four_cells(seed):
    """A seeded sample of rank-4 theorem cells, stratified by the length of
    w: per family one nonzero weight drawn from {0,1}^4, and C4 (1,1,1,1); per
    weight and statement, one w of each length."""
    rng = random.Random(seed)
    weights = [lam for lam in itertools.product((0, 1), repeat=4) if any(lam)]
    cells = []
    for family, kinds in (("A", ("theorem1", "theorem2")), ("C", ("theorem1", "theorem3"))):
        datum = RootDatum(family, 4)
        by_length = {}
        for w in all_elements(datum):
            by_length.setdefault(length(w), []).append(w)
        lams = [rng.choice(weights)] + ([(1, 1, 1, 1)] if family == "C" else [])
        for lam, kind in itertools.product(lams, kinds):
            cells.extend((kind, datum, lam, rng.choice(by_length[ell])) for ell in sorted(by_length))
    return cells


def test_rank_four_cell_counts_are_demazure_dimensions():
    # the opposite side B^w(lam) has dim V_{w0 w}(lam) elements, the
    # Demazure side B_w(lam) dim V_w(lam)
    cells = _rank_four_cells(seed=0)
    assert len(cells) == 2 * 11 + 4 * 17
    for kind, datum, lam, w in cells:
        cell = verify._theorem_cell((kind, datum.family, 4, lam, tuple(reduced_word(w))))
        assert cell["status"] == "pass", cell
        u = multiply(longest_element(datum), w) if kind == "theorem1" else w
        assert cell["n_lattice_points"] == ref.demazure_dimension(datum, u, lam), cell
