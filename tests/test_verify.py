import itertools

import pytest

from schubcalc import faces, verify


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


def test_products_suite():
    report = verify.products_suite("C", 2)
    assert report["status"] == "pass"
    assert len(report["cells"]) == 64
    # every product of degree <= N = 4 is read off the degree pairing
    assert report["methods"] == {"degree-pairing": 39, "zero": 25}
    for cell in report["cells"]:
        degree = len(cell["v"]) + len(cell["w"])
        assert cell["method"] == ("zero" if degree > 4 else "degree-pairing")


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
