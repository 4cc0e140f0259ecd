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
    resolved = [c for c in report["cells"] if c["status"] == "pass"]
    assert resolved, "nothing resolved"
    for cell in resolved:
        assert cell["pairing"] in (0, 1)


@pytest.mark.parametrize("family, cells", [("A", 106), ("C", 296)], ids=["A3", "C3"])
def test_duality_suite_rank_three(family, cells):
    report = verify.duality_suite(family, 3)
    assert report["status"] == "pass"
    assert report["unresolved"] == 0
    assert len(report["cells"]) == cells


def test_partial_duality_report_counts_unresolved():
    report = verify.duality_suite("C", 2, budget=0.0)
    assert report["status"] == "partial"
    assert report["unresolved"] == 0
    assert len(report["cells"]) == 1


def test_unresolved_pairings_are_counted_not_scored(monkeypatch):
    def unresolved(datum, u, v, ctx):
        raise faces.PairingUnresolvedError("planted")

    monkeypatch.setattr(faces, "degree_pairing", unresolved)
    report = verify.duality_suite("C", 2)
    assert report["status"] == "pass"
    assert report["cells"]
    assert all(c["status"] == "unresolved" for c in report["cells"])
    assert report["unresolved"] == len(report["cells"])


def test_partial_report_is_sorted(monkeypatch):
    # a clock that advances one second per reading: the 2.5 s budget runs
    # out after the third cell
    ticks = itertools.count()
    monkeypatch.setattr(verify.time, "perf_counter", lambda: next(ticks))
    report = verify.theorem_suite("theorem1", "A", 2, 1, budget=2.5)
    assert report["status"] == "partial"
    assert [c["w"] for c in report["cells"]] == [[], [1], [2]]


def test_products_suite():
    report = verify.products_suite("C", 2)
    assert report["status"] == "pass"
    assert len(report["cells"]) == 64
    # 10 expansions are copied from the oracle
    assert report["certified"] == 54
    assert report["oracle_assisted"] == 10
    for cell in report["cells"]:
        assert cell["certified"] == (cell["method"] != "oracle-assisted")


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
