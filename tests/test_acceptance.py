"""Acceptance suite: every criterion is checked exactly (no numeric
tolerances) and timed against its stated budget; one pass line is printed per
criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the timing lines.
"""

import time
from fractions import Fraction
from operator import mul

from schubcalc import crystals as cr
from schubcalc import faces as fc
from schubcalc import pipedreams as pd
from schubcalc import polytopes as pt
from schubcalc import verify
from schubcalc.cartan import (
    RootDatum,
    all_elements,
    compatible_subsets,
    identity_element,
    length,
    longest_element,
    multiply,
    positive_coroots,
    reduced_word,
    standard_word,
    word_to_element,
)
from schubcalc.oracles import bgg_structure_constants, weyl_dimension

import reference_routes as ref
from reference_routes import all_reduced_words, demazure_dimension

A2 = RootDatum("A", 2)
A3 = RootDatum("A", 3)
A4 = RootDatum("A", 4)
C2 = RootDatum("C", 2)
C3 = RootDatum("C", 3)


def _timed(name, budget_seconds, fn):
    start = time.time()
    fn()
    elapsed = time.time() - start
    print("ACCEPTANCE %-38s PASS  (%.2fs, budget %gs)" % (name, elapsed, budget_seconds))
    assert elapsed < budget_seconds, "%s exceeded budget: %.2fs" % (name, elapsed)


def test_01_compatible_subsets_example():
    def body():
        w = word_to_element(A3, (1, 2, 1))
        got = compatible_subsets(A3, (2, 1, 2, 3, 2, 1), w)
        assert set(got) == {(1, 2, 3), (1, 2, 5), (2, 3, 6), (2, 5, 6)}

    _timed("1 extraction-set example", 1.0, body)


def test_02_face_equation_example():
    def body():
        word = (1, 2, 3, 2, 1, 2)
        # displayed equations: a_3 = <lam,h_3> + a_4 + a_6 and
        # a_4 = <lam,h_2> + a_5 - 2 a_6; second face swaps in a_6 = <lam,h_2>
        w = word_to_element(A3, (3, 2))
        assert compatible_subsets(A3, word, w) == ((3, 4), (3, 6))
        eq3 = pt.string_lambda_facet(A3, word, 3)
        eq4 = pt.string_lambda_facet(A3, word, 4)
        eq6 = pt.string_lambda_facet(A3, word, 6)
        assert eq3 == ((0, 0, 1, -1, 0, -1), (0, 0, 1))
        assert eq4 == ((0, 0, 0, 1, -1, 2), (0, 1, 0))
        assert eq6 == ((0, 0, 0, 0, 0, 1), (0, 1, 0))

    _timed("2 face equations example", 1.0, body)


def test_03_theorem1_matrix():
    def body():
        for family, rank in (("A", 2), ("A", 3), ("C", 2)):
            report = verify.theorem_suite("theorem1", family, rank, 2)
            assert report["status"] == "pass", report

    _timed("3 opposite-side face matrix", 600.0, body)


def test_04_theorem23_matrix():
    def body():
        for kind, family, rank in (("theorem2", "A", 2), ("theorem2", "A", 3), ("theorem3", "C", 2)):
            report = verify.theorem_suite(kind, family, rank, 2)
            assert report["status"] == "pass", report

    _timed("4 Demazure-side face matrix", 600.0, body)


def test_05_pipe_dream_tables():
    def body():
        a_tables = {
            (1,): [[(1, 1), (1, 2)]],
            (2,): [[(1, 1), (2, 1)]],
            (1, 2): [[(1, 1)]],
            (2, 1): [[(1, 2)], [(2, 1)]],
        }
        for letters, expected in a_tables.items():
            w = word_to_element(A2, letters)
            assert sorted(sorted(d.boxes) for d in pd.ladder_set(A2, w)) == sorted(expected)
        c_tables = {
            (1,): [[(1, 1), (1, 2), (1, 3)]],
            (2,): [[(1, 1), (1, 2), (2, 2)]],
            (1, 2): [[(1, 1), (1, 2)]],
            (2, 1): [[(1, 1), (1, 3)], [(1, 1), (2, 2)]],
            (1, 2, 1): [[(1, 1)]],
            (2, 1, 2): [[(1, 2)], [(1, 3)], [(2, 2)]],
        }
        for letters, expected in c_tables.items():
            w = word_to_element(C2, letters)
            assert sorted(sorted(d.boxes) for d in pd.mset(C2, w)) == sorted(expected)
        w = word_to_element(A4, (2, 3, 4, 3, 2, 1))
        assert len(pd.ladder_set(A4, w)) == 7
        wc = word_to_element(C3, (2, 1, 3, 2))
        assert {tuple(sorted(d.boxes)) for d in pd.mset(C3, wc)} == {
            ((1, 1), (1, 2), (1, 3), (2, 2), (3, 3)),
            ((1, 1), (1, 2), (1, 3), (1, 5), (3, 3)),
            ((1, 1), (1, 2), (1, 3), (2, 2), (2, 4)),
            ((1, 1), (1, 2), (1, 3), (1, 5), (2, 4)),
            ((1, 1), (1, 2), (1, 3), (1, 5), (2, 3)),
        }

    _timed("5 pipe-dream tables", 5.0, body)


def test_06_mitosis_equivalence_s4():
    def body():
        for w in all_elements(A3):
            expected = pd.ladder_set(A3, w)
            assert pd.mset(A3, w) == expected
            for word in all_reduced_words(w):
                assert pd.mitosis_chain(A3, word) == expected

    _timed("6 mitosis equivalence on S4", 60.0, body)


def _volume_formula(datum, lam):
    """prod over the positive coroots beta^vee of <lam, beta^vee> / <rho, beta^vee>."""
    num = den = 1
    for k in positive_coroots(datum):
        num *= sum(map(mul, k, lam))
        den *= sum(k)
    return Fraction(num, den)


def test_07_dimension_and_volume():
    def body():
        for datum in (A2, C2):
            word = standard_word(datum)
            for a in range(4):
                for b in range(4):
                    lam = (a, b)
                    poly = pt.string_polytope(datum, lam)
                    pts = pt.lattice_points(poly)
                    assert len(pts) == weyl_dimension(datum, lam)
                    assert frozenset(pts) == cr.generate_b_lambda(datum, word, lam)
                    big_n = datum.num_positive_roots
                    assert ref.volume_at_dim(poly, big_n) == _volume_formula(datum, lam)
                    e = identity_element(datum)
                    assert fc.side_volume(datum, "opposite", e, lam) == _volume_formula(datum, lam)

    _timed("7 dimension and volume formulas", 120.0, body)


def test_08_product_example():
    def body():
        s1 = word_to_element(C2, (1,))
        s2 = word_to_element(C2, (2,))
        res = fc.product_c(C2, s1, s2)
        assert sorted(res.faces) == [(1, 2), (1, 4), (2, 3), (3, 4)]
        assert {tuple(reduced_word(u)): c for u, c in res.expansion.items()} == {
            (1, 2): 1,
            (2, 1): 1,
        }
        assert res.method == "degree-pairing"

    _timed("8 rank-two product example", 5.0, body)


def test_09_oracle_concordance():
    def body():
        ctx = fc.default_context(C2)
        for v in all_elements(C2):
            for w in all_elements(C2):
                res = fc.product_c(C2, v, w, ctx)
                assert res.expansion == dict(bgg_structure_constants(C2, v, w))
        for family, rank in (("A", 2), ("A", 3), ("C", 2)):
            datum = RootDatum(family, rank)
            word = standard_word(datum)
            for lam_tuple in verify.dominant_weights(rank, 2):
                for w in all_elements(datum):
                    assert len(
                        cr.demazure_crystal(datum, word, w, lam_tuple)
                    ) == demazure_dimension(datum, w, lam_tuple)

    _timed("9 oracle concordance", 300.0, body)


def test_10_poincare_duality():
    def body():
        w0 = longest_element(C2)
        cells = 0
        for u in all_elements(C2):
            for v in all_elements(C2):
                if length(u) + length(v) != 4:
                    continue
                # every pair gets a number
                got = fc.degree_pairing(C2, u, v)
                assert got == (1 if v == multiply(w0, u) else 0), (u, v, got)
                cells += 1
        assert cells == 14
        for u in all_elements(C2):
            assert fc.degree_pairing(C2, u, multiply(w0, u)) == 1

    _timed("10 Poincare duality pairings", 120.0, body)


def test_11_simplicity():
    # vertices, dimension and facet-defining inequalities: an N-cube
    counts = {A2: (8, 3, 6), A3: (64, 6, 12), C2: (16, 4, 8), C3: (512, 9, 18)}

    def body():
        for datum in (A2, A3, C2, C3):
            deformed = pt.deformed_polytope(datum, pt.default_regular_lambda(datum))
            assert pt.is_simple(deformed), datum
            verts = pt.vertices(deformed)
            got = (len(verts), pt.affine_rank(verts), len(pt.facet_defining(deformed)))
            assert got == counts[datum], datum
            # the tower walk gives the same vertices as the elimination DFS
            assert pt.interval_tower(deformed)[1] == verts, datum

    _timed("11 deformed polytopes simple", 120.0, body)
