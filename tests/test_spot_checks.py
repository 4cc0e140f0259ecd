"""Fixed-seed spot checks beyond the exhaustive desk range: the general-rank
statements are exercised on sampled cells at ranks where full matrices would
not fit the budget."""

import random

from schubcalc import crystals as cr
from schubcalc import faces as fc
from schubcalc import pipedreams as pd
from schubcalc import polytopes as pt
from schubcalc.cartan import (
    RootDatum,
    all_elements,
    left_descents,
    left_mul,
    length,
    longest_element,
    reduced_word,
    standard_word,
    word_to_element,
)
from schubcalc.oracles import weyl_dimension

import reference_routes as ref
from reference_routes import demazure_dimension

A4 = RootDatum("A", 4)
C3 = RootDatum("C", 3)


def _random_longest_word(datum, rng):
    word = []
    w = longest_element(datum)
    while length(w) > 0:
        i = rng.choice(left_descents(w))
        word.append(i)
        w = left_mul(i, w)
    return tuple(word)


def test_word_independence_spot():
    rng = random.Random(424242)
    for datum, lam in ((A4, (1, 0, 0, 0)), (C3, (0, 0, 1))):
        expect = weyl_dimension(datum, lam)
        for _ in range(3):
            word = _random_longest_word(datum, rng)
            pts = cr.generate_b_lambda(datum, word, lam)
            assert len(pts) == expect


def test_counts_match_patterns_rank_three_symplectic():
    for lam in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)]:
        crystal = cr.generate_b_lambda(C3, standard_word(C3), lam)
        assert len(crystal) == weyl_dimension(C3, lam)
        assert len(pt.lattice_points(pt.model_polytope(C3, lam))) == weyl_dimension(C3, lam)


def test_theorem_cells_rank_three_symplectic():
    rng = random.Random(7)
    lam = (1, 1, 1)
    elems = list(all_elements(C3))
    sample = [elems[0], longest_element(C3)] + rng.sample(elems, 6)
    for w in sample:
        dec = fc.opposite_demazure_faces(C3, w, lam)  # raises on mismatch
        dec2 = fc.demazure_faces(C3, w, lam)
        assert len(dec2.union) == demazure_dimension(C3, w, lam)
        assert fc.model_face_union_count(C3, lam, dec.tights + dec.empty, "F") == len(dec.union)


def test_theorem_cells_rank_four():
    rng = random.Random(11)
    lam = (1, 0, 0, 1)
    elems = list(all_elements(A4))
    sample = [elems[0], longest_element(A4)] + rng.sample(elems, 5)
    for w in sample:
        fc.opposite_demazure_faces(A4, w, lam)
        dec = fc.demazure_faces(A4, w, lam)
        assert len(dec.union) == demazure_dimension(A4, w, lam)


def test_string_property_spot_rank_three():
    lam = (1, 0, 1)
    word = standard_word(C3)
    rng = random.Random(13)
    ws = rng.sample(list(all_elements(C3)), 4)
    for w in ws:
        states = ref.table_states(C3, word, lam)
        opp = set(pt.mask_points(cr.fold(cr._crystal(C3, word, lam), w, True), states))
        for i in (1, 2, 3):
            for chain in ref.i_strings(C3, word, lam, i):
                inter = [s for s in chain if s in opp]
                assert inter in ([], list(chain), [chain[-1]])


def test_mset_containment_spot_rank_three():
    rng = random.Random(17)
    for w in rng.sample(list(all_elements(C3)), 8):
        assert pd.mset(C3, w) <= pd.ladder_set(C3, w)
        for d in pd.mset(C3, w):
            assert len(d.boxes) == C3.num_positive_roots - length(w)
