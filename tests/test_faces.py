import hashlib
import itertools
import operator
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schubcalc import crystals as cr
from schubcalc import faces as fc
from schubcalc import pipedreams as pd
from schubcalc import polytopes as pt
from schubcalc import verify
from schubcalc.cartan import (
    InvariantError,
    RootDatum,
    all_elements,
    bruhat_leq,
    compatible_subsets,
    identity_element,
    length,
    longest_element,
    multiply,
    reduced_word,
    standard_word,
    word_to_element,
)
from schubcalc.oracles import bgg_structure_constants, weyl_dimension

import reference_routes as routes
from reference_routes import all_reduced_words, demazure_dimension

A2 = RootDatum("A", 2)
A3 = RootDatum("A", 3)
C2 = RootDatum("C", 2)
C3 = RootDatum("C", 3)


def test_opposite_faces_whole_polytope_at_identity():
    dec = fc.opposite_demazure_faces(A2, identity_element(A2), (1, 1))
    assert dec.tights == ((),)
    assert len(dec.union) == 8


def test_opposite_faces_example_counts():
    s1 = word_to_element(A2, (1,))
    dec = fc.opposite_demazure_faces(A2, s1, (1, 1))
    assert len(dec.union) == 5
    assert dec.union == cr.opposite_demazure_crystal(A2, standard_word(A2), s1, (1, 1))


def test_demazure_faces_at_longest_is_whole_crystal():
    w0 = longest_element(A2)
    dec = fc.demazure_faces(A2, w0, (1, 1))
    assert len(dec.union) == 8


def test_demazure_faces_type_c_table_counts():
    sizes = {}
    for letters in [(1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2)]:
        w = word_to_element(C2, letters)
        dec = fc.demazure_faces(C2, w, (1, 1))
        sizes[letters] = len(dec.tights) + len(dec.empty)
        assert dec.union == cr.demazure_crystal(C2, standard_word(C2), w, (1, 1))
    assert [sizes[k] for k in [(1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2)]] == [
        1,
        1,
        1,
        2,
        1,
        3,
    ]


def test_face_union_consistency_with_model_side():
    for datum, lam in ((A2, (2, 1)), (C2, (1, 1))):
        for w in all_elements(datum):
            dec = fc.opposite_demazure_faces(datum, w, lam)
            assert fc.model_face_union_count(datum, lam, dec.tights + dec.empty, "F") == len(
                dec.union
            )
            dec2 = fc.demazure_faces(datum, w, lam)
            assert fc.model_face_union_count(datum, lam, dec2.tights + dec2.empty, "Fv") == len(
                dec2.union
            )


def test_richardson_consistency():
    lam = (1, 1)
    word = standard_word(A2)
    for v in all_elements(A2):
        for w in all_elements(A2):
            if not bruhat_leq(v, w):
                continue
            dec_low = fc.demazure_faces(A2, w, lam)
            dec_up = fc.opposite_demazure_faces(A2, v, lam)
            expected = cr.richardson_lattice_points(A2, word, v, w, lam)
            assert dec_low.union & dec_up.union == expected


def test_h0_dimension_and_volume():
    e = identity_element(A2)
    w0 = longest_element(A2)
    rho = (1, 1)
    assert fc.h0_dimension(A2, "opposite", e, rho) == weyl_dimension(A2, rho)
    assert fc.h0_dimension(A2, "schubert", w0, rho) == 8
    assert fc.side_volume(A2, "opposite", e, rho) == 1
    assert fc.side_volume(A2, "schubert", w0, rho) == 1
    # dimension concordance with the character oracle across a small matrix
    for datum in (A2, C2):
        for lam in [(1, 1), (2, 0)]:
            for w in all_elements(datum):
                assert fc.h0_dimension(datum, "schubert", w, lam) == demazure_dimension(
                    datum, w, lam
                )


def test_volume_invariance_under_model_change():
    # face volumes agree between the string polytope and the pattern polytope
    lam = (2, 2)
    w = word_to_element(A2, (2, 1))
    tights = [pd.arrangement_kd(d) for d in pd.mset(A2, w)]
    string_poly = pt.string_polytope(A2, lam)
    model_poly = pt.model_polytope(A2, lam)
    big_n = 3
    for tight in tights:
        f1 = routes.face_polytope(string_poly, tuple(big_n + k - 1 for k in tight))
        f2 = routes.face_polytope(model_poly, tuple(big_n + k - 1 for k in tight))
        assert routes.volume_at_dim(f1, length(w)) == routes.volume_at_dim(f2, length(w))


def test_schubert_class_representatives():
    s1 = word_to_element(C2, (1,))
    s2 = word_to_element(C2, (2,))
    assert fc.schubert_class(C2, s1, "dual-kogan") == ((1,), (3,))
    assert fc.schubert_class(C2, s2, "dual-kogan") == ((2,), (4,))
    e = identity_element(C2)
    assert fc.schubert_class(C2, e, "dual-kogan") == ((),)
    w0 = longest_element(C2)
    three = multiply(w0, s2)  # length three
    assert len(fc.schubert_class(C2, three, "kogan")) == 1
    assert len(fc.schubert_class(C2, word_to_element(C2, (2, 1, 2)), "kogan")) == 3
    # type A parity: same interface
    assert len(fc.schubert_class(A2, word_to_element(A2, (2, 1)), "kogan")) == 2


@pytest.mark.parametrize("datum, nonempty", [(C2, 23), (A3, 82), (C3, 355)], ids=["C2", "A3", "C3"])
def test_class_codims_in_deformed_polytope(datum, nonempty):
    # dual Kogan faces of w have codim l(w) and Kogan faces N - l(w), the
    # sizes of their tight sets: so a pairing may count codimensions either way
    ctx = fc.default_context(datum)
    seen = 0
    for w in all_elements(datum):
        for tight in fc.schubert_class(datum, w, "dual-kogan"):
            assert ctx.f_mask(tight).bit_count() == length(w) == len(tight)
            seen += 1
        for tight in fc.schubert_class(datum, w, "kogan"):
            assert ctx.g_mask(tight).bit_count() == datum.num_positive_roots - length(w) == len(tight)
            seen += 1
    assert seen == nonempty


def _masks(ctx, rows):
    """The (F-step, Fv-step) masks of the face on 0-based rows: the first
    family, then the second."""
    big_n = ctx.big_n
    return (
        ctx.f_mask([k + 1 for k in rows if k < big_n]),
        ctx.g_mask([k - big_n + 1 for k in rows if k >= big_n]),
    )


@pytest.mark.parametrize("datum", [A2, C2, A3], ids=["A2", "C2", "A3"])
def test_tight_set_rule_matches_vertex_oracle(datum):
    # the step-mask rule against exact elimination over the DFS vertices, on
    # the face cut out by every subset of the 2N rows: nonempty exactly when
    # its two masks are disjoint, of codimension their total bit count
    ctx = fc.default_context(datum)
    big_n = datum.num_positive_roots
    verts = pt.vertices(ctx.polytope)
    masks = pt.incidence(ctx.polytope)
    assert len(masks) == 2 * big_n
    for bits in range(1 << 2 * big_n):
        rows = [k for k in range(2 * big_n) if bits >> k & 1]
        tight = [v for i, v in enumerate(verts) if all(masks[k] >> i & 1 for k in rows)]
        f, g = _masks(ctx, rows)
        assert (not f & g) == bool(tight), bits
        if tight:
            assert (f | g).bit_count() == len(rows) == big_n - pt.affine_rank(tight), bits


@pytest.mark.parametrize("datum", [A2, C2, A3], ids=["A2", "C2", "A3"])
def test_square_free_degree_matches_vertex_count(datum):
    # every N-subset of the 2N rows meets in one DFS vertex exactly when its
    # F-step and Fv-step masks are complementary, and in none otherwise
    ctx = fc.default_context(datum)
    big_n = datum.num_positive_roots
    full = (1 << big_n) - 1
    masks = pt.incidence(ctx.polytope)
    n_verts = len(pt.vertices(ctx.polytope))
    for rows in itertools.combinations(range(2 * big_n), big_n):
        tight = sum(1 for i in range(n_verts) if all(masks[k] >> i & 1 for k in rows))
        f, g = _masks(ctx, rows)
        assert tight == (g == full ^ f), rows


def _c2_product_table(ctx):
    for v in all_elements(C2):
        for w in all_elements(C2):
            fc.product_c(C2, v, w, ctx)


# Every entry of the squares of the default C2 context, as (step, position):
# f_0^2 = -f_0 f_2, f_1^2 = f_1 (f_2 - f_3), f_2^2 = f_2 f_3, and f_3^2 = 0.
C2_SQUARE_ENTRIES = [(0, 0), (1, 0), (1, 1), (2, 0)]


def test_c2_square_entries():
    ctx = fc.default_context(C2)
    assert [(t, i) for t, sq in enumerate(ctx.square) for i in range(len(sq))] == C2_SQUARE_ENTRIES


@pytest.mark.parametrize("step, at", C2_SQUARE_ENTRIES, ids=["%d-%d" % e for e in C2_SQUARE_ENTRIES])
def test_square_sign_flip_is_caught(step, at):
    ctx = fc.DeformedContext(C2)
    square = list(ctx.square[step])
    s, c = square[at]
    square[at] = (s, -c)
    ctx.square = ctx.square[:step] + (tuple(square),) + ctx.square[step + 1 :]
    with pytest.raises(fc.TheoremViolationError):
        _c2_product_table(ctx)


def test_dropping_the_empty_step_rule_is_caught(monkeypatch):
    # one step per row: no F-step mask is the complement of an Fv-step mask.
    # A context holds the classes it has read, so the fault is planted on a
    # fresh context before its first read, the sanity table run on another;
    # the pairings read it as the default context
    _c2_product_table(fc.DeformedContext(C2))
    ctx = fc.DeformedContext(C2)
    ctx.step = tuple(range(2 * C2.num_positive_roots))
    with pytest.raises(fc.TheoremViolationError):
        _c2_product_table(ctx)
    monkeypatch.setattr(fc, "default_context", lambda datum: ctx)
    w0 = longest_element(C2)
    assert any(
        fc.degree_pairing(C2, u, v) != (v == multiply(w0, u))
        for u in all_elements(C2)
        for v in all_elements(C2)
        if length(u) + length(v) == C2.num_positive_roots
    )


@pytest.mark.parametrize(
    "lam, deformed",
    [
        ((1, 1), False),
        ((2, 1), False),
        ((2, 2), False),
        # lower-dimensional polytopes under the deformation
        ((0, 1), True),
        ((0, 0), True),
    ],
    ids=["lam0", "lam1", "lam2", "lam3", "lam4"],
)
def test_context_refuses_non_simple_polytope(lam, deformed):
    # the tower certificate the context requires fails on the undeformed
    # symplectic polytope and on lower-dimensional deformed ones
    build = pt.deformed_polytope if deformed else pt.model_polytope
    assert pt.interval_tower(build(C2, lam)) is None


def test_context_refuses_a_polytope_that_is_not_a_tower(monkeypatch):
    monkeypatch.setattr(pt, "interval_tower", lambda p: None)
    with pytest.raises(InvariantError, match="not a tower of intervals"):
        fc.DeformedContext(C2)


# sha256 of repr() of the deformed rows at the default weight and of the
# context's squares, per datum
DEFORMATION_PINS = {
    "A2": ((3, 3), "a7c534793a5aa05a21c498ccd3520009414d9d91cf68a3d5420a591339401c49",
           "e75a0fbe315a8d90d9bb43cf6fbe365b6ed73ce891abeb6caedef2a131c2f3cf"),
    "A3": ((12, 12, 12), "945cae08de3e7af17610d81f3da452492fb58c01fc67c03ac8e670fc53cd8ea3",
           "faff1d9b7407af676fbfe4fed2a933a5b0e989640ef4693cbca4442cb04b4776"),
    "A4": ((30, 30, 30, 30), "48c43f3b5dbab60273f6df8fef192e47d5ea12c24676e1272285df1592ecab99",
           "b570f1eb9fda77941a033cfad43f15f589a820be25975ab0fc276e1988703caf"),
    "C2": ((8, 8), "9feefd46c8553245f1f5e320ffc555c5013cb2a0d7ee46764ea6471dbab8b226",
           "bbc9c227f5dd3e33971b2c192b46032dcbe1dee089744e6053e205bcfb73ef62"),
    "C3": ((36, 36, 36), "a6fac9e9ccf864c93e569bf514c5758902549dd9032214ce2d77ceff84f3186b",
           "486d4e46f0746299afa9f1124c9a97d1fd6ecead0006e11f8b0ede869a3e176c"),
    "C4": ((96, 96, 96, 96), "74d4ea41ecdc7523871a4a809f06f09f1d1beaa699f15d19eda145a1c6e3a3a8",
           "19e26f93c33e7e184f284acde6551650bdd3ce0d5702217e8e3c10be8ab76501"),
}


@pytest.mark.parametrize("name", sorted(DEFORMATION_PINS))
def test_deformation_pinned(name):
    lam, rows, square = DEFORMATION_PINS[name]
    datum = RootDatum(name[0], int(name[1:]))
    assert pt.default_regular_lambda(datum) == lam
    poly = pt.deformed_polytope(datum, lam)
    assert hashlib.sha256(repr(poly.ineqs).encode()).hexdigest() == rows
    ctx = fc.DeformedContext(datum)
    assert ctx.polytope == poly
    assert hashlib.sha256(repr(ctx.square).encode()).hexdigest() == square


def test_transversality_ops():
    ctx = fc.default_context(C2)
    big_n = C2.num_positive_roots
    # every step holds one row of each facet family
    assert sorted(ctx.step[:big_n]) == sorted(ctx.step[big_n:]) == list(range(big_n))
    # a facet met with itself shares its row: s1 * s1 reports the pairs of
    # equal facets as non-transversal and the others as their meets
    s1 = word_to_element(C2, (1,))
    res = fc.product_c(C2, s1, s1, ctx)
    f1, f3 = (1,), (3,)
    assert res.nontransversal == ((f1, f1), (f3, f3))
    assert res.faces == ((1, 3),) * 2
    assert res.dropped_empty == ()
    # the two rows of one step meet empty, rows of two steps transversally
    pairs = [(i, j) for i in range(2 * big_n) for j in range(i + 1, 2 * big_n)]
    same = [(i, j) for i, j in pairs if ctx.step[i] == ctx.step[j]]
    assert len(same) == big_n
    for i, j in pairs:
        f, g = _masks(ctx, [i, j])
        assert bool(f & g) == ((i, j) in same)
        assert (f | g).bit_count() == (1 if (i, j) in same else 2)
    # the whole polytope has no rows and is not empty
    assert _masks(ctx, []) == (0, 0)
    # the first two dual-family facets of the deformed symplectic polytope
    # meet transversally
    assert _masks(ctx, [0, 1]) == (1 << ctx.step[0] | 1 << ctx.step[1], 0)


def test_normal_form_matches_row_multiset_route():
    # every complementary pairing of C2, A3 and C3 and every product of C2
    # and C3 against the row-multiset rewriting it replaced
    for datum in (C2, A3, C3):
        ctx = fc.default_context(datum)
        for u in all_elements(datum):
            for v in all_elements(datum):
                if length(u) + length(v) == datum.num_positive_roots:
                    assert fc.degree_pairing(datum, u, v) == routes.degree_pairing(datum, u, v, ctx)
    for datum in (C2, C3):
        ctx = fc.default_context(datum)
        for v in all_elements(datum):
            for w in all_elements(datum):
                got = fc.product_c(datum, v, w, ctx).expansion
                assert got == routes.product_expansion(datum, v, w, ctx), (v, w)


def _nonzero(form):
    return {m: c for m, c in form.items() if c}


def test_multiply_matches_the_per_pair_route():
    # every product of two classes of C2 and C3 against the per-pair route
    # it replaced
    for datum in (C2, C3):
        ctx = fc.DeformedContext(datum)
        for v in all_elements(datum):
            for w in all_elements(datum):
                left, right = ctx.class_form(v), ctx.class_form(w)
                got = ctx.multiply(left, right)
                assert _nonzero(got) == _nonzero(routes.product_form(ctx, left, right)), (v, w)


def test_divisor_powers_match_the_power_loop():
    # every power D^k * [X^low] of every C3 side volume at lambda = (1, 1, 1)
    # against the per-mask power loop it replaced: the opposite side starts
    # at [X^w] and takes N - l(w) powers, and at w = e it takes the N powers
    # of [X^e] that the Demazure side starts from
    ctx = fc.DeformedContext(C3)
    divisor = ctx.divisor((1, 1, 1))
    assert all(step.bit_count() == 1 for step in divisor)
    for w in all_elements(C3):
        form = ref = ctx.class_form(w)
        for k in range(C3.num_positive_roots - length(w)):
            form, ref = ctx.multiply(form, divisor), routes.divisor_times(ctx, ref, divisor)
            assert _nonzero(form) == _nonzero(ref), (w, k)


@pytest.mark.parametrize("lam", [(1.5, 1, 1), (1, -1, 1), (1, 1)], ids=["float", "negative", "length"])
def test_divisor_refuses_a_weight_that_is_not_dominant_with_int_entries(lam):
    # (1.5, 1, 1) once gave float coefficients, and (1, -1, 1) a divisor
    # outside the type cone
    with pytest.raises(ValueError, match="not an integer|not dominant"):
        fc.default_context(C3).divisor(lam)


def test_classes_are_built_once_per_context(monkeypatch):
    # the C3 duality suite on a fresh default context requests each class,
    # one per element and family, once
    fc.default_context.cache_clear()
    calls = Counter()
    build = fc.schubert_class

    def counted(datum, w, family):
        calls[w, family] += 1
        return build(datum, w, family)

    monkeypatch.setattr(fc, "schubert_class", counted)
    assert verify.duality_suite("C", 3)["status"] == "pass"
    assert set(calls) == {(w, f) for w in all_elements(C3) for f in ("dual-kogan", "kogan")}
    assert max(calls.values()) == 1
    # a held class is read-only, and an element of another group is refused
    # before anything is held for it
    ctx = fc.default_context(C3)
    form = ctx.class_form(identity_element(C3))
    with pytest.raises(TypeError):
        form[0] = 2
    held = dict(ctx._forms), dict(ctx._complements)
    with pytest.raises(ValueError, match="not an element of the Weyl group"):
        ctx.degree(form, identity_element(C2))
    assert (ctx._forms, ctx._complements) == held


def test_context_refuses_a_step_without_one_row_of_each_family(monkeypatch):
    # the F rows of the first two steps planted on one step
    tower = pt.interval_tower

    def planted(p):
        step, verts = tower(p)
        return (step[1],) + step[1:], verts

    monkeypatch.setattr(pt, "interval_tower", planted)
    with pytest.raises(InvariantError, match="one row of each facet family"):
        fc.DeformedContext(C2)


def test_product_pipeline_runs_no_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("elimination reached the face calculus")

    for name in ("vertices", "incidence", "facet_defining", "is_simple", "affine_rank"):
        monkeypatch.setattr(pt, name, refuse)
    ctx = fc.DeformedContext(C3)
    assert len(ctx.verts) == 2 ** C3.num_positive_roots
    s1 = word_to_element(C3, (1,))
    s2 = word_to_element(C3, (2,))
    result = fc.product_c(C3, s1, s2, ctx)
    assert result.method == "degree-pairing"
    assert result.expansion == dict(bgg_structure_constants(C3, s1, s2))
    w0 = longest_element(C3)
    assert fc.degree_pairing(C3, s1, multiply(w0, s1)) == 1


def test_degree_pairing_duality():
    # every complementary pair of A2, C2, A3 and C3 gets a number: 1 exactly
    # on Poincare-dual pairs
    for datum, cells in ((A2, 10), (C2, 14), (A3, 106), (C3, 296)):
        w0 = longest_element(datum)
        big_n = datum.num_positive_roots
        e = identity_element(datum)
        assert fc.degree_pairing(datum, e, w0) == 1
        seen = 0
        for u in all_elements(datum):
            for v in all_elements(datum):
                if length(u) + length(v) == big_n:
                    assert fc.degree_pairing(datum, u, v) == (v == multiply(w0, u)), (u, v)
                    seen += 1
        assert seen == cells


def test_degree_against_a_schubert_variety_is_poincare_duality():
    # deg([X^u] * [X_w]) is 1 when u = w and 0 otherwise, for l(u) = l(w)
    for datum in (A2, C2, A3, C3):
        ctx = fc.default_context(datum)
        elements = all_elements(datum)
        for u in elements:
            form = ctx.class_form(u)
            assert sum(form.values()) == len(fc.schubert_class(datum, u, "dual-kogan"))
            for w in elements:
                if length(w) == length(u):
                    assert ctx.degree(form, w) == (u == w), (u, w)


def test_the_end_classes_are_the_whole_polytope():
    # what makes side_volume one formula: [X_{w0}] and [X^e] are the face
    # of the empty tight set
    for datum in (A2, A3, RootDatum("A", 4), C2, C3, RootDatum("C", 4)):
        assert fc.schubert_class(datum, longest_element(datum), "kogan") == ((),)
        assert fc.schubert_class(datum, identity_element(datum), "dual-kogan") == ((),)


def test_type_a_kogan_class_is_the_extraction_set_of_w_w0():
    # the box-removal route (`mset`) and the subword-complex route agree in
    # type A: the Kogan class of w is the set of extractions of w w0 from the
    # standard word; in type C they part ways, which is where the symplectic
    # face sums are new
    for datum in (RootDatum("A", 1), A2, A3, RootDatum("A", 4)):
        word, w0 = standard_word(datum), longest_element(datum)
        for w in all_elements(datum):
            expected = list(compatible_subsets(datum, word, multiply(w, w0)))
            assert sorted(fc.schubert_class(datum, w, "kogan")) == expected, w
    word, w0 = standard_word(C2), longest_element(C2)
    assert any(
        sorted(fc.schubert_class(C2, w, "kogan")) != list(compatible_subsets(C2, word, multiply(w, w0)))
        for w in all_elements(C2)
    )


def test_kogan_class_and_volume_refuse_the_identity_of_another_group():
    e3 = identity_element(C3)
    with pytest.raises(ValueError, match="not an element of the Weyl group"):
        fc.schubert_class(C2, e3, "kogan")
    for side in ("schubert", "opposite"):
        with pytest.raises(ValueError, match="not an element of the Weyl group"):
            fc.side_volume(C2, side, e3, (1, 1))


def test_degree_pairing_validates_lengths():
    with pytest.raises(ValueError):
        fc.degree_pairing(C2, identity_element(C2), identity_element(C2))


def test_degree_pairing_refuses_elements_of_another_group():
    # e and w0 of C3 have lengths 0 + 9, not complementary in C2, so the
    # length rule would answer first if the group check did not
    with pytest.raises(ValueError, match="elements from different groups"):
        fc.degree_pairing(C2, identity_element(C3), longest_element(C3))


def test_product_example():
    s1 = word_to_element(C2, (1,))
    s2 = word_to_element(C2, (2,))
    res = fc.product_c(C2, s1, s2)
    assert sorted(res.faces) == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert res.method == "degree-pairing"
    assert {tuple(reduced_word(u)): c for u, c in res.expansion.items()} == {
        (1, 2): 1,
        (2, 1): 1,
    }


def test_product_refuses_elements_of_another_group():
    # above the top degree of C2 (9 + 9 > 4) as well as below it
    s1 = word_to_element(C3, (1,))
    for v, w in ((longest_element(C3), longest_element(C3)), (s1, s1), (identity_element(C2), s1)):
        with pytest.raises(ValueError, match="different groups"):
            fc.product_c(C2, v, w)


def test_product_refuses_an_oracle_coefficient_off_by_one(monkeypatch):
    # the oracle's first coefficient of s_1 * s_2 in C2 one too high: the
    # expansion has the oracle's terms, so only the coefficients differ
    s1 = word_to_element(C2, (1,))
    s2 = word_to_element(C2, (2,))
    true = bgg_structure_constants(C2, s1, s2)
    planted = tuple((t, c + (k == 0)) for k, (t, c) in enumerate(true))
    monkeypatch.setattr(fc.oracles, "bgg_structure_constants", lambda datum, v, w: planted)
    with pytest.raises(fc.TheoremViolationError) as err:
        fc.product_c(C2, s1, s2)
    assert err.value.payload["expansion"] == {str(t): c for t, c in true}
    assert err.value.payload["oracle"] == {str(t): c for t, c in planted}


def test_pairing_and_product_refuse_a_context_of_another_datum():
    # the steps of a C3 context misread the C2 classes: a product reads as a
    # theorem violation; a pairing takes no context and reads its datum's own
    ctx = fc.default_context(C3)
    s1 = word_to_element(C2, (1,))
    with pytest.raises(ValueError, match="context built for"):
        fc.product_c(C2, s1, s1, ctx)
    assert fc.degree_pairing(C2, s1, multiply(longest_element(C2), s1)) == 1


def _plant_fold(monkeypatch, w, opposite, planted):
    """`crystals.fold` with the mask of w on the given side replaced."""
    fold = cr.fold
    monkeypatch.setattr(
        fc.crystals, "fold", lambda record, u, side: planted if (u, side) == (w, opposite) else fold(record, u, side)
    )


@pytest.mark.parametrize(
    "opposite, decompose",
    [
        (True, fc.opposite_demazure_faces),
        (False, fc.demazure_faces),
    ],
    ids=["opposite", "demazure"],
)
def test_face_union_refuses_a_crystal_side_with_one_wrong_string(monkeypatch, opposite, decompose):
    # the crystal side has the face union's size, but one of its strings is
    # replaced by one outside B(lambda), a bit past the record's strings:
    # comparing sizes alone would pass it
    w = word_to_element(A2, (1,))
    record = cr.record(A2, standard_word(A2), (1, 1))
    true = cr.fold(record, w, opposite)
    planted = true ^ 1 << true.bit_length() - 1 | 1 << len(record.strings)
    _plant_fold(monkeypatch, w, opposite, planted)
    with pytest.raises(fc.TheoremViolationError) as err:
        decompose(A2, w, (1, 1))
    assert err.value.payload["face_union"] == err.value.payload["crystal"] == true.bit_count()


@pytest.mark.parametrize(
    "opposite, decompose",
    [
        (True, fc.opposite_demazure_faces),
        (False, fc.demazure_faces),
    ],
    ids=["opposite", "demazure"],
)
def test_face_union_refuses_a_view_over_the_same_strings_with_one_bit_moved(
    monkeypatch, opposite, decompose
):
    # the crystal side is a fold mask over the record's own strings with the
    # face union's bit count, one of its strings swapped for another string
    # of B(lambda): comparing bit counts alone would pass it
    w = word_to_element(A2, (1,))
    record = cr.record(A2, standard_word(A2), (1, 1))
    true = cr.fold(record, w, opposite)
    crystal = cr.opposite_demazure_crystal if opposite else cr.demazure_crystal
    assert crystal(A2, standard_word(A2), w, (1, 1)) == pt.PointSet(true, record.strings)
    free = next(k for k in range(len(record.strings)) if not true >> k & 1)
    planted = true & (true - 1) | 1 << free
    assert planted.bit_count() == true.bit_count() and planted != true
    _plant_fold(monkeypatch, w, opposite, planted)
    with pytest.raises(fc.TheoremViolationError) as err:
        decompose(A2, w, (1, 1))
    assert err.value.payload["face_union"] == err.value.payload["crystal"] == true.bit_count()


def test_each_face_decomposition_takes_one_record_lookup_and_one_weight_check(monkeypatch):
    # one lookup of the record and one check of the weight per call, on a
    # cold record and on a warm one
    checks = []
    check_weight = cr.check_weight
    for module in (cr, fc):
        monkeypatch.setattr(module, "check_weight", lambda datum, lam: checks.append(lam) or check_weight(datum, lam))
    w = word_to_element(A3, (2, 1))
    cr._crystal.cache_clear()
    for decompose in (fc.opposite_demazure_faces, fc.demazure_faces) * 2:
        before, checks[:] = cr._crystal.cache_info(), []
        decompose(A3, w, (1, 0, 1))
        after = cr._crystal.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1
        assert checks == [(1, 0, 1)]
    assert cr._crystal.cache_info().misses == 1


def test_product_identity():
    e = identity_element(C2)
    for w in all_elements(C2):
        res = fc.product_c(C2, e, w)
        assert res.expansion == {w: 1}


def test_product_table_against_oracle():
    ctx = fc.default_context(C2)
    methods = {}
    for v in all_elements(C2):
        for w in all_elements(C2):
            res = fc.product_c(C2, v, w, ctx)  # raises on any oracle mismatch
            methods[res.method] = methods.get(res.method, 0) + 1
            assert all(c >= 0 for c in res.expansion.values())
            expected = dict(bgg_structure_constants(C2, v, w))
            assert res.expansion == expected
    # every product of degree <= N is read off the geometry
    assert methods == {"degree-pairing": 39, "zero": 25}


@seed(20261018)
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(all_elements(C3)), st.sampled_from(all_elements(C3)))
def test_c3_face_sum_products_commute(v, w):
    ctx = fc.default_context(C3)
    forward = fc.product_c(C3, v, w, ctx)
    assert forward.expansion == fc.product_c(C3, w, v, ctx).expansion
    assert forward.expansion == dict(bgg_structure_constants(C3, v, w))


def test_empty_faces_are_reported_not_silent():
    # no face is empty, not even at a weight with a zero entry: the string
    # table's block certificate puts a point on every face, so every
    # extraction is a face and `empty` stays ()
    s2 = word_to_element(C2, (2,))
    dec = fc.opposite_demazure_faces(C2, s2, (1, 0))
    assert set(dec.tights) | set(dec.empty) == set(
        fc.compatible_subsets(C2, standard_word(C2), s2)
    )
    assert dec.empty == ()


def test_model_table_refuses_a_facet_block_without_a_common_point(monkeypatch):
    # the Kogan rows of the C2 record at (1, 1), whose masks the model table
    # reads, cleared of their common point
    true = pt.column_masks

    def planted(rows, highs, column, n):
        masks, outside = true(rows, highs, column, n)
        common = reduce(operator.and_, masks[4:])
        return masks[:4] + tuple(m & ~common for m in masks[4:]), outside

    monkeypatch.setattr(pt, "column_masks", planted)
    cr._crystal.cache_clear()
    try:
        with pytest.raises(pt.EmptyFaceError, match="facet block 2 share no point"):
            fc.model_face_union_count(C2, (1, 1), ((),), "F")
    finally:
        monkeypatch.undo()
        cr._crystal.cache_clear()


# the weights on which the certified model side is checked against the
# model polytope's own lattice sweep: A2 and C2 at lambda <= 3, A3 at
# lambda <= 2, C3 and A4 at lambda <= 1
MODEL_SWEEP_CASES = tuple(
    (RootDatum(family, rank), lam)
    for family, rank, top in (("A", 2, 3), ("A", 3, 2), ("C", 2, 3), ("C", 3, 1), ("A", 4, 1))
    for lam in itertools.product(range(top + 1), repeat=rank)
)


def test_certified_model_side_is_the_swept_model_side():
    # the record's masks, which the model side reads once the map is
    # certified, against the GT/SGT polytope swept at each weight (the old
    # route): the same count and the same multiset of per-point tight-row
    # sets, rows matched by index
    assert len(MODEL_SWEEP_CASES) == 83
    for datum, lam in MODEL_SWEEP_CASES:
        pt.model_map(datum)
        record = cr.record(datum, standard_word(datum), lam)
        count, masks = len(record.strings), record.masks
        swept = routes.lattice_incidence(pt.model_polytope(datum, lam))
        assert count == swept[0] == fc.model_face_union_count(datum, lam, ((),), "F")
        assert routes.tight_row_multiset(count, masks) == routes.tight_row_multiset(*swept)


def _leading_coefficient(values):
    # exact finite differences over values at k = 0, 1, ..., len-1
    from fractions import Fraction
    import math

    rows = [[Fraction(v) for v in values]]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([b - a for a, b in zip(prev, prev[1:])])
    degree = 0
    for j, row in enumerate(rows):
        if any(x != 0 for x in row):
            degree = j
    return rows[degree][0] / math.factorial(degree), degree


def test_volume_matches_character_asymptotics():
    # the stated side volumes equal the leading coefficients of the section
    # dimension polynomials, computed through the character oracle alone
    for datum, lam in ((A2, (1, 1)), (A2, (2, 1)), (C2, (1, 1)), (A3, (1, 1, 1))):
        w0 = longest_element(datum)
        for w in all_elements(datum):
            ell = length(w)
            vals = [
                demazure_dimension(datum, w, tuple(k * x for x in lam))
                for k in range(0, ell + 2)
            ]
            lead, order = _leading_coefficient(vals)
            assert order <= ell
            expected = fc.side_volume(datum, "schubert", w, lam)
            assert (lead if order == ell else 0) == expected
            co_ell = datum.num_positive_roots - ell
            vals = [
                demazure_dimension(datum, multiply(w0, w), tuple(k * x for x in lam))
                for k in range(0, co_ell + 2)
            ]
            lead, order = _leading_coefficient(vals)
            expected = fc.side_volume(datum, "opposite", w, lam)
            assert (lead if order == co_ell else 0) == expected


def test_side_volume_matches_the_ehrhart_reference():
    # the ring degrees on the GT/SGT faces equal the Ehrhart volumes of the
    # string-polytope faces, non-regular weights (collapsed faces) included
    cases = [(A2, lam) for lam in ((1, 1), (2, 1), (1, 0), (0, 2), (2, 2))]
    cases += [(C2, lam) for lam in ((1, 1), (1, 0), (0, 1), (2, 1))]
    cases += [(A3, (1, 1, 1)), (A3, (1, 0, 2)), (C3, (1, 1, 1))]
    checked = zeros = 0
    for datum, lam in cases:
        big_n = datum.num_positive_roots
        for w in all_elements(datum):
            for side, d in (("schubert", length(w)), ("opposite", big_n - length(w))):
                if datum == C3 and d > 4:
                    continue
                expected = routes.side_volume(datum, side, w, lam)
                assert fc.side_volume(datum, side, w, lam) == expected, (datum, lam, w, side)
                checked += 1
                zeros += expected == 0
    assert checked == 220 + 48
    assert zeros > 0


def test_side_volume_at_w0_is_the_leading_weyl_dimension_coefficient():
    lam = (2, 1, 3)
    lead, order = _leading_coefficient(
        [weyl_dimension(C3, tuple(k * x for x in lam)) for k in range(C3.num_positive_roots + 2)]
    )
    assert (lead, order) == (216, 9)
    assert fc.side_volume(C3, "schubert", longest_element(C3), lam) == 216


def test_side_volume_rejects_a_weight_outside_the_dominant_cone():
    e = identity_element(A2)
    for side in ("schubert", "opposite"):
        for lam in ((1, 2, 3), (1,), (1, -1), (-1, 2)):
            with pytest.raises(ValueError, match="not dominant"):
                fc.side_volume(A2, side, e, lam)


def test_product_pipeline_is_type_c_only():
    s1 = word_to_element(A2, (1,))
    with pytest.raises(ValueError):
        fc.product_c(A2, s1, s1)


def test_opposite_faces_hold_for_every_ambient_word():
    # the opposite-side decomposition is word-general: drive it over every
    # reduced word of the longest element at the adjoint-type weight
    lam3 = (1, 1, 1)
    for word in all_reduced_words(longest_element(A3)):
        for w in all_elements(A3):
            fc.opposite_demazure_faces(A3, w, lam3, word=word)  # raises on mismatch
    for word in all_reduced_words(longest_element(C2)):
        for w in all_elements(C2):
            fc.opposite_demazure_faces(C2, w, (1, 1), word=word)


def _dot_product_decompose(tights, rows, points):
    """The reference face cut: every tight row's dot product, per point; the
    decomposition and the tight sets whose face is empty."""
    faces = []
    empty = []
    for tight in tights:
        eqs = [rows[k - 1] for k in tight]
        pts = tuple(
            p for p in points if all(sum(v * x for v, x in zip(vec, p)) == rhs for vec, rhs in eqs)
        )
        if pts:
            faces.append((tight, pts))
        else:
            empty.append(tight)
    decomposition = fc.FaceDecomposition(
        tights=tuple(t for t, _ in faces),
        union=frozenset(p for _, pts in faces for p in pts),
    )
    return decomposition, tuple(empty)


def _string_rows_and_points(datum, word, lam):
    """The lambda-bound rows of `word` and its ambient string points, built
    directly: the string polytope's lattice points on the standard word, the
    sorted crystal on any other."""
    rows = []
    for j in range(1, len(word) + 1):
        vec, lam_vec = pt.string_lambda_facet(datum, word, j)
        rows.append((vec, sum(a * b for a, b in zip(lam_vec, lam))))
    if cr.is_certified_word(datum, word):
        points = list(pt.lattice_points(pt.string_polytope(datum, lam)))
    else:
        points = sorted(cr.generate_b_lambda(datum, word, lam))
    return rows, points


def test_mask_face_cut_matches_dot_product_filter():
    # every field of both decompositions against the dot-product reference,
    # on the standard words and on one other reduced word of A3
    other = next(word for word in all_reduced_words(longest_element(A3)) if word != standard_word(A3))
    for datum, lam, word in (
        (C2, (2, 2), standard_word(C2)),
        (A3, (1, 1, 1), standard_word(A3)),
        (A3, (1, 1, 1), other),
    ):
        rows, points = _string_rows_and_points(datum, word, lam)
        cone = [(vec, 0) for vec in pt.string_cone_facets(datum)]
        for w in all_elements(datum):
            dec = fc.opposite_demazure_faces(datum, w, lam, word=word)
            assert (dec, ()) == _dot_product_decompose(compatible_subsets(datum, word, w), rows, points)
            if word == standard_word(datum):
                tights = fc.schubert_class(datum, w, "kogan")
                assert (fc.demazure_faces(datum, w, lam), ()) == _dot_product_decompose(tights, cone, points)


def _swept_face_union(datum, lam, tights, offset):
    """The model-side union count by one lattice sweep per face."""
    poly = pt.model_polytope(datum, lam)
    union = set()
    for tight in tights:
        union.update(pt.lattice_points(routes.face_polytope(poly, [offset + k - 1 for k in tight])))
    return len(union)


def test_model_face_union_count_matches_face_sweeps():
    for datum in (A2, C2, A3, C3):
        big_n = datum.num_positive_roots
        for lam in itertools.product((0, 1), repeat=datum.rank):
            for w in all_elements(datum):
                f_tights = compatible_subsets(datum, standard_word(datum), w)
                fv_tights = fc.schubert_class(datum, w, "kogan")
                assert fc.model_face_union_count(datum, lam, f_tights, "F") == _swept_face_union(
                    datum, lam, f_tights, 0
                )
                assert fc.model_face_union_count(datum, lam, fv_tights, "Fv") == _swept_face_union(
                    datum, lam, fv_tights, big_n
                )


def test_model_face_union_count_rejects_unknown_family():
    for family in ("kogan", "G", "f"):
        with pytest.raises(ValueError):
            fc.model_face_union_count(A2, (1, 1), [(1,)], family)


def test_section_dimension_refuses_an_unknown_side():
    with pytest.raises(ValueError, match=r"^side must be 'schubert' or 'opposite'$"):
        fc.h0_dimension(A2, "both", identity_element(A2), (1, 1))


def test_side_volume_refuses_an_unknown_side():
    with pytest.raises(ValueError, match=r"^side must be 'schubert' or 'opposite'$"):
        fc.side_volume(C2, "both", identity_element(C2), (1, 1))


def test_schubert_class_refuses_an_unknown_family():
    with pytest.raises(ValueError, match=r"^family must be 'dual-kogan' or 'kogan'$"):
        fc.schubert_class(C2, identity_element(C2), "grassmann")


def test_model_face_union_count_refuses_a_weight_of_the_wrong_length():
    for lam in ((1,), (1, 1, 5)):
        with pytest.raises(ValueError, match="one entry per fundamental weight"):
            fc.model_face_union_count(C2, lam, [(1,)], "F")


def test_model_face_union_count_refuses_a_tight_index_that_is_not_an_int():
    # a ValueError, as at every other library door, and not the TypeError
    # of the tuple index (1.0) or of the range comparison ("1")
    for tights in (((1.0,),), (("1",),), ((1,), (2, 1.0))):
        for family in ("F", "Fv"):
            with pytest.raises(ValueError, match="tight index .* not an integer"):
                fc.model_face_union_count(C2, (1, 1), tights, family)
    assert fc.model_face_union_count(C2, (1, 1), ((1,),), "F") > 0


def test_model_face_union_count_refuses_a_weight_that_is_not_dominant():
    # a ValueError, as at every other face and crystal entry point, and not
    # the InvariantError of a model table block with no common point
    for datum, lam in ((A2, (-1, 0)), (C2, (1, -2))):
        for family in ("F", "Fv"):
            with pytest.raises(ValueError, match="is not dominant"):
                fc.model_face_union_count(datum, lam, ((1,),), family)


def test_model_face_union_count_checks_the_weight_before_its_table():
    # (1.0, 1) == (1, 1) as a cache key: the entries are checked first, so
    # no float finds the cached table of an int weight
    assert fc.model_face_union_count(A2, (1, 1), [(1,)], "F") == 4
    for lam in ((1.0, 1), (1.5, 1), (1, Fraction(1))):
        with pytest.raises(ValueError, match="not an integer"):
            fc.model_face_union_count(A2, lam, [(1,)], "F")


def test_model_face_union_count_rejects_rows_outside_its_block():
    # A2 has N = 3 rows per block
    for family in ("F", "Fv"):
        for bad in ((0,), (4,), (1, 6)):
            with pytest.raises(IndexError):
                fc.model_face_union_count(A2, (1, 1), [(1,), bad], family)


S1 = word_to_element(A2, (1,))
LIST_WEIGHT_CALLS = {
    "opposite_demazure_faces": lambda lam: fc.opposite_demazure_faces(A2, S1, lam),
    "demazure_faces": lambda lam: fc.demazure_faces(A2, S1, lam),
    "h0_dimension": lambda lam: fc.h0_dimension(A2, "opposite", S1, lam),
}


@pytest.mark.parametrize("name", sorted(LIST_WEIGHT_CALLS))
def test_weight_may_be_a_list(name):
    call = LIST_WEIGHT_CALLS[name]
    assert call([2, 1]) == call((2, 1))
