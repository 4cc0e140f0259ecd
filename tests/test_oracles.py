import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schubcalc import oracles as orc
from schubcalc.cartan import (
    InvariantError,
    RootDatum,
    all_elements,
    all_reduced_words,
    identity_element,
    length,
    longest_element,
    multiply,
    simple_element,
    word_to_element,
)

import reference_routes as ref
from reference_routes import act_on_weight

A2 = RootDatum("A", 2)
A3 = RootDatum("A", 3)
C2 = RootDatum("C", 2)
C3 = RootDatum("C", 3)
SEED = 20261018


def num_variables(datum):
    """x_1..x_{n+1} for type A, x_1..x_n for type C."""
    return datum.rank + 1 if datum.family == "A" else datum.rank


def coxeter_order(datum, i, j):
    if abs(i - j) > 1:
        return 2
    return 4 if datum.family == "C" and {i, j} == {1, 2} else 3


def test_weyl_dimensions():
    assert orc.weyl_dimension(A2, (0, 0)) == 1
    assert orc.weyl_dimension(A2, (1, 1)) == 8
    assert orc.weyl_dimension(A2, (1, 0)) == 3
    assert orc.weyl_dimension(A3, (1, 0, 0)) == 4
    # the two fundamental dimensions pin the Cartan orientation
    assert {orc.weyl_dimension(C2, (1, 0)), orc.weyl_dimension(C2, (0, 1))} == {4, 5}
    assert orc.weyl_dimension(C2, (1, 0)) == 5
    assert orc.weyl_dimension(C3, (0, 0, 0)) == 1


def test_flipped_orientation_breaks_the_pin():
    # with the arrow reversed the dimension formula contradicts the symplectic
    # pattern counts (5 lattice points for the first fundamental weight)
    from schubcalc import polytopes as pt

    sgt_count = len(pt.lattice_points(pt.model_polytope(C2, (1, 0))))
    assert sgt_count == 5 == orc.weyl_dimension(C2, (1, 0))
    flipped = [[2, -2], [-1, 2]]
    # dimension formula evaluated by hand for the flipped matrix: the first
    # fundamental weight would give 4, contradicting the 5 pattern points
    roots_flipped = [(1, 0), (0, 1), (1, 1), (2, 1)]
    d_flip = (1, 2)
    def dim(lam):
        num = Fraction(1)
        for alpha in roots_flipped:
            per = sum(alpha[j] * d_flip[j] * (lam[j] + 1) for j in range(2))
            base = sum(alpha[j] * d_flip[j] for j in range(2))
            num *= Fraction(per, base)
        return num
    assert dim((1, 0)) == 4 != sgt_count


def test_weyl_dimension_refuses_a_weight_of_the_wrong_length_or_sign():
    for lam in ((1, 1, 5), (-3, 0), (1,)):
        with pytest.raises(ValueError, match="not dominant of rank 2"):
            orc.weyl_dimension(C2, lam)


@pytest.mark.parametrize("datum, i", [(A2, 0), (A2, 3), (A2, -1), (C2, 0), (C2, 3)])
def test_operators_refuse_a_letter_out_of_range(datum, i):
    # unchecked, letter 0 reads alpha_n or the last variables through index
    # -1, and a letter past the rank raises IndexError
    message = "letter %d out of range 1..2" % i
    with pytest.raises(ValueError, match=message):
        orc.demazure_operator(datum, i, {(1, 0): 1})
    with pytest.raises(ValueError, match=message):
        orc.divided_difference(datum, i, {1: 1})


def test_demazure_character_refuses_an_element_of_another_group():
    # s_1 of C2 read as a C3 letter would give a dimension
    with pytest.raises(ValueError, match="elements from different groups"):
        orc.demazure_dimension(C3, simple_element(C2, 1), (1, 1, 1))


@pytest.mark.parametrize(
    "datum, other", [(A2, C2), (C2, A2), (A3, A2)], ids=["C2-in-A2", "A2-in-C2", "A2-in-A3"]
)
def test_schubert_representative_refuses_an_element_of_another_group(datum, other):
    # the identity of C2 in A2 once gave (), the zero polynomial, and the
    # other elements wrong polynomials, all without an error
    for w in all_elements(other):
        with pytest.raises(ValueError, match="^elements from different groups$"):
            orc.schubert_representative(datum, w)
    assert dict(orc.schubert_representative(datum, identity_element(datum))) == {0: len(all_elements(datum))}


def test_structure_constants_refuse_an_element_of_another_group():
    # l(u) + l(v) = 4 exceeds the top degree 3 of A2, where the call would
    # answer () for a C2 element without looking at its group
    u, v = word_to_element(C2, (1, 2)), word_to_element(A2, (1, 2))
    with pytest.raises(ValueError, match="elements from different groups"):
        orc.bgg_structure_constants(A2, u, v)


def test_demazure_operator_refuses_a_weight_of_the_wrong_length():
    # unchecked, zip cut the weight (1, 0, 0) of A2 to (1, 0)
    with pytest.raises(ValueError, match="weight \\(1, 0, 0\\) is not of rank 2"):
        orc.demazure_operator(A2, 1, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="weight \\(1,\\) is not of rank 2"):
        orc.demazure_operator(C2, 2, {(1, 0): 1, (1,): 1})


@pytest.mark.parametrize(
    "datum, mono",
    [(A2, (1, 0)), (A2, (1, 0, 0, 0)), (C2, (1, 0, 0)), (C2, (5, 0)), (C2, (0, -1))],
)
def test_pack_refuses_exponents_outside_the_coordinates(datum, mono):
    # a tuple of another length was cut or padded by zip; an exponent outside
    # 0..N does not fit its field
    size, top = num_variables(datum), datum.num_positive_roots
    with pytest.raises(ValueError, match="is not %d exponents in 0..%d" % (size, top)):
        orc.pack(datum, {(0,) * size: 1, mono: 1})


def test_packed_kernels_refuse_polynomials_keyed_by_tuples():
    # the calls that zip used to cut now fail: the packed kernels read ints
    with pytest.raises(TypeError):
        orc.poly_mul(A2, {(1, 0, 0): 1}, {(1, 0): 1})
    with pytest.raises(TypeError):
        orc.divided_difference(C2, 1, {(1, 0, 0): 1})
    with pytest.raises(TypeError):
        orc.divided_difference(A2, 2, {(1, 0, 0): 1})


def test_field_width_witness_refuses_a_carry():
    # N = 4 gives C2 3-bit fields: x_1^4 * x_1^4 would carry into x_2
    f = orc.pack(C2, {(4, 0): 1})
    with pytest.raises(InvariantError, match="degrees 4 \\+ 4 overflow the exponent fields"):
        orc.poly_mul(C2, f, f)
    assert orc.unpack(C2, orc.poly_mul(C2, f, orc.pack(C2, {(0, 0): 3}))) == {(4, 0): 3}
    assert orc.unpack(C2, orc.poly_mul(C2, orc.pack(C2, {(1, 1): 2}), orc.pack(C2, {(0, 2): 1, (2, 0): -1}))) == {
        (1, 3): 2,
        (3, 1): -2,
    }


@seed(SEED)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([A2, C2, A3, C3]), st.data())
def test_field_sum_degree_matches_the_unpacked_degree(datum, data):
    # exponents 0..N in each variable: the totals run past N, where the guard
    # must still read them exactly, one field at a time
    top, size = datum.num_positive_roots, num_variables(datum)
    monos = st.tuples(*[st.integers(0, top) for _ in range(size)])
    packed = orc.pack(datum, dict.fromkeys(data.draw(st.lists(monos, min_size=1, max_size=6)), 1))
    assert orc._degree(datum, packed) == max(map(sum, orc.unpack(datum, packed)))
    assert orc._degree(datum, orc.pack(datum, {(top,) * size: 1})) == top * size
    assert orc._degree(datum, {}) == 0


def test_demazure_operator_basics():
    lam = (1, 1)
    char = {lam: 1}
    once = orc.demazure_operator(A2, 1, char)
    assert sum(once.values()) == 2
    assert orc.demazure_operator(A2, 1, once) == once  # idempotent
    e = identity_element(A2)
    assert orc.demazure_character(A2, e, lam) == {lam: 1}


def test_demazure_character_word_independence_and_top():
    for datum in (A2, C2):
        lam = (1, 2)
        for w in all_elements(datum):
            chars = set()
            for word in all_reduced_words(w):
                char = {lam: 1}
                for i in reversed(word):
                    char = orc.demazure_operator(datum, i, char)
                chars.add(tuple(sorted(char.items())))
            assert len(chars) == 1
        top = orc.demazure_character(datum, longest_element(datum), lam)
        assert sum(top.values()) == orc.weyl_dimension(datum, lam)
        # the top Demazure character is fixed by every simple reflection
        for i in range(1, datum.rank + 1):
            s = simple_element(datum, i)
            reflected = {}
            for mu, coeff in top.items():
                img = act_on_weight(s, mu)
                reflected[img] = reflected.get(img, 0) + coeff
            assert reflected == top


def test_demazure_character_refuses_a_weight_that_is_not_dominant():
    e, w0 = identity_element(C2), longest_element(C2)
    for w, lam in ((w0, (1, 1, 5)), (e, (-3, 0)), (w0, (1, -1))):
        with pytest.raises(ValueError, match="not dominant"):
            orc.demazure_dimension(C2, w, lam)


def test_demazure_dimension_example():
    s1 = word_to_element(A2, (1,))
    assert orc.demazure_dimension(A2, s1, (1, 1)) == 2


def packed_chain(datum, word, f):
    """The library's d_{j_1} ... d_{j_m} f on a packed f, last letter first."""
    for i in reversed(word):
        f = orc.divided_difference(datum, i, f)
    return f


def dd(datum, i, poly):
    """The library's divided difference on {exponent tuple: c}."""
    return orc.unpack(datum, orc.divided_difference(datum, i, orc.pack(datum, poly)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([A2, C2, A3, C3]), st.data())
def test_divided_difference_nilpotent_and_braid(datum, data):
    n = datum.rank
    monos = st.tuples(*[st.integers(0, 2) for _ in range(num_variables(datum))])
    poly = {}
    for _ in range(data.draw(st.integers(1, 4))):
        poly[data.draw(monos)] = data.draw(st.integers(-3, 3))
    poly = {m: c for m, c in poly.items() if c}
    packed = orc.pack(datum, poly)
    assert orc.unpack(datum, packed) == poly
    for i in range(1, n + 1):
        once = orc.divided_difference(datum, i, packed)
        assert all(isinstance(c, int) and c for c in once.values())
        assert orc.unpack(datum, once) == ref.divided_difference(datum, i, poly)
        assert orc.divided_difference(datum, i, once) == {}
    # braid relations: for every pair of letters, the two alternating words
    # of their Coxeter order agree, on the packed kernel and on the tuple one
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            m = coxeter_order(datum, i, j)
            word1 = ([i, j] * m)[:m]
            word2 = ([j, i] * m)[:m]
            assert packed_chain(datum, word1, packed) == packed_chain(datum, word2, packed)
            assert ref.apply_divided_differences(datum, word1, poly) == ref.apply_divided_differences(
                datum, word2, poly
            )


def test_divided_difference_closed_forms():
    # type C, s_1 negates x_1 and alpha_1 = 2 x_1
    assert dd(C2, 1, {(3, 1): 5, (2, 0): 7}) == {(2, 1): 5}
    # type C, alpha_2 = x_2 - x_1
    assert dd(C2, 2, {(0, 1): 1}) == {(0, 0): 1}
    assert dd(C2, 2, {(2, 0): 1}) == {(1, 0): -1, (0, 1): -1}
    # type A, alpha_1 = x_1 - x_2
    assert dd(A2, 1, {(1, 0, 0): 1}) == {(0, 0, 0): 1}
    assert dd(A2, 2, {(0, 0, 3): 1}) == {(0, 2, 0): -1, (0, 1, 1): -1, (0, 0, 2): -1}


@pytest.mark.parametrize("datum", [A2, C2, A3, C3], ids=["A2", "C2", "A3", "C3"])
def test_wrong_signed_root_trips_normalization_gate(wrong_signed_root, datum):
    with pytest.raises(InvariantError, match="normalization"):
        orc.check_normalization(datum)
    e = identity_element(datum)
    with pytest.raises(InvariantError, match="normalization"):
        orc.bgg_structure_constants(datum, e, e)


def test_word_independence_of_divided_difference_chains():
    for datum in (A2, C2, A3, C3):
        f = dict(orc.top_class_polynomial(datum))
        for w in all_elements(datum):
            images = set()
            for word in all_reduced_words(w):
                images.add(tuple(sorted(packed_chain(datum, word, f).items())))
            assert len(images) == 1


def test_normalization_gate():
    orc.check_normalization(A2)
    orc.check_normalization(A3)
    orc.check_normalization(C2)
    orc.check_normalization(C3)


def test_top_class_is_the_integer_product_of_positive_roots():
    # A2: (x1 - x2)(x2 - x3)(x1 - x3); C2: (2 x1)(x2 - x1)(x2 + x1)(2 x2)
    a2 = orc.unpack(A2, dict(orc.top_class_polynomial(A2)))
    assert a2[(2, 1, 0)] == 1 and a2[(0, 1, 2)] == -1 and len(a2) == 6
    assert orc.unpack(C2, dict(orc.top_class_polynomial(C2))) == {(1, 3): 4, (3, 1): -4}
    for datum in (A2, C2, A3, C3):
        e = identity_element(datum)
        assert orc.unpack(datum, dict(orc.schubert_representative(datum, e))) == {
            (0,) * num_variables(datum): orc.group_order(datum)
        }
        assert orc.unpack(datum, dict(orc.top_class_polynomial(datum))) == ref.top_class_polynomial(datum)


@pytest.mark.parametrize("datum", [A2, A3, C2, C3], ids=["A2", "A3", "C2", "C3"])
def test_one_step_routes_match_the_whole_chains(datum):
    # each representative is one packed divided difference of a cached one,
    # and one structure-constant call shares its word suffixes; the whole
    # chains per element on exponent tuples give the same tables, each pair
    # in both orders
    elems = all_elements(datum)
    for w in elems:
        assert orc.unpack(datum, dict(orc.schubert_representative(datum, w))) == dict(
            ref.chain_representative(datum, w)
        )
    for u in elems:
        for v in elems:
            assert orc.bgg_structure_constants(datum, u, v) == ref.chain_structure_constants(datum, u, v)


def table_digest(datum):
    """sha256 of the canonical repr of the whole structure-constant table,
    with the counts of its pairs, of the pairs beyond the top degree and of
    the empty expansions."""
    elems = all_elements(datum)
    table = tuple(
        (u.oneline, v.oneline, tuple((w.oneline, c) for w, c in orc.bgg_structure_constants(datum, u, v)))
        for u in elems
        for v in elems
    )
    beyond = sum(1 for u in elems for v in elems if length(u) + length(v) > datum.num_positive_roots)
    empty = sum(1 for _, _, cs in table if not cs)
    return hashlib.sha256(repr(table).encode()).hexdigest(), len(table), beyond, empty


@pytest.mark.parametrize(
    "datum, digest, pairs, beyond, empty",
    [
        (A3, "a1f3d00268f0ca99ef0d9119eaba3fbe1617050eb7fba72c4f2f441258d3a9a5", 576, 235, 363),
        (C3, "668728af101879ca374f5c38eb71b42d4eca0b4a898ea8e75965370ad14cf4a8", 2304, 1004, 1457),
    ],
    ids=["A3", "C3"],
)
def test_full_tables_pinned(datum, digest, pairs, beyond, empty):
    # captured from the earlier weight-coordinate Fraction implementation
    assert table_digest(datum) == (digest, pairs, beyond, empty)


def test_structure_constants_c2_example():
    s1 = word_to_element(C2, (1,))
    s2 = word_to_element(C2, (2,))
    got = {w: c for w, c in orc.bgg_structure_constants(C2, s1, s2)}
    expected = {
        word_to_element(C2, (1, 2)): 1,
        word_to_element(C2, (2, 1)): 1,
    }
    assert got == expected


def test_structure_constants_identity_and_symmetry():
    for datum in (A2, C2):
        e = identity_element(datum)
        for v in all_elements(datum):
            assert dict(orc.bgg_structure_constants(datum, e, v)) == {v: 1}
        for u in all_elements(datum):
            for v in all_elements(datum):
                assert orc.bgg_structure_constants(datum, u, v) == orc.bgg_structure_constants(
                    datum, v, u
                )


def test_structure_constants_poincare_duality():
    for datum in (A2, C2):
        w0 = longest_element(datum)
        big_n = datum.num_positive_roots
        for u in all_elements(datum):
            for v in all_elements(datum):
                if length(u) + length(v) != big_n:
                    continue
                cs = dict(orc.bgg_structure_constants(datum, u, v))
                expected = {w0: 1} if v == multiply(w0, u) else {}
                assert cs == expected


def expand(datum, coeffs, t):
    """(sum of c_x [X^x]) . [X^t] in the Schubert basis."""
    out = {}
    for x, c in coeffs.items():
        for w, c2 in orc.bgg_structure_constants(datum, x, t):
            out[w] = out.get(w, 0) + c * c2
    return {w: c for w, c in out.items() if c}


def test_structure_constants_associative_a2():
    elems = all_elements(A2)
    for u in elems:
        for v in elems:
            for t in elems:
                if length(u) + length(v) + length(t) > 3:
                    continue
                uv = dict(orc.bgg_structure_constants(A2, u, v))
                vt = dict(orc.bgg_structure_constants(A2, v, t))
                assert expand(A2, uv, t) == expand(A2, vt, u)


def test_kleiman_positivity():
    for datum in (A2, C2):
        for u in all_elements(datum):
            for v in all_elements(datum):
                assert all(c >= 0 for _, c in orc.bgg_structure_constants(datum, u, v))


C3_ELEMENTS = all_elements(C3)


@seed(SEED)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(C3_ELEMENTS), st.sampled_from(C3_ELEMENTS))
def test_c3_products_commute(u, v):
    assert orc.bgg_structure_constants(C3, u, v) == orc.bgg_structure_constants(C3, v, u)


@seed(SEED)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_c3_products_associate(data):
    big_n = C3.num_positive_roots
    u = data.draw(st.sampled_from(C3_ELEMENTS))
    v = data.draw(st.sampled_from([x for x in C3_ELEMENTS if length(u) + length(x) <= big_n]))
    room = big_n - length(u) - length(v)
    t = data.draw(st.sampled_from([x for x in C3_ELEMENTS if length(x) <= room]))
    uv = dict(orc.bgg_structure_constants(C3, u, v))
    vt = dict(orc.bgg_structure_constants(C3, v, t))
    assert expand(C3, uv, t) == expand(C3, vt, u)
