import itertools
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubcalc import cartan, crystals, oracles, pipedreams, verify
from schubcalc.cartan import (
    InvariantError,
    RootDatum,
    WeylElement,
    _compose,
    _inversions,
    _weyl_table,
    all_elements,
    bruhat_leq,
    cartan_matrix,
    check_word_of_longest,
    compatible_subsets,
    elements_of_length,
    identity_element,
    inverse,
    left_mul,
    length,
    longest_element,
    multiply,
    positive_coroots,
    reduced_word,
    right_mul,
    simple_element,
    simple_root_in_fundamental,
    standard_word,
    word_to_element,
)
from schubcalc.crystals import demazure_crystal
from schubcalc.oracles import weyl_dimension

import reference_routes as ref
from reference_routes import all_reduced_words, positive_roots

A1 = RootDatum("A", 1)
A2 = RootDatum("A", 2)
A3 = RootDatum("A", 3)
A4 = RootDatum("A", 4)
A5 = RootDatum("A", 5)
C2 = RootDatum("C", 2)
C3 = RootDatum("C", 3)
C4 = RootDatum("C", 4)


def test_cartan_matrices():
    assert cartan_matrix(A2) == ((2, -1), (-1, 2))
    assert cartan_matrix(C2) == ((2, -1), (-2, 2))
    assert cartan_matrix(C3) == ((2, -1, 0), (-2, 2, -1), (0, -1, 2))
    for datum in (A2, A3, C2, C3):
        c = cartan_matrix(datum)
        n = datum.rank
        for i in range(n):
            assert c[i][i] == 2
            for j in range(n):
                if i != j:
                    assert c[i][j] in (0, -1, -2)
                    assert (c[i][j] == 0) == (c[j][i] == 0)


def test_positive_root_counts():
    assert len(positive_roots(A2)) == 3
    assert len(positive_roots(A3)) == 6
    assert len(positive_roots(C2)) == 4
    assert len(positive_roots(C3)) == 9


def test_simple_reflection_action():
    s1 = simple_element(A2, 1)
    assert s1.oneline == (2, 1, 3)
    assert length(s1) == 1
    for datum in (A2, C2, A3):
        for w in all_elements(datum):
            for i in range(1, datum.rank + 1):
                sw = left_mul(i, w)
                assert abs(length(sw) - length(w)) == 1
                assert left_mul(i, sw) == w
    with pytest.raises(ValueError):
        simple_element(A2, 3)


def test_composed_action_length():
    # six reflections composed on the rank-4 board give a length-6 element
    w = word_to_element(A4, (2, 3, 4, 3, 2, 1))
    assert length(w) == 6
    assert w.oneline == (5, 1, 3, 4, 2)


def test_reduced_words():
    assert all_reduced_words(identity_element(A2)) == ((),)
    w = word_to_element(A3, (1, 2, 1))
    assert set(all_reduced_words(w)) == {(1, 2, 1), (2, 1, 2)}
    assert len(all_reduced_words(longest_element(A2))) == 2
    for datum in (A2, C2):
        for w in all_elements(datum):
            for word in all_reduced_words(w):
                assert len(word) == length(w)
                assert word_to_element(datum, word) == w


def test_longest_element():
    assert longest_element(A2).oneline == (3, 2, 1)
    for datum in (C2, C3):
        w0 = longest_element(datum)
        assert w0.oneline == tuple(-j for j in range(1, datum.rank + 1))
        assert length(w0) == datum.num_positive_roots
        # exhaustive maximization
        assert max(length(w) for w in all_elements(datum)) == length(w0)
        assert sum(1 for w in all_elements(datum) if length(w) == length(w0)) == 1
    assert length(longest_element(C3)) == 9


def test_bruhat_order():
    for datum in (A2, C2):
        w0 = longest_element(datum)
        e = identity_element(datum)
        for w in all_elements(datum):
            assert bruhat_leq(e, w)
            assert bruhat_leq(w, w0)
    s1 = word_to_element(A2, (1,))
    s2 = word_to_element(A2, (2,))
    assert not bruhat_leq(s1, s2)
    assert not bruhat_leq(s2, s1)


def _subword_bruhat(v, w):
    """Independent oracle: v <= w iff some reduced word of w has a subsequence
    that is a reduced word of v."""
    from itertools import combinations

    target = set(all_reduced_words(v))
    for word in all_reduced_words(w):
        for positions in combinations(range(len(word)), length(v)):
            if tuple(word[p] for p in positions) in target:
                return True
    return length(v) == 0


def test_bruhat_against_subword_enumeration():
    for datum in (A2, C2):
        elems = all_elements(datum)
        for v in elems:
            for w in elems:
                assert bruhat_leq(v, w) == _subword_bruhat(v, w)


def test_compatible_subsets_examples():
    w = word_to_element(A3, (1, 2, 1))
    assert compatible_subsets(A3, (2, 1, 2, 3, 2, 1), w) == (
        (1, 2, 3),
        (1, 2, 5),
        (2, 3, 6),
        (2, 5, 6),
    )
    w2 = word_to_element(A3, (3, 2))
    assert compatible_subsets(A3, (1, 2, 3, 2, 1, 2), w2) == ((3, 4), (3, 6))
    for datum in (A2, C2):
        word = standard_word(datum)
        assert compatible_subsets(datum, word, identity_element(datum)) == ((),)
        assert compatible_subsets(datum, word, longest_element(datum)) == (
            tuple(range(1, datum.num_positive_roots + 1)),
        )


def test_extraction_table_matches_per_element_search():
    for datum in (A3, A4, C2, C3):
        for word in (standard_word(datum), ref.other_word(datum)):
            for w in all_elements(datum):
                assert compatible_subsets(datum, word, w) == ref.compatible_subsets(datum, word, w)


def test_compatible_subsets_rejects_bad_input():
    with pytest.raises(ValueError, match="not a reduced word"):
        compatible_subsets(A2, (1, 2), identity_element(A2))
    with pytest.raises(ValueError, match="not a reduced word"):
        compatible_subsets(A2, (1, 2, 2), identity_element(A2))
    # a word whose walk ends at w_0 but is not reduced
    with pytest.raises(ValueError, match="not a reduced word"):
        compatible_subsets(A2, (1, 1, 1, 2, 1), identity_element(A2))
    for w in (identity_element(A3), longest_element(C2), simple_element(A3, 3)):
        with pytest.raises(ValueError, match="not an element"):
            compatible_subsets(A2, standard_word(A2), w)


def test_the_standard_word_is_accepted_without_a_walk(monkeypatch):
    # certified once per datum, the standard word needs no walk; any other
    # word keeps the walk, and a bool or float copy of the standard word its
    # letter message
    word = standard_word(A3)
    monkeypatch.setattr(cartan, "word_to_element", lambda datum, word: identity_element(datum))
    check_word_of_longest(A3, word)
    check_word_of_longest(A3, list(word))
    with pytest.raises(ValueError, match="not a reduced word"):
        check_word_of_longest(A3, ref.other_word(A3))
    monkeypatch.undo()
    for bad in ((True,) + word[1:], (1.0,) + word[1:]):
        with pytest.raises(ValueError, match=r"^letter %r out of range 1\.\.3$" % (bad[0],)):
            check_word_of_longest(A3, bad)


def test_standard_words_are_reduced_words_of_longest():
    for datum in (A2, A3, A4, C2, C3):
        word = standard_word(datum)
        assert len(word) == datum.num_positive_roots
        assert word_to_element(datum, word) == longest_element(datum)
        assert ref.is_reduced_word(datum, word)
        # built once per datum
        assert standard_word(datum) is word


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([A2, A3, C2]),
    st.data(),
)
def test_inner_product_invariance(datum, data):
    elems = all_elements(datum)
    w = data.draw(st.sampled_from(elems))
    lam = tuple(data.draw(st.integers(-3, 3)) for _ in range(datum.rank))
    mu = tuple(data.draw(st.integers(-3, 3)) for _ in range(datum.rank))
    lhs = ref.weight_inner(datum, ref.act_on_weight(w, lam), ref.act_on_weight(w, mu))
    assert lhs == ref.weight_inner(datum, lam, mu)


@pytest.mark.parametrize(
    "datum, i, j, value",
    [
        (A2, 1, 1, Fraction(2, 3)),
        (A2, 1, 2, Fraction(1, 3)),
        (A3, 1, 1, Fraction(3, 4)),
        (A3, 1, 3, Fraction(1, 4)),
        (C2, 1, 1, 2),
        (C2, 2, 2, 1),
        (C2, 1, 2, 1),
        (C3, 1, 1, 3),
        (C3, 3, 3, 1),
        (C3, 1, 3, 1),
    ],
)
def test_inner_product_of_fundamental_weights(datum, i, j, value):
    omega = [tuple(int(k == m) for k in range(1, datum.rank + 1)) for m in (i, j)]
    got = ref.weight_inner(datum, *omega)
    assert isinstance(got, Fraction)
    assert got == value


# ---------------------------------------------------------------------------
# the group table against one-line arithmetic

TABLE_DATA = (A1, A2, A3, A4, A5, C2, C3, C4)


@pytest.mark.parametrize("datum", TABLE_DATA, ids=repr)
def test_table_matches_oneline_arithmetic(datum):
    table = _weyl_table(datum)
    assert table.elements == ref.bfs_elements(datum)
    assert all_elements(datum) is table.elements
    simple = [simple_element(datum, i) for i in range(1, datum.rank + 1)]
    for k, w in enumerate(table.elements):
        assert table.index[w.oneline] == k
        assert table.length[k] == length(w) == _inversions(w)
        for i, s in enumerate(simple, 1):
            assert table.elements[table.left[i - 1][k]] == ref.oneline_left_mul(i, w) == left_mul(i, w)
            assert table.elements[table.right[i - 1][k]] == multiply(w, s) == right_mul(w, i)
        ascents = [i for i, s in enumerate(simple, 1) if _inversions(multiply(w, s)) > _inversions(w)]
        assert ref.right_ascents(w) == ascents
        assert reduced_word(w) == ref.oneline_reduced_word(w)
        assert word_to_element(datum, reduced_word(w)) == w


@pytest.mark.parametrize("datum", TABLE_DATA, ids=repr)
def test_inverse_column_matches_the_oneline_loop(datum):
    table = _weyl_table(datum)
    e = identity_element(datum)
    for k, w in enumerate(table.elements):
        assert table.elements[table.inverse[k]] == ref.oneline_inverse(w)
        assert inverse(w) is table.elements[table.inverse[k]]
        assert multiply(w, inverse(w)) == e


@pytest.mark.parametrize("datum", TABLE_DATA, ids=repr)
def test_word_column_matches_the_descent_walk(datum):
    table = _weyl_table(datum)
    for k, w in enumerate(table.elements):
        assert table.words[k] == ref.table_reduced_word(w)
        assert reduced_word(w) is table.words[k]
        # its first letter is the least left descent, which `fold` and
        # `bruhat_leq` read
        assert table.words[k][:1] == tuple(ref.left_descents(w)[:1])


@pytest.mark.parametrize("datum", TABLE_DATA, ids=repr)
def test_left_column_matches_the_composition(datum):
    # the column is read off the inverses and the right products; the
    # composition is the route it replaced
    table = _weyl_table(datum)
    lines = [w.oneline for w in table.elements]
    for i, step in enumerate(table.left, 1):
        s = simple_element(datum, i).oneline
        assert [lines[j] for j in step] == [_compose(s, line) for line in lines]


@pytest.mark.parametrize("datum", TABLE_DATA, ids=repr)
def test_elements_of_length_are_the_length_filter(datum):
    lengths = range(-1, datum.num_positive_roots + 2)
    slices = [elements_of_length(datum, d) for d in lengths]
    for d, part in zip(lengths, slices):
        assert list(part) == [w for w in all_elements(datum) if length(w) == d]
    assert sum(slices, ()) == all_elements(datum)


ROOT_DATA = tuple(RootDatum("A", n) for n in range(1, 7)) + tuple(RootDatum("C", n) for n in range(2, 6))


@pytest.mark.parametrize("datum", ROOT_DATA, ids=repr)
def test_positive_coroots_are_two_beta_over_its_norm(datum):
    coroots = positive_coroots(datum)
    assert coroots == tuple(sorted(coroots))
    assert set(coroots) == {ref.coroot(datum, beta) for beta in positive_roots(datum)}


@pytest.mark.parametrize("datum", ROOT_DATA, ids=repr)
def test_depth_and_weyl_dimension_match_the_norm_routes(datum):
    for lam in itertools.product(range(3), repeat=datum.rank):
        assert crystals._depth(datum, lam) == ref.depth(datum, lam)
        assert weyl_dimension(datum, lam) == ref.weyl_dimension(datum, lam)


def test_positive_coroots_of_c2():
    # the long simple root alpha_1 and the long root alpha_1 + 2 alpha_2 have
    # the short coroots h_1 and h_1 + h_2; the short roots alpha_2 and
    # alpha_1 + alpha_2 have the long coroots h_2 and 2 h_1 + h_2
    assert positive_roots(C2) == ((0, 1), (1, 0), (1, 1), (1, 2))
    assert positive_coroots(C2) == ((0, 1), (1, 0), (1, 1), (2, 1))
    assert positive_coroots(A3) == positive_roots(A3)


def test_reflection_closure_refuses_a_wrong_count():
    with pytest.raises(InvariantError, match="reflection closure found 4 vectors, expected 5"):
        cartan._reflection_closure(cartan_matrix(C2), 5)


@pytest.mark.parametrize("i", (0, -1, 3))
def test_simple_root_refuses_a_letter_out_of_range(i):
    with pytest.raises(ValueError, match="letter %d out of range 1..2" % i):
        simple_root_in_fundamental(A2, i)


@pytest.mark.parametrize("datum", (A1, A2, A3, A4, C2, C3), ids=repr)
def test_length_counts_positive_roots_sent_negative(datum):
    # an independent definition of the length, through the root action
    for w in all_elements(datum):
        negative = sum(1 for root in positive_roots(datum) if min(ref.act_on_root(w, root)) < 0)
        assert length(w) == negative


def _signed_matrix(w):
    """Rows of the signed permutation matrix of w: column j holds the image
    of e_j, sign(x) e_|x| for the j-th entry x of the one-line form."""
    line = w.oneline
    return tuple(tuple((x > 0) - (x < 0) if abs(x) == r else 0 for x in line) for r in range(1, len(line) + 1))


@pytest.mark.parametrize("datum", (A2, A3, C2, C3), ids=repr)
def test_multiply_is_the_signed_matrix_product(datum):
    # the one composition of one-line forms against matrix arithmetic
    elems = all_elements(datum)
    size = datum.num_coordinates
    for u in elems:
        a = _signed_matrix(u)
        for v in elems:
            b = _signed_matrix(v)
            product = tuple(
                tuple(sum(a[r][k] * b[k][j] for k in range(size)) for j in range(size)) for r in range(size)
            )
            assert _signed_matrix(multiply(u, v)) == product, (u, v)


@pytest.mark.parametrize("datum", (A3, C3), ids=repr)
def test_bruhat_matches_lifting_property_on_all_pairs(datum):
    elems = all_elements(datum)
    for v in elems:
        for w in elems:
            assert bruhat_leq(v, w) == ref.lifting_bruhat_leq(v, w), (v, w)


def _plant_wrong_length(monkeypatch, datum):
    s1 = simple_element(datum, 1)
    monkeypatch.setattr(cartan, "_inversions", lambda w, true=_inversions: true(w) + (w == s1))


def _plant_broken_edge(monkeypatch, datum):
    s1, s2 = simple_element(datum, 1).oneline, simple_element(datum, 2).oneline
    monkeypatch.setattr(
        cartan, "_compose", lambda u, v, true=_compose: u if (u, v) == (s2, s1) else true(u, v)
    )


def _plant_inverse(monkeypatch, planted):
    monkeypatch.setattr(cartan, "_invert", lambda line, true=cartan._invert: planted.get(line) or true(line))


def _plant_non_involution(monkeypatch, datum):
    # s_1 inverts to the identity, which inverts to itself
    _plant_inverse(monkeypatch, {simple_element(datum, 1).oneline: identity_element(datum).oneline})


def _plant_length_changing_inverse(monkeypatch, datum):
    # the identity and s_1 trade inverses: an involution that moves the length
    e, s1 = identity_element(datum).oneline, simple_element(datum, 1).oneline
    _plant_inverse(monkeypatch, {e: s1, s1: e})


def _plant_lost_element(monkeypatch, datum):
    w0 = longest_element(datum).oneline
    monkeypatch.setattr(
        cartan, "_compose", lambda u, v, true=_compose: u if true(u, v) == w0 else true(u, v)
    )


@pytest.mark.parametrize(
    "plant, message",
    [
        (_plant_wrong_length, "changes the length by 2"),
        (_plant_broken_edge, "changes the length by 0"),
        (_plant_lost_element, "found 5 elements of W\\(A2\\), expected 6"),
        (
            _plant_non_involution,
            "the inverse of WA2\\[2, 1, 3\\] is WA2\\[1, 2, 3\\], whose inverse is WA2\\[1, 2, 3\\]",
        ),
        (
            _plant_length_changing_inverse,
            "the inverse of WA2\\[1, 2, 3\\] is WA2\\[2, 1, 3\\], whose inverse is WA2\\[1, 2, 3\\] "
            "and length 1, not 0",
        ),
    ],
    ids=["wrong-length", "broken-edge", "lost-element", "non-involution", "length-changing-inverse"],
)
def test_planted_table_fault_is_caught(monkeypatch, plant, message):
    _weyl_table.cache_clear()
    plant(monkeypatch, A2)
    try:
        with pytest.raises(InvariantError, match=message):
            all_elements(A2)
    finally:
        monkeypatch.undo()
        _weyl_table.cache_clear()
    assert len(all_elements(A2)) == 6


@pytest.mark.parametrize(
    "datum, line",
    [
        (A2, (1, 1, 3)),
        (A2, (2, 1)),
        (A2, (1, 2, 3, 4)),
        (A2, (-1, 2, 3)),
        (A2, [1, 2, 3]),
        (C2, (1, -1)),
        (C2, (3, 1)),
        (C2, (1, 2, 3)),
    ],
)
def test_malformed_elements_are_refused(datum, line):
    with pytest.raises(ValueError, match="permutation of 1"):
        WeylElement(datum, line)


@pytest.mark.parametrize(
    "datum, line",
    [(C2, 5), (C2, None), (C2, (1, "a")), (A2, (1, "a", 3))],
    ids=["C2-int", "C2-none", "C2-str-entry", "A2-str-entry"],
)
def test_a_one_line_form_that_is_no_tuple_of_ints_is_refused_with_value_error(datum, line):
    # each once raised TypeError, in abs or in sorted, before the form was checked
    with pytest.raises(ValueError, match="permutation of 1|not an integer"):
        WeylElement(datum, line)


@pytest.mark.parametrize(
    "rank", [2.0, 2.5, Fraction(2), "2", True], ids=["whole-float", "float", "fraction", "str", "bool"]
)
def test_a_rank_that_is_not_an_int_is_refused_cold_and_warm(rank):
    # RootDatum("A", 2.0) once equalled A2: a cold cache raised TypeError
    # and a warm one returned the six elements of A2; True equals 1 and
    # shares its hash, and RootDatum("A", True) once equalled A1
    message = r"^rank %s is not an integer$" % re.escape(repr(rank))
    _weyl_table.cache_clear()
    for _ in range(2):  # cold, then with the table of A2 cached
        for call in (
            lambda: RootDatum("A", rank),
            lambda: all_elements(RootDatum("A", rank)),
            lambda: verify.duality_suite("A", rank),
        ):
            with pytest.raises(ValueError, match=message):
                call()
        assert len(all_elements(A2)) == 6


@pytest.mark.parametrize("entry", [2.0, Fraction(2)], ids=["float", "fraction"])
def test_a_one_line_entry_that_is_not_an_int_is_refused_cold_and_warm(entry):
    # WeylElement(A2, (2.0, 1, 3)) once equalled s_1: the element-keyed caches
    # returned the entries of s_1 for it, and multiply(s_2, it) raised TypeError
    line = (entry, 1, 3)
    message = r"^one-line form %s has an entry that is not an integer$" % re.escape(repr(line))
    s1, s2 = simple_element(A2, 1), simple_element(A2, 2)
    for cache in (_weyl_table, pipedreams.mset, oracles.bgg_structure_constants):
        cache.cache_clear()
    for _ in range(2):  # cold, then with the entries of s_1 cached
        for call in (
            lambda: WeylElement(A2, line),
            lambda: pipedreams.mset(A2, WeylElement(A2, line)),
            lambda: oracles.bgg_structure_constants(A2, s2, WeylElement(A2, line)),
            lambda: multiply(s2, WeylElement(A2, line)),
        ):
            with pytest.raises(ValueError, match=message):
                call()
        assert len(pipedreams.mset(A2, s1)) == 1
        assert [c for _, c in oracles.bgg_structure_constants(A2, s2, s1)] == [1, 1]
        assert multiply(s2, s1) == word_to_element(A2, (2, 1))


@pytest.mark.parametrize("letter", [1.0, Fraction(1), "1", True], ids=["float", "fraction", "str", "bool"])
def test_a_letter_that_is_not_an_int_is_refused(letter):
    # a letter 1.0 once passed the range check and raised TypeError on the
    # table; True passed it as the letter 1
    message = r"^letter %s out of range 1..2$" % re.escape(repr(letter))
    for call in (
        lambda: word_to_element(A2, (letter, 2)),
        lambda: simple_element(A2, letter),
        lambda: left_mul(letter, identity_element(A2)),
        lambda: right_mul(identity_element(A2), letter),
        lambda: simple_root_in_fundamental(A2, letter),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_a_bool_entry_is_refused_by_every_integer_check():
    # WeylElement(A1, (True, 2)) was once accepted as the identity, and a
    # weight or word with True in it found the cache entries of 1
    e, word = identity_element(A2), standard_word(A2)
    for _ in range(2):  # cold, then with the entries of 1 cached
        for kind, values, call in (
            ("one-line form", (True, 2), lambda: WeylElement(A1, (True, 2))),
            ("word", (True, 2, 1), lambda: compatible_subsets(A2, (True, 2, 1), e)),
            ("weight", (True, 0), lambda: weyl_dimension(A2, (True, 0))),
            ("weight", (True, 0), lambda: crystals.generate_b_lambda(A2, word, (True, 0))),
        ):
            message = r"^%s %s has an entry that is not an integer$" % (kind, re.escape(repr(values)))
            with pytest.raises(ValueError, match=message):
                call()
        assert compatible_subsets(A2, word, e) == ((),)
        assert len(crystals.generate_b_lambda(A2, word, (1, 0))) == 3


def test_signed_permutations_are_elements():
    w = WeylElement(C2, (-2, 1))
    assert w in all_elements(C2)
    assert WeylElement(A2, (2, 3, 1)) == word_to_element(A2, (1, 2))


def _forged(datum, line):
    """An element that skipped its constructor's check."""
    w = object.__new__(WeylElement)
    object.__setattr__(w, "datum", datum)
    object.__setattr__(w, "oneline", line)
    return w


def test_table_lookup_of_a_non_member_raises_value_error():
    for bad in (_forged(A2, (1, 1, 3)), _forged(A2, (2, 1))):
        e = identity_element(A2)
        for call in (
            lambda: length(bad),
            lambda: left_mul(1, bad),
            lambda: ref.left_descents(bad),
            lambda: right_mul(bad, 1),
            lambda: ref.right_ascents(bad),
            lambda: reduced_word(bad),
            lambda: inverse(bad),
            lambda: bruhat_leq(bad, e),
            lambda: bruhat_leq(e, bad),
            lambda: demazure_crystal(A2, standard_word(A2), bad, (1, 1)),
        ):
            with pytest.raises(ValueError, match="not an element"):
                call()


@pytest.mark.parametrize("datum", TABLE_DATA, ids=repr)
def test_equal_objects_built_apart_hash_equal(datum):
    twin = RootDatum(datum.family, datum.rank)
    assert twin == datum and twin is not datum and hash(twin) == hash(datum)
    for w in all_elements(datum):
        copy = WeylElement(twin, tuple(list(w.oneline)))
        assert copy == w and copy is not w and hash(copy) == hash(w)


@pytest.mark.parametrize("datum", TABLE_DATA, ids=repr)
def test_a_fresh_copy_finds_its_table_element_in_a_dict(datum):
    position = {w: k for k, w in enumerate(all_elements(datum))}
    twin = RootDatum(datum.family, datum.rank)
    for k, w in enumerate(all_elements(datum)):
        assert position[WeylElement(twin, tuple(list(w.oneline)))] == k
    assert {twin: 1}[datum] == 1


HASHES_OF_C3 = """
from schubcalc.cartan import RootDatum, all_elements

C3 = RootDatum("C", 3)
print(hash(C3), hash(all_elements(C3)[17]))
"""


def test_hashes_are_the_same_under_every_hash_seed():
    # a hash that read the family's str, as the generated dataclass hash
    # does, would change with the seed
    package = pathlib.Path(cartan.__file__).parent.parent
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", HASHES_OF_C3], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


def test_bad_letters_raise_value_error():
    e = identity_element(A2)
    for i in (0, 3, -1):
        with pytest.raises(ValueError, match="out of range"):
            left_mul(i, e)
        with pytest.raises(ValueError, match="out of range"):
            right_mul(e, i)
        with pytest.raises(ValueError, match="out of range"):
            word_to_element(A2, (1, i))
