import hashlib

import pytest

from schubcalc import pipedreams as pd
from schubcalc.cartan import (
    RootDatum,
    all_elements,
    identity_element,
    length,
    reduced_word,
    standard_word,
    word_to_element,
)

import reference_routes as ref
from reference_routes import all_reduced_words

A2 = RootDatum("A", 2)
A3 = RootDatum("A", 3)
A4 = RootDatum("A", 4)
C2 = RootDatum("C", 2)
C3 = RootDatum("C", 3)
C4 = RootDatum("C", 4)

# every board the layout tests read: A1-A6 and C2-C5
BOARDS = [RootDatum("A", n) for n in range(1, 7)] + [RootDatum("C", n) for n in range(2, 6)]
BOARD_IDS = ["%s%d" % (d.family, d.rank) for d in BOARDS]


def test_index_sets_refuse_the_identity_of_another_group():
    # the identity of C3 is no element of W(C2), so it has no full board there
    e3 = identity_element(C3)
    for build in (pd.bottom_diagram, pd.mset, pd.ladder_set):
        with pytest.raises(ValueError, match="not an element of the Weyl group"):
            build(C2, e3)


def test_mitosis_chain_refuses_a_letter_out_of_range():
    for letters in ((0,), (5,), (1, 3)):
        with pytest.raises(ValueError, match="out of range"):
            pd.mitosis_chain(A2, letters)


def test_letter_columns_and_m_op_refuse_a_letter_out_of_range():
    # a type C letter past the rank would read columns off the board's edge
    for datum in (A3, C3):
        for i in (0, -1, datum.rank + 1):
            with pytest.raises(ValueError, match="out of range"):
                pd.letter_columns(datum, i)
            with pytest.raises(ValueError, match="out of range"):
                pd.m_op(datum, i, pd.full_diagram(datum))


def test_mitosis_chain_refuses_type_c_on_every_word():
    # the fold refuses type C itself: the empty word runs no mitosis step
    # and would return the full shifted board
    for letters in ((), (1,), (2, 1)):
        with pytest.raises(ValueError, match="type A operator"):
            pd.mitosis_chain(C2, letters)


def test_mitosis_top_refuses_a_letter_out_of_range():
    for j in (0, 5):
        with pytest.raises(ValueError, match="out of range"):
            pd.mitosis_top(j, pd.full_diagram(A2))


def test_arrangements_type_a():
    d = pd.Diagram(A4, frozenset({(1, 3), (2, 1), (3, 1), (4, 1)}))
    assert pd.arrangement_kd(d) == (1, 2, 4, 9)
    assert pd.arrangement_kd_prime(d) == (2, 4, 5, 7, 9, 10)


def test_arrangements_type_c():
    d = pd.Diagram(C3, frozenset({(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)}))
    assert pd.arrangement_kd(d) == (3, 4, 7, 8, 9)
    assert pd.arrangement_kd_prime(d) == (1, 2, 5, 6)


def test_board_validation():
    with pytest.raises(ValueError):
        pd.Diagram(A2, frozenset({(3, 3)}))
    with pytest.raises(ValueError):
        pd.Diagram(C2, frozenset({(2, 1)}))


def test_ladder_chain_type_a():
    start = pd.Diagram(A4, frozenset({(2, 1), (2, 2), (3, 1), (4, 1)}))
    step1 = pd.ladder_move(start, 3, 1)
    assert step1 is not None and step1.boxes == frozenset({(1, 2), (2, 1), (2, 2), (4, 1)})
    step2 = pd.ladder_move(step1, 4, 1)
    assert step2.boxes == frozenset({(1, 2), (2, 1), (2, 2), (3, 2)})
    side = pd.ladder_move(start, 2, 2)
    assert side.boxes == frozenset({(1, 3), (2, 1), (3, 1), (4, 1)})
    assert pd.ladder_move(pd.Diagram(A4, frozenset()), 1, 1) is None


def test_ladder_chain_type_c():
    start = pd.Diagram(C3, frozenset({(1, 1), (1, 2), (1, 3), (2, 2), (3, 3)}))
    a = pd.ladder_move(start, 2, 2)
    assert a.boxes == frozenset({(1, 1), (1, 2), (1, 3), (1, 5), (3, 3)})
    b = pd.ladder_move(start, 3, 3)
    assert b.boxes == frozenset({(1, 1), (1, 2), (1, 3), (2, 2), (2, 4)})
    ab = pd.ladder_move(a, 3, 3)
    ba = pd.ladder_move(b, 2, 2)
    assert ab == ba
    assert ab.boxes == frozenset({(1, 1), (1, 2), (1, 3), (1, 5), (2, 4)})
    last = pd.ladder_move(ab, 2, 4)
    assert last.boxes == frozenset({(1, 1), (1, 2), (1, 3), (1, 5), (2, 3)})
    closure = pd.ladder_closure(start)
    assert closure == frozenset({start, a, b, ab, last})


def test_bottom_diagrams():
    assert pd.bottom_diagram(A4, identity_element(A4)) == pd.full_diagram(A4)
    assert pd.bottom_diagram(C3, identity_element(C3)) == pd.full_diagram(C3)
    w = word_to_element(A4, (2, 3, 4, 3, 2, 1))
    assert sorted(pd.bottom_diagram(A4, w).boxes) == [(2, 1), (2, 2), (3, 1), (4, 1)]
    wc = word_to_element(C3, (2, 1, 3, 2))
    assert sorted(pd.bottom_diagram(C3, wc).boxes) == [
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 2),
        (3, 3),
    ]
    # single reflections leave a single hole in the board
    for datum in (A4, C3):
        n = datum.rank
        for i in range(1, n + 1):
            d = pd.bottom_diagram(datum, word_to_element(datum, (i,)))
            missing = pd.board(datum).boxes - d.boxes
            expected = (n - i + 1, i) if datum.family == "A" else (n - i + 1, n + i - 1)
            assert missing == {expected}
            assert pd.ladder_set(datum, word_to_element(datum, (i,))) == frozenset([d])


def test_bottom_lexmin_matches_closed_form_everywhere():
    # the closed-form agreement is asserted inside bottom_diagram; drive it
    # over two full symmetric groups
    for datum in (RootDatum("A", 3), A4):
        for w in all_elements(datum):
            pd.bottom_diagram(datum, w)


def test_closure_tables_rank_two():
    tables = {
        (1,): [[(1, 1), (1, 2)]],
        (2,): [[(1, 1), (2, 1)]],
        (1, 2): [[(1, 1)]],
        (2, 1): [[(1, 2)], [(2, 1)]],
    }
    for letters, expected in tables.items():
        w = word_to_element(A2, letters)
        got = sorted(sorted(d.boxes) for d in pd.ladder_set(A2, w))
        assert got == sorted(expected)


def test_mset_tables_rank_two_type_c():
    tables = {
        (1,): [[(1, 1), (1, 2), (1, 3)]],
        (2,): [[(1, 1), (1, 2), (2, 2)]],
        (1, 2): [[(1, 1), (1, 2)]],
        (2, 1): [[(1, 1), (1, 3)], [(1, 1), (2, 2)]],
        (1, 2, 1): [[(1, 1)]],
        (2, 1, 2): [[(1, 2)], [(1, 3)], [(2, 2)]],
    }
    for letters, expected in tables.items():
        w = word_to_element(C2, letters)
        got = sorted(sorted(d.boxes) for d in pd.mset(C2, w))
        assert got == sorted(expected)


def test_seven_element_closure():
    w = word_to_element(A4, (2, 3, 4, 3, 2, 1))
    closure = pd.ladder_set(A4, w)
    assert len(closure) == 7
    expected = {
        frozenset({(2, 1), (2, 2), (3, 1), (4, 1)}),
        frozenset({(1, 2), (2, 1), (2, 2), (4, 1)}),
        frozenset({(1, 2), (2, 1), (2, 2), (3, 2)}),
        frozenset({(1, 3), (2, 1), (3, 1), (4, 1)}),
        frozenset({(1, 2), (1, 3), (3, 1), (4, 1)}),
        frozenset({(1, 2), (1, 3), (2, 2), (4, 1)}),
        frozenset({(1, 2), (1, 3), (2, 2), (3, 2)}),
    }
    assert {d.boxes for d in closure} == expected


def test_five_element_mset_type_c():
    wc = word_to_element(C3, (2, 1, 3, 2))
    mset = pd.mset(C3, wc)
    assert len(mset) == 5
    assert {tuple(sorted(d.boxes)) for d in mset} == {
        ((1, 1), (1, 2), (1, 3), (2, 2), (3, 3)),
        ((1, 1), (1, 2), (1, 3), (1, 5), (3, 3)),
        ((1, 1), (1, 2), (1, 3), (2, 2), (2, 4)),
        ((1, 1), (1, 2), (1, 3), (1, 5), (2, 4)),
        ((1, 1), (1, 2), (1, 3), (1, 5), (2, 3)),
    }


def test_mitosis_rank_two():
    got = pd.mitosis_chain(A2, (1,))
    assert {tuple(sorted(d.boxes)) for d in got} == {((1, 1), (1, 2))}
    assert pd.mitosis_top(1, pd.Diagram(A2, frozenset({(1, 2)}))) == frozenset()


def test_mitosis_equals_ladder_closure_everywhere():
    datum = RootDatum("A", 3)
    for w in all_elements(datum):
        expected = pd.ladder_set(datum, w)
        assert pd.mset(datum, w) == expected
        for word in all_reduced_words(w):
            assert pd.mitosis_chain(datum, word) == expected


@pytest.mark.parametrize("datum", [A2, A3, A4, C2, C3, C4], ids=["A2", "A3", "A4", "C2", "C3", "C4"])
def test_mset_steps_match_the_whole_fold_on_every_element(datum):
    # each M(w) is one box-removal step from the cached M(w s_i); the whole
    # fold from the full board gives the same set
    for w in all_elements(datum):
        assert pd.mset(datum, w) == ref.fold_mset(datum, w)


def test_mset_subset_of_ladder_closure_type_c():
    for datum in (C2, C3):
        for w in all_elements(datum):
            assert pd.mset(datum, w) <= pd.ladder_set(datum, w)


def test_reducedness_and_sizes():
    assert ref.is_reduced(pd.Diagram(A2, frozenset()))
    assert ref.is_reduced(pd.full_diagram(A2))
    # the extracted-word criterion characterizes the type A index sets; sizes
    # are complementary to the length in both families
    for datum in (A2, RootDatum("A", 3)):
        for w in all_elements(datum):
            for d in pd.mset(datum, w) | pd.ladder_set(datum, w):
                assert ref.is_reduced(d)
                assert len(d.boxes) == datum.num_positive_roots - length(w)
    for datum in (C2, C3):
        for w in all_elements(datum):
            for d in pd.mset(datum, w) | pd.ladder_set(datum, w):
                assert len(d.boxes) == datum.num_positive_roots - length(w)


def test_word_criterion_fails_in_type_c():
    # the direct letter extraction does not stay reduced on the shifted board:
    # the bottom diagram of the second reflection already extracts (1, 1, 2)
    d = pd.bottom_diagram(C2, word_to_element(C2, (2,)))
    assert ref.word_of_diagram(d) == (1, 1, 2)
    assert not ref.is_reduced(d)


def test_shape_condition_on_mset():
    # inside the type A index sets, a blocked column pattern forces the target
    # slot to be free (the structural lemma behind closure stability)
    datum = RootDatum("A", 3)
    for w in all_elements(datum):
        for d in pd.mset(datum, w):
            for (i, j) in d.boxes:
                if (i, j + 1) in d.boxes:
                    continue
                r = 1
                while r < i and (i - r, j) in d.boxes and (i - r, j + 1) in d.boxes:
                    r += 1
                if r < i and (i - r, j) not in d.boxes:
                    assert (i - r, j + 1) not in d.boxes


def _outcome(op, *args):
    """The operator's value, or the class of the `MOpError` it raised."""
    try:
        return op(*args)
    except pd.MOpError:
        return pd.MOpError


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_merged_moves_equal_type_a_routes_on_every_diagram(rank):
    # on the staircase the facet-order walk over column j and its mirror is
    # the row-by-row type A move, and the letter-i operator strips the first
    # mitosis candidate of column i
    datum = RootDatum("A", rank)
    board = sorted(pd.board(datum).boxes)
    for bits in range(1 << len(board)):
        d = pd.Diagram(datum, frozenset(b for k, b in enumerate(board) if bits >> k & 1))
        for i, j in board:
            assert pd.ladder_move(d, i, j) == ref.ladder_move_a(d, i, j)
        for i in range(1, rank + 1):
            assert _outcome(pd.m_op, datum, i, d) == _outcome(ref.m_op_a, datum, i, d)


# sha256 of the box-order output of bottom_diagram, ladder_set, mset and, in
# type A, mitosis_chain along reduced_word(w), for every w below
PIPE_DREAM_SHA256 = "1bf5cf9fe297840c352231f25e320f42211c626f38abbd1733599c78bb1ff443"


def test_pipe_dream_sets_are_pinned():
    digest = hashlib.sha256()
    for family, rank in (("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3)):
        datum = RootDatum(family, rank)
        for w in all_elements(datum):
            sets = {
                "bottom": [pd.bottom_diagram(datum, w)],
                "ladder_set": pd.box_order(pd.ladder_set(datum, w)),
                "mset": pd.box_order(pd.mset(datum, w)),
            }
            if family == "A":
                sets["mitosis_chain"] = pd.box_order(pd.mitosis_chain(datum, reduced_word(w)))
            for name, diagrams in sets.items():
                entry = (family, rank, w.oneline, name, [sorted(d.boxes) for d in diagrams])
                digest.update(repr(entry).encode())
    assert digest.hexdigest() == PIPE_DREAM_SHA256


def test_m_op_error_on_bad_input():
    with pytest.raises(pd.MOpError):
        pd.m_op(A2, 1, pd.Diagram(A2, frozenset({(1, 2)})))


def test_m_op_refuses_a_diagram_of_another_datum():
    # an A2 diagram would be read on the A3 board and give an A3 diagram
    for datum, other in ((A3, A2), (A2, A3), (C2, A2)):
        with pytest.raises(ValueError, match="cannot take M_1 in"):
            pd.m_op(datum, 1, pd.full_diagram(other))


def test_ascii_render():
    d = pd.Diagram(C2, frozenset({(1, 1), (2, 2)}))
    assert pd.ascii_diagram(d) == "+..\n +"


@pytest.mark.parametrize("datum", BOARDS, ids=BOARD_IDS)
def test_board_layouts_match_the_per_type_formulas(datum):
    layout = pd.board(datum)
    assert layout.boxes == ref.per_type_board_boxes(datum)
    assert layout.facet_order == ref.per_type_facet_ordering(datum)
    assert layout.word_order == ref.per_type_word_ordering(datum)
    # each position map is its order read backwards, 1-based
    assert layout.facet_pos == {box: k for k, box in enumerate(layout.facet_order, start=1)}
    assert layout.word_pos == {box: k for k, box in enumerate(layout.word_order, start=1)}
    board = sorted(layout.boxes)
    for boxes in (board, [], board[::2], board[1::3]):
        d = pd.Diagram(datum, frozenset(boxes))
        assert pd.ascii_diagram(d) == ref.per_type_ascii_diagram(d)


@pytest.mark.parametrize("datum", BOARDS, ids=BOARD_IDS)
def test_word_order_spells_the_standard_word(datum):
    letter = {j: i for i in range(1, datum.rank + 1) for j in pd.letter_columns(datum, i)}
    assert tuple(letter[j] for _, j in pd.board(datum).word_order) == standard_word(datum)
