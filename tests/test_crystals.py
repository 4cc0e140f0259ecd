import gc
import itertools
import operator
import random
import tracemalloc
from array import array
from fractions import Fraction
from functools import reduce

import pytest

from schubcalc import cartan
from schubcalc import crystals as cr
from schubcalc import faces as fc
from schubcalc import polytopes as pt
from schubcalc.cartan import (
    InvariantError,
    RootDatum,
    all_elements,
    bruhat_leq,
    compatible_subsets,
    identity_element,
    left_ascents,
    left_descents,
    left_mul,
    length,
    longest_element,
    multiply,
    reduced_word,
    standard_word,
    word_to_element,
)
from schubcalc.oracles import weyl_dimension

import reference_routes as ref
from reference_routes import all_reduced_words, demazure_character, demazure_dimension

A1 = RootDatum("A", 1)
A2 = RootDatum("A", 2)
A3 = RootDatum("A", 3)
A4 = RootDatum("A", 4)
C2 = RootDatum("C", 2)
C3 = RootDatum("C", 3)
IA2 = standard_word(A2)
IC2 = standard_word(C2)


def _fold_states(datum, word, w, lam, opposite):
    """The ladder states of the record's fold mask of B_w(lam), or of B^w(lam)
    when opposite, over the table order."""
    states = ref.table_states(datum, word, lam)
    return frozenset(pt.mask_points(cr.fold(cr._crystal(datum, word, lam), w, opposite), states))


def _lowest(datum, word, lam):
    return ref.table_states(datum, word, lam)[cr._crystal(datum, word, lam).table.lowest]


def test_sigma_values():
    assert ref.sigma(A2, IA2, (0, 0, 0), 1) == 0
    assert ref.sigma(A2, IA2, (1, 0, 0), 1) == 1
    # a_1 + c_{1,2} a_2 + c_{1,1} a_3 on the word (1,2,1)
    assert ref.sigma(A2, IA2, (0, 1, 1), 1) == 0 - 1 + 2
    assert ref.sigma(A2, IA2, (0, 1, 1), 2) == 1 - 1


def test_epsilon_and_ops_at_infinity():
    assert cr.epsilon(A2, IA2, None, (0, 0, 0), 1) == 0
    assert cr.epsilon(A2, IA2, None, (1, 0, 0), 1) == 1
    assert cr.f_op(A2, IA2, None, (0, 0, 0), 1) == (1, 0, 0)
    assert cr.e_op(A2, IA2, None, (0, 0, 0), 1) is None
    assert cr.e_op(A2, IA2, None, (1, 0, 0), 1) == (0, 0, 0)


def test_f_null_at_cutoff():
    # zero pairing with the highest weight kills the lowering operator
    assert cr.f_op(A2, IA2, (0, 1), (0, 0, 0), 1) is None
    assert cr.f_op(A2, IA2, (0, 1), (0, 0, 0), 2) is not None


@pytest.mark.parametrize("state", [(0, 0), (0, 0, 0, 9), (1,)], ids=["short", "long", "one"])
def test_operators_refuse_a_state_of_the_wrong_length(state):
    # a longer state would be read on its first three coordinates, and a
    # shorter one fail by IndexError or give a weight
    message = "does not have the 3 coordinates of word"
    for op in (cr.f_op, cr.e_op, cr.epsilon, cr.phi):
        with pytest.raises(ValueError, match=message):
            op(A2, IA2, (1, 1), state, 1)
    with pytest.raises(ValueError, match=message):
        cr.weight_of(A2, IA2, (1, 1), state)


@pytest.mark.parametrize(
    "word, lam, state, message",
    [
        ((1, 1, 1), (1, 1), (0, 0, 0), "not a reduced word of the longest element"),
        (IA2, (1,), (0, 0, 0), "not dominant of rank 2"),
        (IA2, (-1, 0), (0, 0, 0), "not dominant of rank 2"),
        (IA2, (1, 1), (-1, 0, 0), "has a negative coordinate"),
    ],
    ids=["unreduced-word", "short-weight", "negative-weight", "negative-state"],
)
def test_operators_refuse_input_outside_their_domain(word, lam, state, message):
    # the word and weight rules of the table build, and nonnegative
    # coordinates; none of these is a state of an embedded crystal
    for op in (cr.f_op, cr.e_op, cr.epsilon, cr.phi):
        with pytest.raises(ValueError, match=message):
            op(A2, word, lam, state, 1)
    with pytest.raises(ValueError, match=message):
        cr.weight_of(A2, word, lam, state)


@pytest.mark.parametrize(
    "lam", [(1.5, 0), (1.0, 1), (0, Fraction(1)), ("1", 0)], ids=["float", "whole-float", "fraction", "str"]
)
def test_weights_must_be_integers(lam):
    # a float weight once reached the packed statistics as AttributeError,
    # the Weyl dimension as a Cartan convention error, and f_op as a state
    calls = (
        lambda: cr.generate_b_lambda(A2, IA2, lam),
        lambda: weyl_dimension(A2, lam),
        lambda: cr.f_op(A2, IA2, lam, (0, 0, 0), 1),
        lambda: demazure_character(A2, longest_element(A2), lam),
    )
    for call in calls:
        with pytest.raises(ValueError, match="has an entry that is not an integer"):
            call()


def test_b_lambda_counts_and_polytope_crosscheck():
    assert cr.generate_b_lambda(A2, IA2, (0, 0)) == frozenset([(0, 0, 0)])
    for lam in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3)]:
        pts = cr.generate_b_lambda(A2, IA2, lam)  # internal polytope crosscheck
        assert len(pts) == weyl_dimension(A2, lam)
    for lam in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        pts = cr.generate_b_lambda(C2, IC2, lam)
        assert len(pts) == weyl_dimension(C2, lam)


def test_b_lambda_size_decodes_no_string(monkeypatch):
    # B(lambda) is a view of the full mask over the certified strings: its
    # size is a bit count, and it equals every view of the whole crystal
    def refuse(mask, points):
        raise AssertionError("decoded a mask")

    cases = [
        (A2, IA2, (0, 0)),
        (A2, (2, 1, 2), (2, 1)),
        (C2, IC2, (2, 1)),
        (C3, standard_word(C3), (1, 1, 1)),
    ]
    for datum, word, lam in cases:
        cr.record(datum, word, lam)
    monkeypatch.setattr(pt, "mask_points", refuse)
    for datum, word, lam in cases:
        points = cr.generate_b_lambda(datum, word, lam)
        assert isinstance(points, pt.PointSet)
        assert points.points is cr.record(datum, word, lam).strings
        assert len(points) == weyl_dimension(datum, lam)
        assert points == cr.demazure_crystal(datum, word, longest_element(datum), lam)


def test_string_coordinates_of_small_module():
    # the three string points of the first fundamental module, rank two
    assert sorted(cr.generate_b_lambda(A2, IA2, (1, 0))) == [
        (0, 0, 0),
        (0, 1, 1),
        (1, 0, 0),
    ]


def test_demazure_examples():
    rho = (1, 1)
    s1 = word_to_element(A2, (1,))
    w0 = longest_element(A2)
    e = identity_element(A2)
    assert cr.demazure_crystal(A2, IA2, e, rho) == frozenset([(0, 0, 0)])
    assert len(cr.demazure_crystal(A2, IA2, s1, rho)) == 2
    assert cr.demazure_crystal(A2, IA2, w0, rho) == cr.generate_b_lambda(A2, IA2, rho)
    assert cr.opposite_demazure_crystal(A2, IA2, e, rho) == cr.generate_b_lambda(A2, IA2, rho)
    low = _lowest(A2, IA2, rho)
    assert cr.opposite_demazure_crystal(A2, IA2, w0, rho) == frozenset(
        [cr.string_coords(A2, IA2, rho, low)]
    )
    # cross-validated by the face union and the character dimension
    assert len(cr.opposite_demazure_crystal(A2, IA2, s1, rho)) == 5


def test_demazure_word_independence():
    for datum, word in ((A2, IA2), (C2, IC2)):
        lam = (1, 2) if datum.rank == 2 else (1,) * datum.rank
        for w in all_elements(datum):
            sets = set()
            for rw in all_reduced_words(w):
                sets.add(ref.fold_demazure(datum, word, lam, rw))
            assert len(sets) == 1


def test_demazure_closedness():
    for datum, word, lam in ((A2, IA2, (2, 1)), (C2, IC2, (1, 1))):
        for w in all_elements(datum):
            dem = _fold_states(datum, word, w, lam, False)
            opp = _fold_states(datum, word, w, lam, True)
            for i in (1, 2):
                for s in dem:
                    up = cr.e_op(datum, word, lam, s, i)
                    assert up is None or up in dem
                for s in opp:
                    down = cr.f_op(datum, word, lam, s, i)
                    assert down is None or down in opp


def test_cardinality_duality():
    # |B^w(lam)| agrees with both closed translations to lower Demazure sets
    for datum, word in ((A2, IA2), (C2, IC2)):
        w0 = longest_element(datum)
        for lam in [(1, 1), (2, 1), (0, 2)]:
            # -w_0(lam): w_0 reverses the type A diagram and fixes type C
            star = lam[::-1] if datum.family == "A" else lam
            for w in all_elements(datum):
                opp = len(cr.opposite_demazure_crystal(datum, word, w, lam))
                assert opp == demazure_dimension(datum, multiply(w0, w), lam)
                assert opp == demazure_dimension(datum, multiply(w, w0), star)


def test_richardson():
    rho = (1, 1)
    e = identity_element(A2)
    w0 = longest_element(A2)
    assert cr.richardson_lattice_points(A2, IA2, e, w0, rho) == cr.generate_b_lambda(
        A2, IA2, rho
    )
    for w in all_elements(A2):
        inter = cr.richardson_lattice_points(A2, IA2, w, w, rho)
        assert len(inter) == 1
    s1 = word_to_element(A2, (1,))
    s2 = word_to_element(A2, (2,))
    e = identity_element(A2)
    assert cr.richardson_lattice_points(A2, IA2, e, s1, rho) == cr.demazure_crystal(
        A2, IA2, s1, rho
    )
    with pytest.raises(ValueError):
        cr.richardson_lattice_points(A2, IA2, s1, s2, rho)


def test_string_property():
    for datum, word in ((A2, IA2), (C2, IC2)):
        lam = (1, 1)
        for w in all_elements(datum):
            opp = _fold_states(datum, word, w, lam, True)
            for i in range(1, datum.rank + 1):
                for chain in ref.i_strings(datum, word, lam, i):
                    inter = [s for s in chain if s in opp]
                    assert inter in ([], list(chain), [chain[-1]])


def test_word_independence_of_counts():
    for datum, lam in ((A2, (2, 1)), (C2, (1, 1))):
        expect = weyl_dimension(datum, lam)
        for word in all_reduced_words(longest_element(datum)):
            pts = cr.generate_b_lambda(datum, word, lam)
            assert len(pts) == expect


def test_custom_word_needs_no_opt_in(monkeypatch):
    # any reduced word of w0 runs; only the standard word is cross-checked
    # against the string polytope
    def refuse(*args):
        raise AssertionError("a custom word reached the string polytope")

    monkeypatch.setattr(cr.polytopes, "string_polytope", refuse)
    assert not cr.is_certified_word(A2, (2, 1, 2))
    assert len(cr.generate_b_lambda(A2, (2, 1, 2), (1, 1))) == weyl_dimension(A2, (1, 1))
    w = word_to_element(A2, (1,))
    assert cr.demazure_crystal(A2, (2, 1, 2), w, (1, 1))
    assert cr.opposite_demazure_crystal(A2, (2, 1, 2), w, (1, 1))


def test_crystal_axioms_random():
    rng = random.Random(20240817)
    for datum, word in ((A2, IA2), (C2, IC2), (A3, standard_word(A3))):
        n = datum.rank
        alphas = [cr.simple_root_in_fundamental(datum, i) for i in range(1, n + 1)]
        for lam in (None, (1,) * n, (2,) + (0,) * (n - 1)):
            for _ in range(120):
                state = (0,) * len(word)
                for _ in range(rng.randrange(0, 15)):
                    i = rng.randrange(1, n + 1)
                    nxt = cr.f_op(datum, word, lam, state, i)
                    if nxt is not None:
                        state = nxt
                wt = cr.weight_of(datum, word, lam, state)
                for i in range(1, n + 1):
                    eps = cr.epsilon(datum, word, lam, state, i)
                    phi = cr.phi(datum, word, lam, state, i)
                    assert phi == eps + wt[i - 1]
                    down = cr.f_op(datum, word, lam, state, i)
                    if down is not None:
                        assert cr.weight_of(datum, word, lam, down) == tuple(
                            a - b for a, b in zip(wt, alphas[i - 1])
                        )
                        assert cr.epsilon(datum, word, lam, down, i) == eps + 1
                        assert cr.phi(datum, word, lam, down, i) == phi - 1
                        assert cr.e_op(datum, word, lam, down, i) == state
                    up = cr.e_op(datum, word, lam, state, i)
                    if up is not None:
                        assert cr.f_op(datum, word, lam, up, i) == state
                        assert cr.epsilon(datum, word, lam, up, i) == eps - 1


def test_lowest_state_unique():
    low = _lowest(A2, IA2, (1, 1))
    for i in (1, 2):
        assert cr.f_op(A2, IA2, (1, 1), low, i) is None


def test_bruhat_agrees_with_opposite_containment():
    # cross-module property: the order is detected by containment of the
    # raising-closed subsets at a regular weight
    for datum, word in ((A2, IA2), (C2, IC2)):
        lam = (1, 1)
        sets = {
            w: cr.opposite_demazure_crystal(datum, word, w, lam) for w in all_elements(datum)
        }
        for v in all_elements(datum):
            for w in all_elements(datum):
                assert bruhat_leq(v, w) == (sets[w] <= sets[v])


def test_corrupt_element_detected():
    with pytest.raises(cr.CorruptElementError):
        cr.f_op(C2, IC2, None, (0, 0, 0, 5), 1)


@pytest.mark.parametrize(
    "datum, word, lam, state, i",
    [
        (A2, IA2, (1, 0), (0, 0, 2), 1),
        (A2, IA2, cr.INFINITY, (0, 0, 2), 1),
        (C2, IC2, cr.INFINITY, (0, 0, 0, 1), 2),
    ],
)
def test_raise_onto_a_zero_coordinate_is_detected(datum, word, lam, state, i):
    # states outside the crystal whose raising argmax is a zero coordinate:
    # the raise would hand back a negative one
    with pytest.raises(cr.CorruptElementError, match="zero coordinate"):
        cr.e_op(datum, word, lam, state, i)


def test_demazure_word_independence_rank_three():
    word = standard_word(A3)
    lam = (1, 0, 1)
    for w in all_elements(A3):
        sets = set()
        for rw in all_reduced_words(w):
            sets.add(ref.fold_demazure(A3, word, lam, rw))
        assert len(sets) == 1


def test_string_table_matches_per_state_route():
    for datum, lam in ((C2, (2, 2)), (C3, (1, 1, 1)), (A4, (1, 1, 1, 1))):
        word = standard_word(datum)
        states = ref.table_states(datum, word, lam)
        table = cr._string_table(cr._operator_table(datum, word, lam), word)
        expected = {s: ref.string_coords(datum, word, lam, s) for s in states}
        assert dict(zip(states, table)) == expected
        assert {s: cr.string_coords(datum, word, lam, s) for s in states} == expected


def _with_planted_state(table, datum, word, lam, planted):
    """The table with one more state, an index unreached by any operator,
    whose eps are those of the planted coordinates."""
    return table._replace(
        down=tuple(row + (-1,) for row in table.down),
        up=tuple(row + (-1,) for row in table.up),
        eps=tuple(
            row + array(row.typecode, [cr.epsilon(datum, word, lam, planted, i)])
            for i, row in enumerate(table.eps, start=1)
        ),
    )


def test_string_table_rejects_non_normal_state(monkeypatch):
    table = cr._operator_table(A2, IA2, (1, 0))
    planted = _with_planted_state(table, A2, IA2, (1, 0), (5, 5, 5))
    # generate_b_lambda reads the strings off the cached record
    cr._crystal.cache_clear()
    monkeypatch.setattr(cr, "_operator_table", lambda datum, word, lam: planted)
    try:
        with pytest.raises(InvariantError, match="^non-normal state"):
            cr.generate_b_lambda(A2, IA2, (1, 0))
    finally:
        monkeypatch.undo()
        cr._crystal.cache_clear()


# the exported string sets besides B(lambda), as the CLI `crystal --kind`
# reads them, at A2 (1, 0)
EXPORTED_STRINGS = {
    "demazure_crystal": lambda: cr.demazure_crystal(A2, IA2, longest_element(A2), (1, 0)),
    "opposite_demazure_crystal": lambda: cr.opposite_demazure_crystal(
        A2, IA2, identity_element(A2), (1, 0)),
    "richardson_lattice_points": lambda: cr.richardson_lattice_points(
        A2, IA2, identity_element(A2), longest_element(A2), (1, 0)),
    "string_coords": lambda: cr.string_coords(A2, IA2, (1, 0), (0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(EXPORTED_STRINGS))
def test_exported_strings_are_certified(monkeypatch, name):
    # the strings of A2 at (1, 0) are (0, 0, 0), (1, 0, 0) and (0, 1, 1);
    # the last one moved past the lambda row a_3 <= 1 reaches no caller
    strings = cr._crystal(A2, IA2, (1, 0)).strings
    assert strings[2] == (0, 1, 1)
    cr._crystal.cache_clear()
    planted = ref.pack_strings(strings[:2] + ((0, 1, 2),))
    monkeypatch.setattr(cr, "_string_table", lambda table, word: planted)
    try:
        with pytest.raises(cr.CrystalPolytopeMismatchError, match=r"string \(0, 1, 2\) lies outside"):
            EXPORTED_STRINGS[name]()
    finally:
        monkeypatch.undo()
        cr._crystal.cache_clear()


def _incidence_cases():
    cases = [
        pytest.param(RootDatum(f, r), standard_word(RootDatum(f, r)), lam, id="%s%d-%s" % (f, r, lam))
        for f, r, lam in ref.INCIDENCE_CASES
    ]
    for datum, lam in ((A3, (1, 1, 1)), (C2, (2, 1))):
        word = ref.other_word(datum)
        cases.append(pytest.param(datum, word, lam, id="%s%d-word-%s-%s" % (
            datum.family, datum.rank, "".join(map(str, word)), lam)))
    return cases


@pytest.mark.parametrize("datum, word, lam", _incidence_cases())
def test_string_incidence_matches_the_enumeration_route(datum, word, lam):
    # the same points, each tight on the same rows, as the lattice-point
    # enumeration (or, off the standard word, the sorted strings)
    _, points, masks, *_ = cr.record(datum, word, lam)
    expected_points, expected_masks = ref.enumerated_string_incidence(datum, word, lam)
    assert len(points) == len(expected_points)
    assert len(masks) == len(expected_masks)
    assert ref.tight_rows_by_point(points, masks) == ref.tight_rows_by_point(expected_points, expected_masks)


def test_every_facet_block_has_a_common_string_on_every_reduced_word():
    # the block certificate of the record holds on all 16 reduced
    # words of w0 in A3 and all 42 in C3: one block (the lambda rows) off the
    # standard word, two (the lambda rows, the cone rows) on it
    for datum, words in ((A3, 16), (C3, 42)):
        lam = (1,) * datum.rank
        size = datum.num_positive_roots
        found = all_reduced_words(longest_element(datum))
        assert len(found) == words
        for word in found:
            masks = cr.record(datum, word, lam).masks
            blocks = [masks[lo : lo + size] for lo in range(0, len(masks), size)]
            assert len(blocks) == (2 if word == standard_word(datum) else 1)
            assert all(reduce(operator.and_, block) for block in blocks), word


def test_certified_path_never_enumerates_a_string_polytope(monkeypatch):
    enumerated = []
    lattice_points = pt.lattice_points

    def recording(p):
        enumerated.append(p)
        return lattice_points(p)

    monkeypatch.setattr(pt, "lattice_points", recording)
    for datum, lam in ((A3, (1, 1, 1)), (C2, (2, 1))):
        word = standard_word(datum)
        cr._crystal.cache_clear()
        assert len(cr.generate_b_lambda(datum, word, lam)) == weyl_dimension(datum, lam)
        cr._crystal.cache_clear()
        for w in all_elements(datum):
            fc.opposite_demazure_faces(datum, w, lam)
            fc.demazure_faces(datum, w, lam)
        assert pt.string_polytope(datum, lam) not in enumerated


TABLE_CASES = ((A2, (2, 1)), (C2, (1, 1)), (A3, (1, 1, 1)), (C3, (1, 1, 1)))
# regular and non-regular weights, a 4,096-state crystal, and one
# non-standard word
OPERATOR_CASES = (
    [(datum, standard_word(datum), lam) for datum, lam in TABLE_CASES]
    + [
        (datum, standard_word(datum), lam)
        for datum, lam in ((A1, (3,)), (A3, (3, 3, 3)), (C3, (2, 0, 1)), (A4, (1, 0, 1, 0)))
    ]
    + [(A3, ref.other_word(A3), (2, 0, 1))]
)


def test_operator_table_matches_operators():
    for datum, word, lam in OPERATOR_CASES:
        table = cr._operator_table(datum, word, lam)
        states = ref.table_states(datum, word, lam)
        assert cr.crystal_states(datum, word, lam) == ref.bfs_states(datum, word, lam)
        assert states[0] == (0,) * len(word)
        assert len(set(states)) == len(states)
        assert _lowest(datum, word, lam) == ref.lowest(datum, word, lam)

        def state(k):
            return None if k < 0 else states[k]

        for i in range(1, datum.rank + 1):
            for k, s in enumerate(states):
                assert state(table.down[i - 1][k]) == cr.f_op(datum, word, lam, s, i)
                assert state(table.up[i - 1][k]) == cr.e_op(datum, word, lam, s, i)
                assert table.eps[i - 1][k] == cr.epsilon(datum, word, lam, s, i)
    assert len(cr._operator_table(A3, standard_word(A3), (3, 3, 3)).down[0]) == 4096


def _check_packed_table(datum, word, lam) -> tuple:
    """Check the packed table of (datum, word, lam) against the tuple BFS of
    `f_op`, and return the BFS states."""
    table = cr._operator_table(datum, word, lam)
    states = ref.table_states(datum, word, lam, table)
    expected = ref.bfs_states(datum, word, lam)
    assert tuple(sorted(states)) == expected
    assert cr.crystal_states(datum, word, lam) == expected
    assert states[0] == (0,) * len(word)
    assert {len(row) for row in table.down + table.up + table.eps} == {len(expected)}
    assert states[table.lowest] == ref.lowest(datum, word, lam, expected)
    assert sum(states[table.lowest]) == table.depth
    assert table.depth < 1 << 8 * table.eps[0].itemsize
    return expected


def test_packed_table_matches_tuple_bfs():
    for datum, word, lam in OPERATOR_CASES:
        _check_packed_table(datum, word, lam)
    # the zero weight, of depth 0: one state in fields of one bit
    for datum in (A1, A2, C3):
        assert _check_packed_table(datum, standard_word(datum), (0,) * datum.rank) == (
            (0,) * datum.num_positive_roots,
        )
    # a coordinate past one byte (45,451 states), and past two (70,001)
    for datum, lam, past in ((A2, (300, 0), 255), (A1, (70000,), 65535)):
        expected = _check_packed_table(datum, standard_word(datum), lam)
        assert max(map(max, expected)) > past
        assert len(expected) == weyl_dimension(datum, lam)


def test_packed_statistics_table_matches_the_list_statistics_reference():
    # every field of the table, against the build that carries each state's
    # statistics as a list and takes every (state, letter) decision afresh:
    # every weight in a box per datum, both words of A3 and C2, two deep
    # crystals, and a coordinate past one byte
    cases = [
        (datum, word, lam)
        for datum, top, words in (
            (A1, 4, ()),
            (A2, 3, ()),
            (A3, 2, (ref.other_word(A3),)),
            (A4, 1, ()),
            (C2, 3, (ref.other_word(C2),)),
            (C3, 1, ()),
        )
        for word in (standard_word(datum), *words)
        for lam in itertools.product(range(top + 1), repeat=datum.rank)
    ]
    cases += [(datum, standard_word(datum), lam) for datum, lam in ((A3, (3, 3, 3)), (C3, (2, 2, 2)), (A2, (300, 0)))]
    for datum, word, lam in cases:
        table = cr._operator_table(datum, word, lam)
        decoded = table._replace(eps=tuple(map(tuple, table.eps)))
        assert decoded == ref.list_statistics_table(datum, word, lam)[0], (datum, word, lam)
    # the last case's table, A2 at (300, 0)
    assert max(map(max, ref.table_states(A2, IA2, (300, 0), table))) > 255


def test_string_coords_refuses_a_state_that_packs_onto_another():
    # A2 at (1, 0) has depth 2 and fields of one byte: packed into them, a
    # trailing zero put (1, 1, 0, 0) onto the key 257 of (1, 1, 0), and (1,)
    # onto the key 1 of (1, 0, 0); a negative coordinate fits no field.  A
    # malformed state is refused as `f_op` refuses it, with ValueError; a
    # well-formed one past the depth is not in the table, an internal fault,
    # refused before any raise however far past the depth it is
    assert cr.string_coords(A2, IA2, (1, 0), (1, 1, 0)) == (0, 1, 1)
    for state in ((5, 0, 0), (10**9, 0, 0)):
        with pytest.raises(InvariantError, match="^non-normal state"):
            cr.string_coords(A2, IA2, (1, 0), state)
    for state, message in (
        ((-3, 2, 0), "negative coordinate"),
        ((1, -3, 1), "negative coordinate"),
        ((1, 1, 0, 0), "does not have the 3 coordinates"),
        ((1,), "does not have the 3 coordinates"),
    ):
        with pytest.raises(ValueError, match=message):
            cr.string_coords(A2, IA2, (1, 0), state)


def test_string_coords_of_every_state_are_the_record_strings_in_table_order():
    # each state is raised to state 0 by the sweep and found by walking the
    # raises back down the table; a well-formed state within the depth that
    # the crystal lacks is still refused
    word, lam = standard_word(A3), (3, 3, 3)
    rec = cr.record(A3, word, lam)
    states = ref.table_states(A3, word, lam)
    assert len(states) == 4096
    assert tuple(cr.string_coords(A3, word, lam, state) for state in states) == tuple(rec.strings)
    members = set(states)
    outside = next(s for s in itertools.product(range(rec.table.depth + 1), repeat=len(word)) if s not in members)
    with pytest.raises(InvariantError, match="^non-normal state"):
        cr.string_coords(A3, word, lam, outside)


EVERY_TUPLE_CASES = ((A2, IA2, (1, 0)), (A2, IA2, (2, 1)), (C2, IC2, (1, 1)), (A2, (2, 1, 2), (2, 1)))


@pytest.mark.parametrize(
    "datum, word, lam",
    EVERY_TUPLE_CASES,
    ids=["%s%d-%s-%s" % (d.family, d.rank, "".join(map(str, w)), l) for d, w, l in EVERY_TUPLE_CASES],
)
def test_string_coords_of_every_tuple_up_to_one_past_the_depth(datum, word, lam):
    # every tuple of [0, depth + 1]^N: a state of the crystal gets the
    # string of the per-state raising route, and every other tuple, whether
    # its raises stop short of zero, land on a zero coordinate or leave the
    # table, is refused as non-normal
    depth = cr.record(datum, word, lam).table.depth
    members = set(ref.bfs_states(datum, word, lam))
    assert len(members) == weyl_dimension(datum, lam)
    for state in itertools.product(range(depth + 2), repeat=len(word)):
        if state in members:
            assert cr.string_coords(datum, word, lam, state) == ref.string_coords(datum, word, lam, state)
        else:
            with pytest.raises(InvariantError, match="^non-normal state"):
                cr.string_coords(datum, word, lam, state)


def test_the_operator_table_keeps_no_coordinates():
    # the build keys each state by its statistics, so the table is its
    # index columns, eps and lowest index, and the readers replay coordinates
    assert cr._OperatorTable._fields == ("depth", "down", "up", "eps", "lowest")


def test_the_witness_refuses_lowering_columns_under_the_wrong_letters(monkeypatch):
    # the lowering columns of A2 at (1, 0) handed to the table under each
    # other's letter: the replay from state 0 asks the sweep for f_2 of the
    # highest state, which the cutoff kills, so the path never reaches the
    # lowest state in depth steps
    true = cr._OperatorTable
    monkeypatch.setattr(cr, "_OperatorTable", lambda depth, down, *rest: true(depth, down[::-1], *rest))
    with pytest.raises(InvariantError, match="do not sum to the depth 2"):
        cr._operator_table(A2, IA2, (1, 0))
    monkeypatch.undo()
    assert cr._operator_table(A2, IA2, (1, 0)).down == ((1, -1, -1), (-1, 2, -1))


def _planted_layout(monkeypatch, position, field, bump):
    """The statistics layout with the move of one word position changed by
    bump in one field.  On the word (1, 2, 1) of A2 the fields are the
    letter-1 sigmas of positions 1 and 3, <wt, h_1>, the letter-2 sigma of
    position 2 and <wt, h_2>."""
    monkeypatch.undo()
    true = cr._statistics_layout

    def planted(datum, word, bits):
        letters, moves = true(datum, word, bits)
        bad = list(moves)
        bad[position] += bump << bits * field
        return letters, tuple(bad)

    monkeypatch.setattr(cr, "_statistics_layout", planted)


def test_operator_table_rejects_corrupt_statistics(monkeypatch):
    # lowering at word position 1 moves <wt, h_1> one too far, so the state
    # it makes has phi_1 < 0; or it moves the letter-2 sigma of position 2,
    # which lies after it, so that state's only letter-2 sigma is negative
    # while its phi_2 is not
    try:
        _planted_layout(monkeypatch, 0, 2, -1)
        with pytest.raises(cr.CorruptElementError, match="negative phi"):
            cr._operator_table(A2, IA2, (1, 1))
        _planted_layout(monkeypatch, 0, 3, -1)
        with pytest.raises(cr.CorruptElementError, match="argmin beyond"):
            cr._operator_table(A2, IA2, (1, 1))
        # the first lowering leaves <wt, h_2> unchanged: two states are killed
        # by every letter
        _planted_layout(monkeypatch, 0, 4, -1)
        with pytest.raises(InvariantError, match="lowest element not unique"):
            cr._operator_table(A2, IA2, (1, 1))
    finally:
        monkeypatch.undo()


def test_invert_rejects_non_injective_lowering():
    assert cr._invert((1, 2, -1), range(3)) == [-1, 0, 1]
    with pytest.raises(InvariantError, match="not injective"):
        cr._invert((2, 2, -1), range(3))


def test_table_readers_match_reference_routes():
    cases = [(datum, standard_word(datum), lam) for datum, lam in TABLE_CASES]
    cases.append((A3, ref.other_word(A3), (1, 0, 1)))
    cases.append((C2, ref.other_word(C2), (2, 1)))
    for datum, word, lam in cases:
        assert _lowest(datum, word, lam) == ref.lowest(datum, word, lam)
        for w in all_elements(datum):
            assert _fold_states(datum, word, w, lam, False) == ref.fold_demazure(
                datum, word, lam, reduced_word(w)
            )
            assert _fold_states(datum, word, w, lam, True) == ref.fold_opposite(
                datum, word, lam, w
            )


def test_folds_through_every_descent_and_ascent():
    # Kashiwara's recursion holds at every left descent (B_w) and every left
    # ascent (B^w), not only at the one the folds choose
    word = standard_word(A3)
    for lam in ((1, 1, 1), (2, 0, 1)):
        record = cr._crystal(A3, word, lam)
        for w in all_elements(A3):
            for i in range(1, A3.rank + 1):
                v = left_mul(i, w)
                opposite = length(v) > length(w)
                step = (record.table.up if opposite else record.table.down)[i - 1]
                assert cr._closure(step, cr.fold(record, v, opposite)) == cr.fold(record, w, opposite)


def test_folds_reject_other_group():
    with pytest.raises(ValueError, match="different groups"):
        cr.demazure_crystal(A2, IA2, longest_element(A3), (1, 1))
    with pytest.raises(ValueError, match="different groups"):
        cr.opposite_demazure_crystal(A2, IA2, identity_element(A3), (1, 1))


def test_one_crystal_costs_one_record_miss():
    # every reader of one (datum, word, lam), weight and word given as tuples
    # or lists, reads the one record: its table, strings, masks and folds
    lam, s1, w0 = (2, 1), word_to_element(A2, (1,)), longest_element(A2)
    cr._crystal.cache_clear()
    cr.generate_b_lambda(A2, IA2, lam)
    cr.demazure_crystal(A2, list(IA2), s1, lam)
    cr.opposite_demazure_crystal(A2, IA2, s1, list(lam))
    cr.richardson_lattice_points(A2, IA2, s1, w0, lam)
    cr.string_coords(A2, IA2, lam, (1, 1, 0))
    cr.crystal_states(A2, IA2, lam)
    fc.opposite_demazure_faces(A2, s1, lam)
    fc.demazure_faces(A2, s1, lam)
    info = cr._crystal.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


class _CountingRow(tuple):
    """A table row that counts the reads of its entries."""

    reads = 0

    def __getitem__(self, k):
        _CountingRow.reads += 1
        return tuple.__getitem__(self, k)


def test_string_table_reads_each_raise_about_once():
    # A2 at (0, 200) along (1, 2, 1): the 1-highest states, the second
    # level, hold the 2-string of the highest weight, 201 states long.  Each
    # state's top there is read off its parent's, not walked to afresh
    # (about 201^2 = 40,000 reads of the letter-2 raising column)
    word, lam = (1, 2, 1), (0, 200)
    table = cr._operator_table(A2, word, lam)
    level = sum(parent < 0 for parent in table.up[0])
    counting = table._replace(up=(table.up[0], _CountingRow(table.up[1])))
    _CountingRow.reads = 0
    strings = cr._string_table(counting, word)
    assert list(strings) == list(cr._string_table(table, word))
    assert level == 201 and 0 < _CountingRow.reads <= 2 * level


def test_folds_are_filed_in_the_record_and_built_again_after_a_clear(monkeypatch):
    # a fold walks Kashiwara's recursion once, filing each mask on its way
    # under its own side; a cleared cache drops the record and its folds
    lam, w = (1, 1), word_to_element(A2, (2, 1))
    chain = [w, word_to_element(A2, (1,)), identity_element(A2)]
    closures = []
    closure = cr._closure
    monkeypatch.setattr(cr, "_closure", lambda step, members: closures.append(step) or closure(step, members))
    for _ in range(2):
        cr._crystal.cache_clear()
        expected = ref.fold_demazure(A2, IA2, lam, reduced_word(w))
        assert _fold_states(A2, IA2, w, lam, False) == expected
        assert len(closures) == 2
        demazure, opposite = cr._crystal(A2, IA2, lam).folds
        assert set(demazure) == set(chain) and not opposite
        assert _fold_states(A2, IA2, w, lam, False) == expected
        assert len(closures) == 2
        closures.clear()
    # the other side of the same w is its own fold: B^w for w = s_2 s_1
    assert _fold_states(A2, IA2, w, lam, True) == ref.fold_opposite(A2, IA2, lam, w)
    assert w in cr._crystal(A2, IA2, lam).folds[True]


def test_the_record_holds_the_strings_it_certified(monkeypatch):
    # one string table per record: the strings the record hands out are the
    # very packed strings whose bytes the rows' containment was read off
    built, read = [], []
    string_table, columns = cr._string_table, pt.strided_columns
    monkeypatch.setattr(cr, "_string_table", lambda table, word: built.append(string_table(table, word)) or built[-1])
    monkeypatch.setattr(pt, "strided_columns", lambda packed, *layout: read.append(packed) or columns(packed, *layout))
    for word in (IA2, (2, 1, 2)):
        cr._crystal.cache_clear()
        built.clear()
        read.clear()
        record = cr._crystal(A2, word, (1, 1))
        assert len(built) == len(read) == 1
        assert record.strings is built[0] and record.strings.packed is read[0]
    cr._crystal.cache_clear()


def _record_rows(datum, word, lam):
    """The rows of the record's masks: the string polytope's on the standard
    word, the lambda-bound ones on any other."""
    if word == standard_word(datum):
        return pt.string_polytope(datum, lam).ineqs
    facets = (pt.string_lambda_facet(datum, word, j) for j in range(1, len(word) + 1))
    return [(vec, sum(map(operator.mul, lam_vec, lam))) for vec, lam_vec in facets]


# (datum, word, lam, sample): a coordinate past one byte on A1 (300,), of
# depth 300, so fields of two bytes; a non-standard word; and C4 rho, of
# 65,536 strings, whose strings and masks are checked on a seeded sample
PACKED_PANEL = (
    (A1, standard_word(A1), (300,), None),
    (A2, IA2, (2, 1), None),
    (C2, IC2, (3, 1), None),
    (A3, ref.other_word(A3), (2, 0, 1), None),
    (C3, standard_word(C3), (2, 0, 1), None),
    (RootDatum("C", 4), standard_word(RootDatum("C", 4)), (1, 1, 1, 1), 300),
)


@pytest.mark.parametrize(
    "datum, word, lam, sample",
    PACKED_PANEL,
    ids=["%s%d-%s-%s" % (d.family, d.rank, "".join(map(str, w)), l) for d, w, l, _ in PACKED_PANEL],
)
def test_packed_record_matches_the_tuple_routes(datum, word, lam, sample):
    # the table's columns are the list-statistics build's, the eps held as
    # unsigned items that hold the depth; the decoded strings are the
    # per-state raising route's, and the masks the exact dot products over them
    rec = cr.record(datum, word, lam)
    table = rec.table
    assert table._replace(eps=tuple(map(tuple, table.eps))) == ref.list_statistics_table(datum, word, lam)[0]
    assert {row.typecode for row in table.eps} == {"B" if table.depth < 256 else "H"}
    states = ref.table_states(datum, word, lam)
    picked = range(len(states)) if sample is None else sorted(random.Random(44).sample(range(len(states)), sample))
    strings = [ref.string_coords(datum, word, lam, states[k]) for k in picked]
    decoded = list(rec.strings)
    assert [decoded[k] for k in picked] == [rec.strings[k] for k in picked] == strings
    masks = tuple(sum((mask >> k & 1) << i for i, k in enumerate(picked)) for mask in rec.masks)
    assert masks == ref.column_tight_bits(_record_rows(datum, word, lam), strings)


# (datum, lam, sample): one-byte eps and strings on A3, C3 and A4, two-byte
# ones and 16-bit statistics on A1 (300,); the statistics, the per-state
# strings and the masks of C3 (2, 2, 2), of 19,683 states, and of C4 rho, of
# 65,536, are checked on a seeded sample, and the folds of C4 rho too
CODEC_PANEL = (
    (A1, (300,), None),
    (A3, (3, 3, 3), None),
    (C3, (2, 2, 2), 1000),
    (A4, (1, 1, 1, 1), None),
    (RootDatum("C", 4), (1, 1, 1, 1), 300),
)


def _index_fold(table, w, opposite, memo):
    """The fold of w as a frozenset of table indices, by the recursion of
    `fold` run on frozensets over the table's columns."""
    if (w, opposite) not in memo:
        letters = left_ascents(w) if opposite else left_descents(w)
        if letters:
            step = (table.up if opposite else table.down)[letters[0] - 1]
            memo[w, opposite] = ref._index_closure(step, _index_fold(table, left_mul(letters[0], w), opposite, memo))
        else:
            memo[w, opposite] = frozenset([table.lowest if opposite else 0])
    return memo[w, opposite]


@pytest.mark.parametrize(
    "datum, lam, sample", CODEC_PANEL, ids=["%s%d-%s" % (d.family, d.rank, l) for d, l, _ in CODEC_PANEL]
)
def test_the_field_codec_matches_the_parent_routes(datum, lam, sample):
    # the replayed states, the strings and statistics against the bit-field
    # keys of the list-statistics build and the shift-and-mask decodes that
    # the codec replaced
    word = standard_word(datum)
    rec = cr.record(datum, word, lam)
    table = rec.table
    key_bits = ref.parent_key_bits(table.depth)
    parent, parent_states = ref.list_statistics_table(datum, word, lam, key_bits)
    assert (table.down, table.up, table.lowest, table.depth) == (parent.down, parent.up, parent.lowest, parent.depth)
    assert tuple(map(tuple, table.eps)) == parent.eps
    states = ref.table_states(datum, word, lam)
    assert states == parent_states
    assert cr.crystal_states(datum, word, lam) == tuple(sorted(states))
    picked = range(len(states)) if sample is None else sorted(random.Random(45).sample(range(len(states)), sample))
    # each letter's statistics, stored as v + 2^(bits - 1), decoded
    bits = ref.statistics_bits(datum, lam)
    letters, _ = cr._statistics_layout(datum, word, bits)
    slots = ref.list_statistics_layout(datum, word)[0]
    for k in picked:
        stats = ref.list_statistics(datum, word, lam, states[k])
        for (*_, tops, _), (lo, hi, slot) in zip(letters, slots):
            values = stats[lo:hi] + [stats[slot]]
            group = ref.pack_bits([v + (1 << bits - 1) for v in values], bits)
            assert list(cr._fields(group, tops, bits)) == values
    # the strings, every one decoded field by field, and the masks over them
    size = rec.strings.size
    assert list(rec.strings) == [ref.unpack_bits(s, 8 * size, len(word)) for s in rec.strings.packed]
    strings = [ref.string_coords(datum, word, lam, states[k]) for k in picked]
    assert [rec.strings[k] for k in picked] == strings
    masks = tuple(sum((mask >> k & 1) << i for i, k in enumerate(picked)) for mask in rec.masks)
    assert masks == ref.column_tight_bits(_record_rows(datum, word, lam), strings)
    # the folds of every element, or of a seeded few, both sides
    elements = sorted(all_elements(datum), key=str)
    if len(states) > 50000:
        elements = random.Random(45).sample(elements, 4)
    memo = {}
    for w in elements:
        for opposite in (False, True):
            expected = sum(1 << k for k in _index_fold(parent, w, opposite, memo))
            assert cr.fold(rec, w, opposite) == expected, (w, opposite)


def test_record_strings_decode_slices():
    strings = cr.record(A2, IA2, (1, 0)).strings
    assert strings[:2] == ((0, 0, 0), (1, 0, 0)) and strings[::-1] == tuple(reversed(list(strings)))


@pytest.mark.parametrize(
    "datum, lam", [(A2, (2, 1)), (C2, (3, 1)), (C3, (2, 0, 1)), (A1, (300,))], ids=["A2", "C2", "C3", "A1-300"]
)
def test_bulk_decode_is_the_per_index_decode(datum, lam):
    # iteration and slices read the strings through index access, which
    # unpacks one string field by field; A1 (300,) has fields of two bytes
    strings = cr.record(datum, standard_word(datum), lam).strings
    assert strings.size == (2 if datum == A1 else 1)
    each = [strings[k] for k in range(len(strings))]
    assert each == [ref.unpack_bits(s, 8 * strings.size, strings.length) for s in strings.packed]
    assert all(type(s) is tuple and len(s) == strings.length for s in each)
    assert list(strings) == each and list(reversed(strings)) == each[::-1]
    assert strings[1::3] == tuple(each[1::3]) and strings[5:2:-1] == tuple(each[5:2:-1]) and strings[3:3] == ()
    assert strings[-3:] == tuple(each[-3:]) and strings[::-2] == tuple(each[::-2]) and strings[-1] == each[-1]


@pytest.mark.parametrize(
    "family, rank, lam", ref.LIST_ROUTE_CASES, ids=["%s%d-%s" % case for case in ref.LIST_ROUTE_CASES]
)
def test_record_masks_are_the_list_route_masks(family, rank, lam):
    # the masks read off the strings' bytes, widened in byte lanes, are the
    # list route's over the decoded strings, and no string is outside
    datum = RootDatum(family, rank)
    rec = cr.record(datum, standard_word(datum), lam)
    rows = pt.string_polytope(datum, lam).ineqs
    assert pt.slack_masks(rows, list(rec.strings)) == (rec.masks, 0)


def test_point_sets_over_the_packed_strings_iterate_the_decoded_tuples_in_order():
    # every fold of A3 at (2, 1, 1) and the full mask, as views over the
    # packed strings and over their decoded tuple
    word, lam = standard_word(A3), (2, 1, 1)
    rec = cr.record(A3, word, lam)
    decoded = tuple(ref.string_coords(A3, word, lam, s) for s in ref.table_states(A3, word, lam))
    masks = [(1 << len(decoded)) - 1]
    masks += [cr.fold(rec, w, opposite) for w in all_elements(A3) for opposite in (False, True)]
    for mask in masks:
        view = pt.PointSet(mask, rec.strings)
        expected = [s for k, s in enumerate(decoded) if mask >> k & 1]
        assert list(view) == expected
        assert all(s in view for s in expected) and len(view) == len(expected)
        assert view == pt.PointSet(mask, decoded)


def test_string_table_refuses_a_first_level_state_off_its_parent_string():
    # A2 at (1, 0), strings (0, 0, 0), (1, 0, 0) and (0, 1, 1): eps_1 of state
    # 2, the top of its 1-string, made 1, which no parent gives.  Only the
    # first level reads it: the last, of letter 1 too, meets states 0 and 1
    table = cr._operator_table(A2, IA2, (1, 0))
    assert tuple(table.eps[0]) == (0, 1, 0) and table.up[0][2] == -1
    planted = table._replace(eps=(array("B", (0, 1, 1)), table.eps[1]))
    with pytest.raises(InvariantError, match="^non-normal state"):
        cr._string_table(planted, IA2)


def test_string_table_refuses_two_states_with_one_string():
    # a copy of state 2 of A2 at (1, 1), no operator reaching it, with the
    # raising indices and eps of the original: it passes every level, and
    # only the packed strings' injectivity sees it
    table = cr._operator_table(A2, IA2, (1, 1))
    planted = table._replace(
        down=tuple(row + (-1,) for row in table.down),
        up=tuple(row + (row[2],) for row in table.up),
        eps=tuple(row + row[2:3] for row in table.eps),
    )
    with pytest.raises(InvariantError, match="not injective"):
        cr._string_table(planted, IA2)


def test_string_table_refuses_fields_narrower_than_the_depth():
    # one-byte items hold the depth 255 of A1 at (255,) and not 256, past
    # which a string coordinate could carry into the next field
    table = cr._operator_table(A1, standard_word(A1), (255,))
    assert table.depth == 255 and table.eps[0].typecode == "B"
    assert len(cr._string_table(table, standard_word(A1))) == 256
    with pytest.raises(InvariantError, match="do not hold the depth 256"):
        cr._string_table(table._replace(depth=256), standard_word(A1))
    assert cr._operator_table(A1, standard_word(A1), (256,)).eps[0].typecode == "H"


def test_the_record_of_c3_at_2_2_2_holds_at_most_4_5_mb():
    # the bytes that the record of C3 at (2, 2, 2), 19,683 strings, holds
    # once built, the caches of the group warm: 2.6 MB measured, 3.5 MB with
    # a key column in its table, which this bound was set for with a margin
    # of about 30%; the record of tuple strings and eps held 7.1 MB
    word, lam = standard_word(C3), (2, 2, 2)
    cr.record(C3, word, lam)
    cr._crystal.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        cr.record(C3, word, lam)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 4.5e6, held


def test_the_operator_table_of_c3_at_2_2_2_holds_at_most_2_mb():
    # the bytes that the operator table of C3 at (2, 2, 2), 19,683 states,
    # holds once built, the caches of the group warm: 1.7 MB measured; with
    # a column of packed coordinates it held 2.6 MB
    word, lam = standard_word(C3), (2, 2, 2)
    cr._operator_table(C3, word, lam)
    gc.collect()
    tracemalloc.start()
    try:
        table = cr._operator_table(C3, word, lam)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.down[0]) == 19683
    assert held <= 2.0e6, held


NON_INTEGER_STATES = ((0.0, 0, 0), (0.5, 0, 0), (1, Fraction(1), 0))


@pytest.mark.parametrize("state", NON_INTEGER_STATES, ids=str)
def test_one_state_operators_refuse_a_non_integer_state(state):
    # as weights are refused: 0.0 is not lowered to (1.0, 0, 0), 0.5 gets no
    # weight, and string_coords refuses before it packs
    for lam in ((1, 1), cr.INFINITY):
        for op in (cr.f_op, cr.e_op, cr.epsilon, cr.phi):
            with pytest.raises(ValueError, match="not an integer"):
                op(A2, IA2, lam, state, 1)
        with pytest.raises(ValueError, match="not an integer"):
            cr.weight_of(A2, IA2, lam, state)
    with pytest.raises(ValueError, match="not an integer"):
        cr.string_coords(A2, IA2, (1, 1), state)


def test_letters_out_of_range_rejected():
    state = (0, 1, 0)
    for op in (cr.f_op, cr.e_op, cr.epsilon, cr.phi):
        for lam in ((1, 1), cr.INFINITY):
            for i in (0, -1, 3):
                with pytest.raises(ValueError, match="out of range"):
                    op(A2, IA2, lam, state, i)


def test_crystal_at_infinity_has_no_table():
    with pytest.raises(ValueError, match="infinite"):
        cr.crystal_states(A2, IA2, cr.INFINITY)


def test_sigma_profile_matches_definition():
    # the crystal states, plus a box of tuples outside it where every letter-i
    # sigma can be negative and no position attains the max
    for datum, lam in ((A2, (2, 1)), (C2, (1, 1))):
        word = standard_word(datum)
        box = itertools.product(range(3), repeat=len(word))
        for state in set(cr.crystal_states(datum, word, lam)).union(box):
            for i in range(1, datum.rank + 1):
                sigmas = {
                    k: ref.sigma(datum, word, state, k)
                    for k in range(1, len(word) + 1)
                    if word[k - 1] == i
                }
                best = max([0, *sigmas.values()])
                hits = [k for k, s in sigmas.items() if s == best]
                first, last = (min(hits), max(hits)) if hits else (None, None)
                for top in (lam, cr.INFINITY):
                    wt = cr.weight_of(datum, word, top, state)
                    assert cr._sigma_profile(datum, word, top, state, i) == (
                        best,
                        first,
                        last,
                        wt[i - 1],
                    )


S1 = word_to_element(A2, (1,))
W0 = longest_element(A2)
LIST_WEIGHT_CALLS = {
    "crystal_states": lambda lam: cr.crystal_states(A2, IA2, lam),
    "generate_b_lambda": lambda lam: cr.generate_b_lambda(A2, IA2, lam),
    "demazure_crystal": lambda lam: cr.demazure_crystal(A2, IA2, S1, lam),
    "opposite_demazure_crystal": lambda lam: cr.opposite_demazure_crystal(A2, IA2, S1, lam),
    "string_coords": lambda lam: cr.string_coords(A2, IA2, lam, (1, 1, 0)),
    "richardson_lattice_points": lambda lam: cr.richardson_lattice_points(A2, IA2, S1, W0, lam),
}


@pytest.mark.parametrize("name", sorted(LIST_WEIGHT_CALLS))
def test_weight_may_be_a_list(name):
    call = LIST_WEIGHT_CALLS[name]
    assert call([2, 1]) == call((2, 1))


@pytest.mark.parametrize("name", sorted(LIST_WEIGHT_CALLS))
def test_record_checks_the_weight_before_its_cache(name):
    # (1.0, 1) == (1, 1) as a cache key: every reader goes through `record`,
    # which refuses the float entry even when the record of (1, 1) is warm
    call = LIST_WEIGHT_CALLS[name]
    call((1, 1))
    with pytest.raises(ValueError, match="not an integer"):
        call((1.0, 1))
    with pytest.raises(ValueError, match="not an integer"):
        cr.record(A2, IA2, (1.0, 1))


FLOAT_WORD_CALLS = {
    "compatible_subsets": lambda word: compatible_subsets(A2, word, S1),
    "record": lambda word: cr.record(A2, word, (1, 1)),
    "opposite_demazure_faces": lambda word: fc.opposite_demazure_faces(A2, S1, (1, 1), word=word),
    "f_op": lambda word: cr.f_op(A2, word, (1, 1), (0, 0, 0), 1),
}


@pytest.mark.parametrize("name", sorted(FLOAT_WORD_CALLS))
def test_a_word_with_a_letter_that_is_not_an_int_is_refused_cold_and_warm(name):
    # (1.0, 2, 1) == (1, 2, 1) as a cache key: a cold cache raised TypeError
    # and a warm one returned the tables of (1, 2, 1)
    call = FLOAT_WORD_CALLS[name]
    cartan._extraction_table.cache_clear()
    cr._crystal.cache_clear()
    for _ in range(2):  # cold, then with the tables of (1, 2, 1) cached
        with pytest.raises(ValueError, match="not an integer|out of range"):
            call((1.0, 2, 1))
        call((1, 2, 1))


LIST_WORD_CALLS = {
    "crystal_states": lambda word: cr.crystal_states(A2, word, (2, 1)),
    "generate_b_lambda": lambda word: cr.generate_b_lambda(A2, word, (2, 1)),
    "demazure_crystal": lambda word: cr.demazure_crystal(A2, word, S1, (2, 1)),
    "opposite_demazure_crystal": lambda word: cr.opposite_demazure_crystal(A2, word, S1, (2, 1)),
    "string_coords": lambda word: cr.string_coords(A2, word, (2, 1), (1, 1, 0)),
    "richardson_lattice_points": lambda word: cr.richardson_lattice_points(A2, word, S1, W0, (2, 1)),
    "compatible_subsets": lambda word: compatible_subsets(A2, word, S1),
}


@pytest.mark.parametrize("name", sorted(LIST_WORD_CALLS))
def test_word_may_be_a_list(name):
    call = LIST_WORD_CALLS[name]
    assert call(list(IA2)) == call(IA2)


def test_state_may_be_a_list():
    assert cr.string_coords(A2, IA2, (2, 1), [1, 1, 0]) == cr.string_coords(A2, IA2, (2, 1), (1, 1, 0))


def _weights(datum, lambda_max):
    return list(itertools.product(range(lambda_max + 1), repeat=datum.rank))


@pytest.mark.parametrize(
    "datum, lambda_max", [(A2, 2), (A3, 2), (C2, 2), (A4, 1), (C3, 1)], ids=["A2", "A3", "C2", "A4", "C3"]
)
def test_fold_masks_match_the_frozenset_route(datum, lambda_max):
    # every fold mask, decoded, is the set the folds built on frozensets of
    # table indices
    word = standard_word(datum)
    for lam in _weights(datum, lambda_max):
        low, high = ref.index_folds(datum, word, lam)
        for w in all_elements(datum):
            assert _fold_states(datum, word, w, lam, False) == low[w]
            assert _fold_states(datum, word, w, lam, True) == high[w]


@pytest.mark.parametrize("datum", [A2, A3, C2], ids=["A2", "A3", "C2"])
def test_richardson_is_the_intersection_of_the_two_sides(datum):
    word = standard_word(datum)
    for lam in _weights(datum, 1):
        for w in all_elements(datum):
            lower = frozenset(cr.demazure_crystal(datum, word, w, lam))
            for v in all_elements(datum):
                if bruhat_leq(v, w):
                    upper = frozenset(cr.opposite_demazure_crystal(datum, word, v, lam))
                    assert cr.richardson_lattice_points(datum, word, v, w, lam) == lower & upper
