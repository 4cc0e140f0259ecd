from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schubcalc import polytopes as pt
from schubcalc.cartan import RootDatum, standard_word
from schubcalc.oracles import weyl_dimension

import reference_routes as ref

A2 = RootDatum("A", 2)
A3 = RootDatum("A", 3)
C2 = RootDatum("C", 2)

# every board the layout tests read: A1-A6 and C2-C5
BOARDS = [RootDatum("A", n) for n in range(1, 7)] + [RootDatum("C", n) for n in range(2, 6)]


def unit_cube(d):
    ineqs = []
    for j in range(d):
        e = tuple(1 if t == j else 0 for t in range(d))
        ne = tuple(-x for x in e)
        ineqs.append((e, 1))
        ineqs.append((ne, 0))
    return pt.Polytope(tuple(ineqs), tuple(range(d - 1, -1, -1)))


def test_polytope_refuses_a_short_row():
    with pytest.raises(ValueError, match="coefficients"):
        pt.Polytope((((1, 0), 1), ((-1,), 0)), (1, 0))


@pytest.mark.parametrize(
    "order", [(0, 0), (0, 2), (1,)], ids=["repeated", "out-of-range", "missing"]
)
def test_polytope_refuses_a_sweep_order_that_is_not_a_permutation(order):
    with pytest.raises(ValueError, match="permutation"):
        pt.Polytope(unit_cube(2).ineqs, order)


def test_polytope_refuses_a_long_row():
    # the extra coefficient would otherwise be dropped, leaving the square
    rows = unit_cube(2).ineqs[:-1] + (((1, 0, 1), 0),)
    with pytest.raises(ValueError, match="coefficients"):
        pt.Polytope(rows, (1, 0))


@pytest.mark.parametrize("build", [pt.string_polytope, pt.model_polytope, pt.deformed_polytope],
                         ids=["string", "model", "deformed"])
@pytest.mark.parametrize("lam", [(1,), (1, 1, 5)], ids=["short", "long"])
def test_builders_refuse_a_weight_of_the_wrong_length(build, lam):
    # a row's lambda part has one coefficient per fundamental weight of C2
    with pytest.raises(ValueError, match="one entry per fundamental weight"):
        build(C2, lam)


def test_cube_basics():
    cube = unit_cube(2)
    assert len(pt.lattice_points(cube)) == 4
    cube3 = unit_cube(3)
    assert len(pt.vertices(cube3)) == 8
    assert pt.is_simple(cube3)
    assert pt.affine_rank(pt.lattice_points(ref.face_polytope(cube3, (0,)))) == 2


def string_cone(datum):
    """The string cone: the cone rows alone, at right-hand side 0, in the
    string polytope's sweep order."""
    facets = pt.string_cone_facets(datum)
    return pt.Polytope(tuple((vec, 0) for vec in facets), tuple(reversed(range(len(facets)))))


def test_string_cone_facet_labels():
    cone = string_cone(A2)
    # a_1^{(1)} >= 0, a_2^{(1)} >= 0, a_1^{(2)} >= a_2^{(1)}
    assert cone.ineqs == (((-1, 0, 0), 0), ((0, 0, -1), 0), ((0, -1, 1), 0))
    # the cone is the Fv family alone, Fv1..Fv3 at indices 0..2, and the
    # string polytope's rows N..2N-1
    assert tuple(vec for vec, _ in cone.ineqs) == pt.string_cone_facets(A2)
    assert pt.string_polytope(A2, (2, 1)).ineqs[3:] == cone.ineqs
    conec = string_cone(C2)
    # a_1^{(1)} = 0, b_1^{(2)} = a_2^{(1)}, a_2^{(1)} = a_1^{(2)}, a_1^{(2)} = 0
    assert conec.ineqs == (
        ((-1, 0, 0, 0), 0),
        ((0, -1, 1, 0), 0),
        ((0, 0, -1, 1), 0),
        ((0, 0, 0, -1), 0),
    )
    # the origin satisfies every cone inequality
    for cone_poly in (cone, conec):
        zero = (0,) * cone_poly.ambient_dim
        assert all(sum(c * x for c, x in zip(vec, zero)) <= rhs for vec, rhs in cone_poly.ineqs)


@pytest.mark.parametrize("datum", BOARDS, ids=lambda d: "%s%d" % (d.family, d.rank))
def test_board_read_layouts_match_the_block_formulas(datum):
    assert pt.string_cone_facets(datum) == ref.block_string_cone_facets(datum)
    n = datum.rank
    for i in range(1, n + 1):
        for j in range(1, n - i + 2):
            assert pt.a_pos(datum, j, i) == ref.block_a_pos(datum, j, i)
            if datum.family == "C" and i > 1:
                assert pt.b_pos(datum, j, i) == ref.block_b_pos(datum, j, i)


def test_cone_is_unbounded():
    with pytest.raises(pt.UnboundedRegionError):
        pt.lattice_points(string_cone(A2))


def test_string_polytope_counts():
    assert pt.lattice_points(pt.string_polytope(A2, (0, 0))) == ((0, 0, 0),)
    assert len(pt.lattice_points(pt.string_polytope(A2, (1, 0)))) == 3
    assert len(pt.lattice_points(pt.string_polytope(A2, (1, 1)))) == 8
    assert len(pt.lattice_points(pt.string_polytope(C2, (1, 0)))) == 5
    assert len(pt.lattice_points(pt.string_polytope(C2, (0, 1)))) == 4


def test_lambda_facet_symbolic_example():
    # rank-3 ambient word (1,2,3,2,1,2): facet equations for positions 3, 4, 6
    word = (1, 2, 3, 2, 1, 2)
    vec, lam_vec = pt.string_lambda_facet(A3, word, 3)
    assert vec == (0, 0, 1, -1, 0, -1)
    assert lam_vec == (0, 0, 1)
    vec, lam_vec = pt.string_lambda_facet(A3, word, 4)
    assert vec == (0, 0, 0, 1, -1, 2)
    assert lam_vec == (0, 1, 0)
    vec, lam_vec = pt.string_lambda_facet(A3, word, 6)
    assert vec == (0, 0, 0, 0, 0, 1)
    assert lam_vec == (0, 1, 0)


def test_gt_and_sgt_counts():
    assert pt.lattice_points(pt.model_polytope(A2, (0, 0))) == ((0, 0, 0),)
    assert len(pt.lattice_points(pt.model_polytope(A2, (1, 0)))) == 3
    assert len(pt.lattice_points(pt.model_polytope(A2, (1, 1)))) == 8
    assert len(pt.lattice_points(pt.model_polytope(C2, (1, 0)))) == 5
    assert len(pt.lattice_points(pt.model_polytope(C2, (0, 1)))) == 4
    for lam in [(1, 1), (2, 1)]:
        assert len(pt.lattice_points(pt.model_polytope(A2, lam))) == weyl_dimension(A2, lam)
        assert len(pt.lattice_points(pt.model_polytope(C2, lam))) == weyl_dimension(C2, lam)


def test_facet_arrangement_pins():
    # first dual equation: a_1^{(n)} = a_2^{(n-1)}
    g = pt.model_polytope(A3, (1, 1, 1))
    vec, rhs = g.ineqs[0]
    expected = [0] * 6
    expected[pt.a_pos(A3, 2, 2)] = 1
    expected[pt.a_pos(A3, 1, 3)] = -1
    assert list(vec) == expected and rhs == 0
    # first symplectic Kogan equation: b_1^{(n)} = a_1^{(n)}
    s = pt.model_polytope(C2, (1, 1))
    vec, rhs = s.ineqs[4]
    expected = [0] * 4
    expected[pt.a_pos(C2, 1, 2)] = 1
    expected[pt.b_pos(C2, 1, 2)] = -1
    assert list(vec) == expected and rhs == 0
    # index 4 = N opens the Fv family: Fv1
    assert (s.ambient_dim, len(s.ineqs)) == (4, 8)


def _default_deformed(datum):
    return pt.deformed_polytope(datum, pt.default_regular_lambda(datum))


def _sweep_steps(poly):
    """Per row, the position along the sweep order of the last coordinate in
    its support."""
    order = poly.sweep_order
    return tuple(max(t for t, v in enumerate(order) if vec[v]) for vec, _ in poly.ineqs)


@pytest.mark.parametrize(
    "build, ineqs, steps, order",
    [
        (
            lambda: _default_deformed(A2),  # lambda = (3, 3), eps = (0, 1)
            (
                ((0, -1, 1), 0),
                ((0, 0, -1), 0),
                ((-1, 0, 0), -3),
                ((-1, 1, 0), 1),
                ((1, 0, 0), 6),
                ((0, 0, 1), 3),
            ),
            (2, 1, 0, 2, 0, 1),
            (0, 2, 1),
        ),
        (
            lambda: _default_deformed(C2),  # lambda = (8, 8), eps = (1,), eps' = (0, 2)
            (
                ((0, 0, 0, -1), 0),
                ((-1, 1, 0, 0), 1),
                ((0, 0, -1, 0), 0),
                ((-1, 0, 0, 0), -8),
                ((0, -1, 0, 1), 2),
                ((0, -1, 1, 0), 0),
                ((0, 0, 1, 0), 8),
                ((1, 0, 0, 0), 16),
            ),
            (3, 2, 1, 0, 3, 2, 1, 0),
            (0, 2, 1, 3),
        ),
        (
            lambda: pt.model_polytope(C2, (1, 1)),
            (
                ((0, 0, 0, -1), 0),
                ((-1, 1, 0, 0), 0),
                ((0, 0, -1, 0), 0),
                ((-1, 0, 0, 0), -1),
                ((0, -1, 0, 1), 0),
                ((0, -1, 1, 0), 0),
                ((0, 0, 1, 0), 1),
                ((1, 0, 0, 0), 2),
            ),
            (3, 2, 1, 0, 3, 2, 1, 0),
            (0, 2, 1, 3),
        ),
    ],
    ids=["deformed-A2", "deformed-C2", "sgt-C2"],
)
def test_full_facet_rows_pinned(build, ineqs, steps, order):
    # every row, right-hand side (with the offset each row carries) and sweep
    # step; the F rows F1..FN at indices 0..N-1 and the Fv rows at N..2N-1
    # each hold one row per step
    poly = build()
    assert poly.ineqs == ineqs
    assert poly.sweep_order == order
    assert _sweep_steps(poly) == steps
    n = poly.ambient_dim
    assert sorted(steps[:n]) == sorted(steps[n:]) == list(range(n)) == sorted(order)


def _shifts(datum, lam):
    """Per row, how far the deformation moves its right-hand side."""
    plain = pt.model_polytope(datum, lam)
    deformed = pt.deformed_polytope(datum, lam)
    assert [c for c, _ in deformed.ineqs] == [c for c, _ in plain.ineqs]
    assert deformed.sweep_order == plain.sweep_order
    return [d - p for (_, d), (_, p) in zip(deformed.ineqs, plain.ineqs)]


def test_zero_profile_is_identity():
    # with no deformation the rows are the GT/SGT polytope's, and the
    # deformation moves right-hand sides only, never those of the type A
    # dual Kogan rows
    for datum, lam in ((A2, (2, 1)), (C2, (1, 2)), (A3, (1, 1, 1))):
        if datum.family == "A":
            assert _shifts(datum, lam)[: datum.num_positive_roots] == [0] * datum.num_positive_roots
        assert min(_shifts(datum, lam)) == 0


@pytest.mark.parametrize("datum", [A2, A3, RootDatum("A", 4), C2, RootDatum("C", 3), RootDatum("C", 4)],
                         ids=["A2", "A3", "A4", "C2", "C3", "C4"])
def test_deformation_shifts_are_chain_positions(datum):
    # the relaxed rows move by their positions along the strict chain:
    # eps_1 < ... < eps_n in type A, eps'_1 < eps_2 < eps'_2 < ... < eps'_n in
    # type C, so every position 0..(chain length - 1) occurs; the default
    # weight is N times the last one
    n, big_n = datum.rank, datum.num_positive_roots
    chain = n if datum.family == "A" else 2 * n - 1
    shifts = _shifts(datum, (1,) * n)
    assert set(shifts) == set(range(chain))
    assert pt.default_regular_lambda(datum) == (max(1, big_n * (chain - 1)),) * n


def test_deformed_simplicity_and_normal_fan():
    for datum in (A2, C2):
        lam = pt.default_regular_lambda(datum)
        deformed = pt.deformed_polytope(datum, lam)
        assert pt.is_simple(deformed)
        undeformed = pt.model_polytope(datum, lam)
        # the same rows define facets, with the same normals: equal normal fans
        assert pt.facet_defining(deformed) == pt.facet_defining(undeformed)
        assert [c for c, _ in deformed.ineqs] == [c for c, _ in undeformed.ineqs]


def test_undeformed_sgt_not_simple():
    # the deformation is needed: the plain symplectic polytope has a vertex on
    # too many facets already at small regular weights
    found = any(not pt.is_simple(pt.model_polytope(C2, lam)) for lam in [(1, 1), (2, 1), (2, 2)])
    assert found


def _support(p, direction):
    """max <direction, v> over the vertices of p."""
    return max(sum(d * x for d, x in zip(direction, v)) for v in pt.vertices(p))


def test_minkowski_support_additivity():
    cases = [
        (A2, (2, 1), (1, 1)),
        (A3, (1, 1, 1), (1, 0, 1)),
        (C2, (1, 1), (2, 1)),
    ]
    for datum, lam, mu in cases:
        big = pt.deformed_polytope(datum, lam)
        plain = pt.model_polytope(datum, mu)
        total = pt.deformed_polytope(datum, tuple(a + b for a, b in zip(lam, mu)))
        directions = {c for c, _ in big.ineqs}
        for xi in directions:
            assert _support(big, xi) + _support(plain, xi) == _support(total, xi)


def test_lattice_count_minkowski_consistency():
    lam, mu = (1, 0), (0, 1)
    both = tuple(a + b for a, b in zip(lam, mu))
    assert len(pt.lattice_points(pt.model_polytope(A2, both))) == weyl_dimension(A2, both)


def test_ehrhart_and_volumes():
    point = pt.string_polytope(A2, (0, 0))
    assert ref.normalized_volume(point) == 1
    rho = pt.string_polytope(A2, (1, 1))
    assert ref.normalized_volume(rho) == 1
    two_rho = pt.string_polytope(A2, (2, 2))
    assert ref.normalized_volume(two_rho) == 8
    coeffs = ref.ehrhart_polynomial(rho)
    d = len(coeffs) - 1
    held_out = len(pt.lattice_points(ref.dilate(rho, d + 1)))
    assert sum(c * (d + 1) ** e for e, c in enumerate(coeffs)) == held_out


def test_dilation_consistency():
    poly = pt.model_polytope(A2, (1, 1))
    coeffs = ref.ehrhart_polynomial(poly)
    held_out = len(pt.lattice_points(ref.dilate(poly, 2)))
    assert sum(c * 2 ** e for e, c in enumerate(coeffs)) == held_out


def test_volume_at_lower_dim_is_zero():
    degenerate = pt.string_polytope(A2, (1, 0))
    assert ref.volume_at_dim(degenerate, 3) == 0
    assert ref.volume_at_dim(degenerate, pt.affine_rank(pt.lattice_points(degenerate))) > 0


def test_string_polytope_rows_and_labels():
    poly = pt.string_polytope(A2, (1, 1))
    assert poly.ambient_dim == 3
    assert len(poly.ineqs) == 6
    # F1 at index 0: the first lambda bound of the standard word
    vec, lam_vec = pt.string_lambda_facet(A2, standard_word(A2), 1)
    assert poly.ineqs[0] == (vec, sum(lam_vec))


def test_face_intersection_and_transversality():
    # the unit cube is a tower of intervals: the two rows of a coordinate
    # share a step and never meet
    cube = unit_cube(3)
    steps, verts = pt.interval_tower(cube)
    assert verts == pt.vertices(cube) and len(verts) == 8
    top, bottom, side = 0, 1, 2
    assert steps[top] == steps[bottom] != steps[side]
    assert pt.lattice_points(ref.face_polytope(cube, (top, bottom))) == ()
    assert pt.affine_rank(pt.lattice_points(ref.face_polytope(cube, (top, side)))) == 1
    # a step with a single row fails the certificate
    assert pt.interval_tower(pt.Polytope(cube.ineqs[1:], cube.sweep_order)) is None


def test_empty_face_distinct_from_point():
    poly = pt.string_polytope(A2, (1, 0))
    # a single lattice point has dimension zero, emptiness is negative
    squeezed = ref.face_polytope(poly, (0, 1, 2))
    assert pt.affine_rank(pt.lattice_points(squeezed)) in (-1, 0)
    zero = pt.string_polytope(A2, (0, 0))
    assert pt.affine_rank(pt.lattice_points(ref.face_polytope(zero, ()))) == 0
    cube = unit_cube(3)
    assert pt.affine_rank(pt.lattice_points(ref.face_polytope(cube, (0, 1)))) == -1


def test_face_polytope_rejects_rows_out_of_range():
    cube = unit_cube(2)  # four inequalities
    for bad in ((4,), (-1,), (0, 7)):
        with pytest.raises(IndexError, match="out of range"):
            ref.face_polytope(cube, bad)
    # the tight rows follow the polytope's, each negated once
    assert ref.face_polytope(cube, (2, 0, 2)).ineqs == cube.ineqs + (((-1, 0), -1), ((0, -1), -1))


def test_string_lambda_facet_refuses_an_index_out_of_range():
    word = standard_word(C2)
    for j in (0, -1, 5):
        with pytest.raises(IndexError, match="facet indices run from 1 to 4"):
            pt.string_lambda_facet(C2, word, j)


def test_tight_bits_of_no_points_are_zero():
    assert pt.slack_masks((((1, 0), 0), ((0, 1), 2)), [])[0] == (0, 0)
    assert pt.slack_masks((), [(0, 0)])[0] == ()


@pytest.mark.parametrize(
    "rows, points",
    [
        ([((1, 0), 0)], [(0, 5), (1,)]),
        ([((1,), 0)], [(0, 5), (1, 5)]),
        ([((1, 0, 1), 0)], [(0, 5), (1, 5)]),
    ],
    ids=["short-point", "short-row", "long-row"],
)
def test_tight_bits_refuses_mismatched_lengths(rows, points):
    with pytest.raises(ValueError, match="one dimension"):
        pt.slack_masks(rows, points)[0]


def _dot(vec, point):
    return sum(a * x for a, x in zip(vec, point))


@st.composite
def rows_and_points(draw):
    """Rows and points at one magnitude, up to 2^40 so that every field width
    is used, with negative coordinates, zero rows, and rows through a drawn
    point or one off it."""
    dim = draw(st.integers(1, 4))
    scale = draw(st.sampled_from((3, 2**12, 2**28, 2**40)))
    vector = st.tuples(*[st.integers(-scale, scale)] * dim)
    points = draw(st.lists(vector, max_size=40))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        vec = draw(st.just((0,) * dim) | st.tuples(*[st.integers(-2, 2)] * dim))
        if points and draw(st.booleans()):
            rhs = _dot(vec, draw(st.sampled_from(points))) + draw(st.integers(-1, 1))
        else:
            rhs = draw(st.integers(-scale, scale))
        rows.append((vec, rhs))
    return rows, points


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(rows_and_points())
def test_tight_bits_matches_per_point_evaluation(case):
    rows, points = case
    bits, outside = pt.slack_masks(rows, points)
    assert bits == ref.column_tight_bits(rows, points)
    assert list(pt.mask_points(outside, points)) == [
        p for p in points if any(_dot(vec, p) > rhs for vec, rhs in rows)
    ]
    assert len(bits) == len(rows)
    for (vec, rhs), mask in zip(rows, bits):
        assert mask >> len(points) == 0
        for i, p in enumerate(points):
            assert mask >> i & 1 == (_dot(vec, p) == rhs)
        on_row = [p for p in points if _dot(vec, p) == rhs]
        assert list(pt.mask_points(mask, points)) == on_row


def test_tight_bits_at_the_field_limits():
    # slack bounds of 14, 30 and 62 bits take the 16-, 32- and 64-bit fields
    # to their last guard bit; one bit more is refused, as are non-integers
    for bits in (14, 30, 62):
        top = (1 << bits) - 2
        points = [(top,), (-top,), (0,), (1,), (-1,)]
        rows = [((1,), 0), ((-1,), 0), ((1,), 1), ((0,), 0)]
        assert pt.slack_masks(rows, points)[0] == ref.column_tight_bits(rows, points)
        assert pt.slack_masks([((1,), 0)], [(top,), (-top,)])[0] == (0,)
        assert pt.slack_masks([((0,), top)], [(0,), (5,)])[0] == (0,)
        # the most negative coordinate the width admits: x <= 0 holds there
        # and -x <= 0 fails, as it does at 1 for x <= 0
        bottom = -((1 << bits) - 1)
        points = [(bottom,), (0,), (1,)]
        rows = [((1,), 0), ((-1,), 0), ((0,), 0)]
        assert pt.slack_masks(rows, points)[0] == ref.column_tight_bits(rows, points) == (0b10, 0b10, 0b111)
        assert pt.slack_masks(rows, points)[1] == 0b101
        # one column of both signs, each row's tight and outside points
        # checked against the slacks
        half = 1 << (bits - 2)
        points = [(half,), (-half,), (1,), (-1,), (0,), (1 - half,), (half - 1,)]
        rows = [((1,), 0), ((-1,), 0), ((1,), 1), ((-1,), half - 1), ((1,), half - 1), ((2,), 0)]
        tight, outside = pt.slack_masks(rows, points)
        assert tight == ref.column_tight_bits(rows, points)
        assert list(pt.mask_points(outside, points)) == [
            p for p in points if any(_dot(vec, p) > rhs for vec, rhs in rows)
        ]
    with pytest.raises(OverflowError):
        pt.slack_masks([((1,), 0)], [(1 << 62,)])[0]
    with pytest.raises(OverflowError):
        pt.slack_masks([((1, 1), 1 << 61)], [(1 << 61, 0)])[0]
    with pytest.raises(TypeError):
        pt.slack_masks([((1, 0), 0)], [(Fraction(1, 2), 0)])[0]
    with pytest.raises(TypeError):
        pt.slack_masks([((1, 0), Fraction(1, 2))], [(0, 0)])[0]


def _field_values(size, signed):
    """Lists of values that fields of `size` bytes hold, both extremes,
    zero and one among them."""
    bits = 8 * size
    lo, hi = (-(1 << bits - 1), (1 << bits - 1) - 1) if signed else (0, (1 << bits) - 1)
    return st.lists(st.sampled_from((lo, hi, 0, 1)) | st.integers(lo, hi), max_size=9)


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.sampled_from((1, 2, 4, 8)), st.booleans()).flatmap(
        lambda case: st.tuples(st.just(case), _field_values(*case))
    )
)
def test_packed_fields_round_trip_against_the_int_reference(case):
    # value p in field p of `size` bytes, from bit 8 * size * p, in two's
    # complement when signed: the int a sum of shifted values reads
    (size, signed), values = case
    bits = 8 * size
    packed = ref.pack_bits([v % (1 << bits) for v in values], bits)
    decoded = pt.unpack_fields(packed, len(values), size, signed)
    assert list(decoded) == values and decoded.itemsize == size
    if not signed:
        assert list(ref.unpack_bits(packed, bits, len(values))) == values
        other = ref.pack_bits(values[::-1], bits)
        ints = (packed, other, 0)
        expected = [tuple(values), tuple(values[::-1]), (0,) * len(values)]
        assert [tuple(pt.unpack_fields(x, len(values), size)) for x in ints] == expected
        # field p of the three ints, widened to each field size from `size` on
        column = pt.strided_columns(ints, len(values), size)
        for step in (1, 2, 4, 8)[(1, 2, 4, 8).index(size) :]:
            columns = zip(values, values[::-1], [0] * len(values))
            assert [column(p, step) for p in range(len(values))] == [ref.pack_bits(c, 8 * step) for c in columns]
    else:
        # each value repeated in turn, in signed fields, is the sum of the
        # shifted values, a negative one borrowing from the field above
        repeats = [k % 3 for k in range(len(values))]
        expanded = [v for v, r in zip(values, repeats) for _ in range(r)]
        assert pt.repeated_fields(values, repeats, size) == ref.pack_bits(expanded, bits)
    # one past either extreme is refused, by the unsigned arrays and the
    # signed repeated fields
    lo, hi = (-(1 << bits - 1), (1 << bits - 1) - 1) if signed else (0, (1 << bits) - 1)
    for value in (lo - 1, hi + 1):
        with pytest.raises(OverflowError):
            if signed:
                pt.repeated_fields(values + [value], [1] * (len(values) + 1), size)
            else:
                pt.field_array(size, values + [value])


def test_field_size_is_the_narrowest_of_1_2_4_and_8_bytes():
    assert [pt.field_size(bits) for bits in range(65)] == [1] * 9 + [2] * 8 + [4] * 16 + [8] * 32
    with pytest.raises(OverflowError, match="65 bits"):
        pt.field_size(65)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_mask_flags_and_flags_mask_are_inverse(case):
    size, mask = case
    flags = pt.mask_flags(mask, size)
    assert list(flags) == [mask >> i & 1 for i in range(size)]
    assert pt.flags_mask(flags) == mask


POINTS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))


def test_point_set_is_a_view_of_its_mask():
    view = pt.PointSet(0b10110, POINTS)
    assert len(view) == 3
    assert list(view) == [(1, 0), (0, 1), (2, 0)]
    assert (0, 1) in view and (0, 0) not in view and (7, 7) not in view
    assert hash(view) == hash(frozenset(view))
    assert len(pt.PointSet(0, POINTS)) == 0 and list(pt.PointSet(0, POINTS)) == []


def test_point_sets_over_one_table_compare_their_masks():
    # a mask of the same size with one bit moved is another set
    view = pt.PointSet(0b10110, POINTS)
    assert view == pt.PointSet(0b10110, POINTS)
    assert view != pt.PointSet(0b10101, POINTS)
    assert not view == pt.PointSet(0b01110, POINTS)


def test_point_sets_compare_by_content_otherwise():
    # over another table (the same points in another order, or other points)
    # and against a frozenset, equality is set equality
    view = pt.PointSet(0b10110, POINTS)
    moved = tuple(reversed(POINTS))
    assert view == pt.PointSet(0b01101, moved) == frozenset(view)
    assert frozenset(view) == view
    assert view != pt.PointSet(0b01110, moved)
    assert view != frozenset({(1, 0), (0, 1), (9, 9)})
    assert frozenset({(1, 0), (0, 1), (9, 9)}) != view
    other = ((1, 0), (0, 1), (2, 0), (5, 5))
    assert view == pt.PointSet(0b0111, other)
    assert view != pt.PointSet(0b1011, other)
    assert view != [(1, 0), (0, 1), (2, 0)]


def test_point_set_operations_do_not_decode_once_per_member(monkeypatch):
    decoded = []
    mask_points = pt.mask_points

    def counting(mask, points):
        decoded.append(mask)
        return mask_points(mask, points)

    monkeypatch.setattr(pt, "mask_points", counting)
    points = tuple((k,) for k in range(64))
    a, b = pt.PointSet((1 << 40) - 1, points), pt.PointSet((1 << 50) - 1, points)
    assert a <= b and not b <= a and len(a & b) == 40 and len(b - a) == 10
    # a membership test keeps its view's points: 5 decodes, not about 100
    assert len(decoded) == 5


def test_point_set_operations_are_frozenset_operations():
    a, b = pt.PointSet(0b10110, POINTS), pt.PointSet(0b01011, POINTS)
    c = pt.PointSet(0b110, tuple(reversed(POINTS)))
    for x in (a, b, c):
        for y in (a, b, c, frozenset(b), frozenset({(9, 9), (0, 0)})):
            fx, fy = frozenset(x), frozenset(y)
            for op, expected in ((x & y, fx & fy), (x | y, fx | fy), (x - y, fx - fy)):
                assert type(op) is frozenset
                assert op == expected
            assert (x <= y) == (fx <= fy)
            assert (fy - x) == fy - fx


def test_incidence_on_fractional_vertices():
    # a simplex with vertices of denominators 2, 3 and 5, and a row through
    # two of them: the masks are read off the scaled vertices
    rows = (((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((2, 3, 5), 1), ((2, 3, 0), 1))
    simplex = pt.Polytope(rows, (2, 1, 0))
    verts = pt.vertices(simplex)
    half, third, fifth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
    assert verts == ((0, 0, 0), (0, 0, fifth), (0, third, 0), (half, 0, 0))
    masks = pt.incidence(simplex)
    assert masks == ref.column_tight_bits(rows, verts)
    for (vec, rhs), mask in zip(rows, masks):
        assert [k for k, v in enumerate(verts) if _dot(vec, v) == rhs] == [
            k for k in range(len(verts)) if mask >> k & 1
        ]
    assert masks[3:] == (0b1110, 0b1100)


# The cases are builders, called inside the test, so that a fault in a layout
# the builders read fails the cases that read it rather than erroring the
# collection of this module.


def _deformed_c4_face():
    """The deformed C4 polytope has 16,514,412 points at lambda = 0: its face
    on the Fv rows of the last four steps, 3,944 points."""
    poly = pt.deformed_polytope(RootDatum("C", 4), (0, 0, 0, 0))
    _, steps, _ = pt._sweep_rows(poly)
    return ref.face_polytope(poly, [j for j in range(16, 32) if steps[j] >= 12])


def _count_cases():
    for family, rank, lam in ref.INCIDENCE_CASES:
        for build in (pt.string_polytope, pt.model_polytope):
            yield pytest.param(
                partial(build, RootDatum(family, rank), lam), id="%s-%s%d-%s" % (build.__name__, family, rank, lam)
            )
    # empty: two rows that cross, and a row without support that fails
    yield pytest.param(
        partial(pt.Polytope, (((1, 0), -1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)), (1, 0)), id="empty"
    )
    yield pytest.param(partial(pt.Polytope, (((0, 0), -1),), (0, 1)), id="empty-zero-row")
    yield pytest.param(partial(pt.Polytope, (), ()), id="point")


@pytest.mark.parametrize("build", _count_cases())
def test_lattice_count_is_the_number_of_lattice_points(build):
    poly = build()
    assert pt.lattice_count(poly) == len(pt.lattice_points(poly))


def _check_against_the_recursive_sweep(poly):
    """Equal counts, equal sorted points, and, over the points in sweep
    order, per row the same tight points as exact dot products give: equal
    masks over one point order decode to equal tight sets."""
    points = ref.recursive_lattice_points(poly)
    assert pt.lattice_count(poly) == ref.recursive_lattice_count(poly) == len(points)
    assert pt.lattice_points(poly) == points
    count, masks = pt.lattice_incidence(poly)
    assert count == len(points)
    assert masks == ref.column_tight_bits(poly.ineqs, ref.in_sweep_order(poly, points))


@pytest.mark.parametrize(
    "family, rank, lam", ref.LIST_ROUTE_CASES, ids=["%s%d-%s" % case for case in ref.LIST_ROUTE_CASES]
)
def test_model_incidence_is_the_list_route_incidence(family, rank, lam):
    # the columns packed from the sweep's levels give the masks that the
    # list route gives over the recursive reference's points in sweep order
    poly = pt.model_polytope(RootDatum(family, rank), lam)
    points = ref.in_sweep_order(poly, ref.recursive_lattice_points(poly))
    assert pt.lattice_incidence(poly) == (len(points), pt.slack_masks(poly.ineqs, points)[0])


def test_incidence_of_a_polytope_with_negative_sweep_values():
    # -3 <= x0 <= 2, x0 - 2 <= x1 <= 1 - x0 and x0 + x1 <= x2 <= 0: every
    # level holds negative values, each repeated by its leaf counts
    rows = (((1, 0, 0), 2), ((-1, 0, 0), 3), ((1, -1, 0), 2), ((1, 1, 0), 1), ((1, 1, -1), 0), ((0, 0, 1), 0))
    poly = pt.Polytope(rows, (0, 1, 2))
    points = ref.in_sweep_order(poly, ref.recursive_lattice_points(poly))
    assert all(min(column) < 0 for column in zip(*points)) and len(points) == 95
    assert pt.lattice_incidence(poly) == (len(points), pt.slack_masks(rows, points)[0])
    _check_against_the_recursive_sweep(poly)


def test_incidence_at_the_62_bit_edge():
    # three points up to 2^61 - 1, then three from -(2^61 - 1): the slack
    # bound 2^62 - 2 takes the 64-bit fields to their last guard bit; one
    # more and the sweep's columns are refused as the list route's are
    for edge in (1 << 61) - 1, -(1 << 61) + 3:
        rows = (((1,), edge), ((-1,), 2 - edge))
        poly = pt.Polytope(rows, (0,))
        points = ref.recursive_lattice_points(poly)
        assert len(points) == 3 and edge in (points[0][0], points[-1][0])
        assert pt.lattice_incidence(poly) == (3, pt.slack_masks(rows, points)[0]) == (3, (0b100, 0b001))
    rows = (((1,), 1 << 61), ((-1,), 2 - (1 << 61)))
    poly = pt.Polytope(rows, (0,))
    for route in (lambda: pt.lattice_incidence(poly), lambda: pt.slack_masks(rows, pt.lattice_points(poly))):
        with pytest.raises(OverflowError):
            route()


def _sweep_cases():
    yield from _count_cases()
    for family, rank, lam in (("A", 2, (0, 0)), ("A", 2, (1, 1)), ("A", 3, (0, 0, 0)),
                              ("A", 3, (1, 1, 1)), ("A", 4, (0, 0, 0, 0)), ("C", 2, (0, 0)),
                              ("C", 2, (1, 1)), ("C", 3, (0, 0, 0))):
        yield pytest.param(
            partial(pt.deformed_polytope, RootDatum(family, rank), lam), id="deformed-%s%d-%s" % (family, rank, lam)
        )
    yield pytest.param(_deformed_c4_face, id="deformed-C4-face")


@pytest.mark.parametrize("build", _sweep_cases())
def test_sweep_matches_the_recursive_reference(build):
    _check_against_the_recursive_sweep(build())


@pytest.mark.parametrize("build", [pt.string_polytope, pt.model_polytope], ids=["string", "model"])
def test_sweep_count_matches_the_recursive_reference_at_c4(build):
    poly = build(RootDatum("C", 4), (1, 1, 1, 1))
    assert pt.lattice_count(poly) == ref.recursive_lattice_count(poly) == 65536


@st.composite
def bounded_polytopes(draw):
    """A box |x_v| <= 4 written with coefficients 1..3, then up to five rows
    with coefficients in -3..3 (some without support), in a drawn row order
    and sweep order, in dimension 0 to 4."""
    dim = draw(st.integers(0, 4))
    rows = []
    for v in range(dim):
        for sign in (1, -1):
            a = draw(st.integers(1, 3))
            vec = tuple(sign * a if u == v else 0 for u in range(dim))
            rows.append((vec, 4 * a + draw(st.integers(0, a - 1))))
    vector = st.just((0,) * dim) | st.tuples(*[st.integers(-3, 3)] * dim)
    rows += draw(st.lists(st.tuples(vector, st.integers(-8, 8)), max_size=5))
    return pt.Polytope(tuple(draw(st.permutations(rows))), tuple(draw(st.permutations(range(dim)))))


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(bounded_polytopes())
def test_sweep_matches_the_recursive_reference_on_random_polytopes(poly):
    _check_against_the_recursive_sweep(poly)


@pytest.mark.parametrize("poly", [
    pt.Polytope((), ()),
    pt.Polytope((((), 0), ((), 3)), ()),
    pt.Polytope((((), -1),), ()),
    pt.Polytope((((2,), 5), ((-3,), 4)), (0,)),
    pt.Polytope((((3,), -7), ((-2,), 3), ((0,), 2)), (0,)),
    # x1 <= (x0 - 5) // 2 < 0 <= x1: the second level is empty, the third
    # bounded
    pt.Polytope((((1, 0, 0), 2), ((-1, 0, 0), 0), ((-1, 2, 0), -5), ((0, -1, 0), 0),
                 ((0, 0, 1), 1), ((0, 0, -1), 1)), (0, 1, 2)),
], ids=["point", "point-zero-rows", "empty-zero-row", "interval", "empty-interval", "empty-level"])
def test_sweep_matches_the_recursive_reference_at_the_edges(poly):
    _check_against_the_recursive_sweep(poly)


def test_a_polytope_empty_before_an_unbounded_step_has_no_points():
    # as above, with no row on x2: the sweep ends at the empty second level
    # before it reaches the step of x2
    rows = (((1, 0, 0), 2), ((-1, 0, 0), 0), ((-1, 2, 0), -5), ((0, -1, 0), 0))
    poly = pt.Polytope(rows, (0, 1, 2))
    assert pt.lattice_points(poly) == ref.recursive_lattice_points(poly) == ()
    assert pt.lattice_count(poly) == ref.recursive_lattice_count(poly) == 0
    assert pt.lattice_incidence(poly) == (0, (0, 0, 0, 0))


def test_lattice_count_and_points_refuse_an_unbounded_polytope():
    for datum in (A2, C2):
        cone = string_cone(datum)
        with pytest.raises(pt.UnboundedRegionError) as expected:
            ref.recursive_lattice_points(cone)
        for route in (pt.lattice_points, pt.lattice_count, pt.lattice_incidence):
            with pytest.raises(pt.UnboundedRegionError) as err:
                route(cone)
            assert str(err.value) == str(expected.value)


def test_lattice_incidence_is_points_and_facet_masks():
    # the masks run over the points in sweep order, and each row's bits are
    # the lattice points of its face
    poly = pt.string_polytope(A2, (2, 1))
    count, masks = pt.lattice_incidence(poly)
    points = ref.in_sweep_order(poly, pt.lattice_points(poly))
    assert count == len(points) == weyl_dimension(A2, (2, 1)) == 15
    for k, mask in enumerate(masks):
        on_row = pt.lattice_points(ref.face_polytope(poly, (k,)))
        assert sorted(pt.mask_points(mask, points)) == list(on_row)
