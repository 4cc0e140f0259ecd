"""Properties of the fraction-free echelon on small random integer and
rational systems."""

import itertools
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from schubcalc import linalg

import reference_routes as ref

SEED = 20260412

integers = st.integers(-5, 5)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
entries = st.one_of(integers, rationals)


def matrices(elements, max_rows=6):
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), max_size=max_rows).map(
            lambda rows: (n, rows)
        )
    )


def det(m):
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def minor_rank(rows, n):
    """Largest k with a nonzero k x k minor (reference, no elimination)."""
    for k in range(min(len(rows), n), 0, -1):
        for r in itertools.combinations(rows, k):
            for cols in itertools.combinations(range(n), k):
                if det([[row[j] for j in cols] for row in r]):
                    return k
    return 0


@seed(SEED)
@settings(max_examples=150, deadline=None)
@given(matrices(entries), st.data())
def test_solution_satisfies_every_row(system, data):
    n, coeffs = system
    rows = [row + [data.draw(entries)] for row in coeffs]
    sol = ref.solve(rows, n)
    if sol is None:
        return
    assert all(isinstance(x, Fraction) for x in sol)
    for row in rows:
        assert sum(a * x for a, x in zip(row, sol)) == row[n]


@seed(SEED)
@settings(max_examples=150, deadline=None)
@given(matrices(entries), st.data())
def test_full_rank_recovers_integer_solution(system, data):
    n, coeffs = system
    x = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    rows = [row + [sum(a * b for a, b in zip(row, x))] for row in coeffs]
    if minor_rank(coeffs, n) == n:
        assert ref.solve(rows, n) == tuple(x)
    else:
        assert ref.solve(rows, n) is None


@seed(SEED)
@settings(max_examples=150, deadline=None)
@given(matrices(entries), st.data())
def test_rank_matches_minors_and_ignores_order_and_combinations(system, data):
    n, rows = system
    r = linalg.rank(rows)
    assert r == minor_rank(rows, n)
    assert linalg.rank(data.draw(st.permutations(rows))) == r
    if rows:
        weights = data.draw(st.lists(integers, min_size=len(rows), max_size=len(rows)))
        combination = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)]
        assert linalg.rank(rows + [combination]) == r


@seed(SEED)
@settings(max_examples=150, deadline=None)
@given(matrices(entries), st.data())
def test_push_then_pop_restores_the_echelon(system, data):
    n, rows = system
    echelon = linalg.Echelon(n)
    for row in rows:
        echelon.push(row + [data.draw(entries)])
    before = [(piv, list(row)) for piv, row in echelon.rows]
    status = echelon.push(data.draw(st.lists(entries, min_size=n + 1, max_size=n + 1)))
    if status == linalg.INDEPENDENT:
        assert echelon.rank == len(before) + 1
        echelon.pop()
    assert echelon.rows == before


@seed(SEED)
@settings(max_examples=150, deadline=None)
@given(matrices(entries), st.integers(2, 4), st.data())
def test_several_right_hand_sides_solve_as_one_system_each(system, k, data):
    # one echelon carrying k right-hand sides solves each as its own system
    # does, and a row is inconsistent when any of them is
    n, coeffs = system
    sides = [data.draw(st.lists(entries, min_size=k, max_size=k)) for _ in coeffs]
    echelon = linalg.Echelon(n)
    statuses = [echelon.push(row + side) for row, side in zip(coeffs, sides)]
    alone = [ref.solve([row + [side[j]] for row, side in zip(coeffs, sides)], n) for j in range(k)]
    if linalg.INCONSISTENT in statuses:
        assert None in alone
    else:
        assert [echelon.solve(j) for j in range(k)] == alone


def test_a_row_is_inconsistent_on_its_last_right_hand_side():
    echelon = linalg.Echelon(1)
    assert echelon.push((1, 0, 0)) == linalg.INDEPENDENT
    assert echelon.push((2, 0, 0)) == linalg.DEPENDENT
    assert echelon.push((1, 0, 1)) == linalg.INCONSISTENT
    assert (echelon.solve(0), echelon.solve(1)) == ((0,), (0,))
