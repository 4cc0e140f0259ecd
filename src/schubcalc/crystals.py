"""Highest-weight crystals in embedding coordinates, string parametrizations,
and (opposite) Demazure subsets.

Elements are nonnegative integer tuples indexed by a reduced word of the
longest element.  The raising/lowering operators use the sigma statistics

    sigma_k(a) = a_k + sum_{l > k} c_{i_k, i_l} a_l,

with lowering localized at the smallest maximizing position and raising at the
largest; positions beyond the word carry zeros.  A dominant weight cuts the
infinite crystal down via the tensor cutoff: lowering returns null exactly
when eps_i + <lam + wt, h_i> = 0.  One backward sweep of the coordinates gives
each operator the sigma maximum, its argmin and argmax and <wt, h_i>.

The cut crystal at one (datum, word, lam) is built once, as an operator
table: the breadth-first closure of the highest element under lowering, with
per letter the index of f_i of every state, its inverse e_i (e_i f_i b = b),
eps_i, and the lowest element.  The table keys each state by one int:
coordinate p sits in bit field p, and lowering at position p adds the unit
of field p (Nakashima-Zelevinsky 1997: every lowering in the embedding adds 1
to one coordinate).  The fields are sized from the crystal's depth
D = <lam, 2 rho^vee> (`_depth`, one integer dot product per positive
coroot), the coordinate sum of the lowest state, which no coordinate
passes, so no field carries into the next; the build checks that the lowest
state's coordinates sum to D.  Past that check only
`crystal_states` decodes the keys, and `string_coords` packs the state it is
given.  The build sweeps no coordinates: each state carries its sigmas and
weight pairings, and lowering at position p moves them by a fixed delta per
(datum, word, p).  `f_op`, `e_op`, `epsilon` and `phi` keep the one-state
sweep; they and `weight_of` refuse a word, weight or state outside their
domain with ValueError, through `_validate`, the check the table makes.
Every later layer walks these integer indices instead of recomputing
operators.  The Demazure folds follow Kashiwara's recursion,
B_w = F_i B_{s_i w} for a left descent i and B^w = E_i B^{s_i w} for a left
ascent i, so each fold is one closure of a smaller cached index set.  An
index set is an int mask over the table order: the folds of every w are
cached as masks, and a closure walks its chains on flag bytes.

These coordinates are the embedding coordinates of an element's
canonical lift, NOT its string parametrization: the two differ already in rank
two.  The string of b is (a_1, tail(e_{i_1}^{a_1} b)): the number of raises
by the first letter, then the string of the raised element along the rest of
the word.  `_string_table` computes these tails per word position and state
over the whole cut crystal, so each (position, state) pair is raised once.
`string_incidence`, its one caller, holds the strings with one bitmask per
string-polytope row over them, and certifies them as the polytope's lattice
points, once per (datum, word, lam), by containment and count.  Every
string set exported to the polytope side (B(lam), Demazure and opposite
Demazure sets, Richardson intersections, one state's `string_coords`) is
read off these certified strings, so none escapes the certificate.  B(lam)
is the full mask over them, and the Demazure, opposite Demazure and
Richardson sets are fold masks over the string order, which is the table
order, all as `polytopes.PointSet` views: a view's size is its bit count,
two views over the strings compare their masks, and a Richardson set is the
AND of two folds.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import compress, filterfalse
from operator import add, mul
from typing import NamedTuple

from . import polytopes
from .cartan import (
    InvariantError,
    RootDatum,
    WeylElement,
    bruhat_leq,
    cartan_matrix,
    check_group,
    check_letter,
    check_weight,
    check_word_of_longest,
    left_ascents,
    left_descents,
    left_mul,
    positive_coroots,
    simple_root_in_fundamental,
    standard_word,
)


class CorruptElementError(InvariantError):
    """The lowering argmin fell beyond the stored coordinates, or a raise
    landed on a zero coordinate, which cannot happen for elements of the
    embedded crystal."""


class CrystalPolytopeMismatchError(InvariantError):
    """A string lies outside the string polytope, or the crystal and the
    polytope's lattice points differ in number."""


INFINITY = None  # highest-weight slot for the unbounded crystal


def _validate(datum, word, lam):
    """The word and weight rules of both crystal routes, the table and one state."""
    check_word_of_longest(datum, word)
    if lam is not INFINITY:
        check_weight(datum, lam)


def _check_state(word, coords):
    if len(coords) != len(word):
        raise ValueError("state %r does not have the %d coordinates of word %r" % (coords, len(word), word))
    if any(a < 0 for a in coords):
        raise ValueError("state %r has a negative coordinate" % (coords,))


def _sigma_profile(datum, word, lam, coords, i):
    """(best, first, last, wt_i) from one backward sweep: best is the max of 0
    and the letter-i sigmas, first/last the smallest/largest position attaining
    it (None when none does), wt_i = <wt, h_i>.  The suffix sum left after
    position 1 is <sum a_k alpha_{i_k}, h_i>, so wt_i is lam_i minus it."""
    _validate(datum, word, lam)
    _check_state(word, coords)
    check_letter(datum, i)
    row = cartan_matrix(datum)[i - 1]
    best = 0
    first = last = None
    suffix = 0
    for k in range(len(word), 0, -1):
        a = coords[k - 1]
        letter = word[k - 1]
        if letter == i:
            s = a + suffix
            if s > best:
                best = s
                first = last = k
            elif s == best:
                first = k
                if last is None:
                    last = k
        suffix += row[letter - 1] * a
    return best, first, last, (0 if lam is INFINITY else lam[i - 1]) - suffix


def weight_of(datum: RootDatum, word, lam, coords):
    """Fundamental coordinates of the weight: lam - sum a_k alpha_{i_k}
    (just the negative sum at infinity)."""
    _validate(datum, word, lam)
    _check_state(word, coords)
    n = datum.rank
    out = [0] * n if lam is INFINITY else list(lam)
    for k, a in enumerate(coords):
        if a:
            alpha = simple_root_in_fundamental(datum, word[k])
            for j in range(n):
                out[j] -= a * alpha[j]
    return tuple(out)


def epsilon(datum: RootDatum, word, lam, coords, i: int) -> int:
    best, _, _, wt_i = _sigma_profile(datum, word, lam, coords, i)
    return best if lam is INFINITY else max(best, -wt_i)


def phi(datum: RootDatum, word, lam, coords, i: int) -> int:
    best, _, _, wt_i = _sigma_profile(datum, word, lam, coords, i)
    return (best if lam is INFINITY else max(best, -wt_i)) + wt_i


def f_op(datum: RootDatum, word, lam, coords, i: int):
    """Lower by alpha_i; None at the cutoff, never None at infinity."""
    best, first, _, wt_i = _sigma_profile(datum, word, lam, coords, i)
    if lam is not INFINITY and best + wt_i <= 0:
        if best + wt_i < 0:
            raise CorruptElementError("negative phi: element outside the cut crystal")
        return None
    if first is None:
        # all stored letter-i sigmas are negative while the tail is zero
        raise CorruptElementError("lowering argmin beyond stored coordinates")
    out = list(coords)
    out[first - 1] += 1
    return tuple(out)


def e_op(datum: RootDatum, word, lam, coords, i: int):
    """Raise by alpha_i; None when no raise is possible."""
    best, _, last, wt_i = _sigma_profile(datum, word, lam, coords, i)
    if best == 0:
        return None
    if lam is not INFINITY and best + wt_i < 0:
        # the raise would act on the cutoff factor
        return None
    if not coords[last - 1]:
        raise CorruptElementError("raising argmax on a zero coordinate: element outside the crystal")
    out = list(coords)
    out[last - 1] -= 1
    return tuple(out)


# ---------------------------------------------------------------------------
# the operator table


def _weight(lam):
    """lam as a tuple, so that a list keys the caches too."""
    return lam if lam is INFINITY else tuple(lam)


def is_certified_word(datum: RootDatum, word) -> bool:
    return tuple(word) == standard_word(datum)


class _OperatorTable(NamedTuple):
    keys: tuple    # the cut crystal in breadth-first order, the highest first,
                   # each state packed into one int, coordinate p in bit field p
    width: int     # bits per field: those of depth, and at least 1
    depth: int     # <lam, 2 rho^vee>, the coordinate sum of the lowest state,
                   # which no coordinate passes
    down: tuple    # down[i - 1][k]: index of f_i of state k, or -1
    up: tuple      # up[i - 1][k]: index of e_i of state k, or -1
    eps: tuple     # eps[i - 1][k]: epsilon_i of state k
    lowest: int    # index of the one state every f_i kills


def _depth(datum: RootDatum, lam) -> int:
    """<lam, 2 rho^vee> = sum over the positive coroots beta^vee of
    <lam, beta^vee>, which is k . lam for the simple-coroot coefficients k of
    beta^vee (`positive_coroots`): the height of lam - w_0 lam, so the
    coordinate sum of the lowest state.  Every state's coordinate sum is the
    height of lam - wt, and every weight of B(lam) lies above w_0 lam in the
    dominance order, so no coordinate of any state passes it."""
    return sum(sum(map(mul, k, lam)) for k in positive_coroots(datum))


def _coords(table: _OperatorTable, key: int, length: int) -> tuple:
    """The coordinates of a packed key: its `length` fields of `table.width`
    bits, field p being coordinate p."""
    width = table.width
    field = (1 << width) - 1
    return tuple((key >> (width * p)) & field for p in range(length))


def _invert(step) -> list:
    """The inverse of one letter's lowering indices: e_i f_i b = b, so e_i is
    f_i read backwards, which needs f_i injective."""
    out = [-1] * len(step)
    for k, j in enumerate(step):
        if j >= 0:
            if out[j] >= 0:
                raise InvariantError("lowering is not injective")
            out[j] = k
    return out


@lru_cache(maxsize=None)
def _statistics_layout(datum: RootDatum, word) -> tuple:
    """(letters, where, deltas): how a state's statistics are laid out and
    how one lowering moves them.

    A state's statistics are one flat list: the letter-1 sigmas at the
    positions of letter 1 in word order, then the letter-2 sigmas, and so on,
    then <wt, h_j> for every letter j.  letters[i - 1] is (lo, hi, slot):
    letter i's sigmas sit at [lo, hi) and its weight pairing at slot.
    where[s] is the 0-based word position of the sigma at s.  Raising a_p by
    one adds deltas[p]: c_{j, i_p} to each letter-j sigma before p, 1 to the
    sigma at p, nothing after p, and -c_{j, i_p} to <wt, h_j>."""
    c = cartan_matrix(datum)
    letters, where = [], []
    for i in range(1, datum.rank + 1):
        lo = len(where)
        where.extend(p for p, letter in enumerate(word) if letter == i)
        letters.append((lo, len(where), len(word) + i - 1))
    deltas = tuple(
        tuple(c[word[q] - 1][word[p] - 1] if q < p else int(q == p) for q in where)
        + tuple(-c[j][word[p] - 1] for j in range(datum.rank))
        for p in range(len(word))
    )
    return tuple(letters), tuple(where), deltas


@lru_cache(maxsize=None)
def _operator_table(datum: RootDatum, word, lam) -> _OperatorTable:
    """The cut crystal and its operators over integer indices.

    The states are the breadth-first closure of the zero vector, state 0,
    under lowering, each packed into one int key: coordinate p sits in bit
    field p, and lowering at position p adds the unit of field p.  The field
    width holds the depth (`_depth`), which no coordinate passes, so no field
    carries into the next.  Each state carries its sigma statistics and
    weight pairings (`_statistics_layout`) instead of sweeping its
    coordinates per letter: a new state gets its parent's statistics plus the
    delta of the position that lowered, and drops them once expanded.  Per
    letter, the largest sigma and its first position give f_i and eps_i,
    with the checks of `f_op`; raising is lowering inverted, and the one
    state every letter kills is the lowest, whose decoded coordinates must
    sum to the depth.  Every later crystal layer reads this table."""
    _validate(datum, word, lam)
    if lam is INFINITY:
        raise ValueError("the crystal at infinity is infinite; pass a dominant weight")
    letters, where, deltas = _statistics_layout(datum, word)
    depth = _depth(datum, lam)
    width = depth.bit_length() or 1
    unit = [1 << (width * p) for p in range(len(word))]
    keys = [0]
    index = {0: 0}
    down = [[] for _ in letters]
    eps = [[] for _ in letters]
    # the statistics of the states not yet expanded, in table order
    pending = deque([[0] * len(where) + list(lam)])
    lowest = []
    for k, key in enumerate(keys):  # visits the states appended on the way
        stats = pending.popleft()
        killed = True
        for (lo, hi, slot), down_i, eps_i in zip(letters, down, eps):
            top = max(stats[lo:hi])
            best = top if top > 0 else 0
            wt_i = stats[slot]
            if best + wt_i < 0:
                raise CorruptElementError("negative phi: element outside the cut crystal")
            eps_i.append(best if best > -wt_i else -wt_i)
            if best + wt_i == 0:
                down_i.append(-1)
                continue
            if top < 0:
                raise CorruptElementError("lowering argmin beyond stored coordinates")
            killed = False
            p = where[stats.index(top, lo, hi)]
            nxt = key + unit[p]
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(keys)
                keys.append(nxt)
                pending.append(list(map(add, stats, deltas[p])))
            down_i.append(j)
        if killed:
            lowest.append(k)
    if len(lowest) != 1:
        raise InvariantError("lowest element not unique")
    table = _OperatorTable(
        tuple(keys),
        width,
        depth,
        tuple(tuple(row) for row in down),
        tuple(tuple(_invert(row)) for row in down),
        tuple(tuple(row) for row in eps),
        lowest[0],
    )
    if sum(_coords(table, table.keys[table.lowest], len(word))) != table.depth:
        raise InvariantError("the lowest state's coordinates do not sum to the depth %d" % depth)
    return table


def crystal_states(datum: RootDatum, word, lam) -> tuple:
    """All elements of the cut crystal in ladder coordinates, sorted: the
    table's keys decoded."""
    word = tuple(word)
    table = _operator_table(datum, word, _weight(lam))
    return tuple(sorted(_coords(table, key, len(word)) for key in table.keys))


def string_coords(datum: RootDatum, word, lam, state) -> tuple:
    """String parametrization of one cut-crystal element, read off the
    certified strings of `string_incidence` at the state's place in the
    table's keys."""
    word, lam, state = tuple(word), _weight(lam), tuple(state)
    table = _operator_table(datum, word, lam)
    key = sum(a << (table.width * p) for p, a in enumerate(state))
    packed = len(state) == len(word) and all(0 <= a <= table.depth for a in state)
    if not packed or key not in table.keys:
        raise InvariantError("non-normal state: not in the generated crystal")
    return string_incidence(datum, word, lam)[0][table.keys.index(key)]


def _string_table(datum: RootDatum, word, lam) -> tuple:
    """The string coords of every table state, in table order, by suffix
    table; `string_incidence` is its one caller, and holds the result.

    The string of b is (a_1, tail(e_{i_1}^{a_1} b)), where the tail is the
    string of the raised element from position 2 on.  Each distinct state
    reaching position p is raised there once, along the table's raising
    indices, so the work is the sum of the level sizes rather than N times
    the crystal; a level keeps each state's top, its count being its epsilon."""
    table = _operator_table(datum, word, lam)
    levels = []
    frontier = range(len(table.keys))
    for i in word:
        up, eps = table.up[i - 1], table.eps[i - 1]
        step = {}
        for b in frontier:
            top, count = b, 0
            while up[top] >= 0:
                top = up[top]
                count += 1
            if count != eps[b]:
                raise InvariantError("non-normal state: not in the generated crystal")
            step[b] = top
        levels.append((eps, step))
        frontier = set(step.values())
    if frontier != {0}:
        raise InvariantError("string extraction did not reach the top")
    tails = {0: ()}
    for eps, step in reversed(levels):
        tails = {b: (eps[b],) + tails[top] for b, top in step.items()}
    strings = tuple(tails[k] for k in range(len(table.keys)))
    if len(set(strings)) != len(strings):
        raise InvariantError("string parametrization not injective")
    return strings


@lru_cache(maxsize=None)
def string_incidence(datum: RootDatum, word, lam) -> tuple:
    """(points, masks): the strings of B(lam) in table order, and per row the
    bitmask over them of the strings tight on it (`polytopes.slack_masks`).

    On the standard word the rows are the string polytope's, the N
    lambda-bound rows followed by the N cone rows, and the points are
    certified to be its lattice points (Littelmann 1998, Berenstein-Zelevinsky
    2001): every string satisfies every row, read off the same packed slacks
    as the masks, and an exact count of the lattice points
    (`polytopes.lattice_count`) equals the number of strings, which
    `_string_table` has checked distinct.  Either failure raises
    `CrystalPolytopeMismatchError`.  On any other reduced word of the longest
    element the rows are the lambda-bound ones alone and only the
    containment is checked: the cone rows of that word are not built, so
    nothing bounds the count.  Then each facet block, the lambda rows and
    (on the standard word) the cone rows, must have a string on all its rows
    (`polytopes.check_blocks_meet`), so that no face the tables cut is
    empty."""
    points = _string_table(datum, word, lam)
    certified = is_certified_word(datum, word)
    if certified:
        polytope = polytopes.string_polytope(datum, lam)
        rows = polytope.ineqs
    else:
        rows = []
        for j in range(1, len(word) + 1):
            vec, lam_vec = polytopes.string_lambda_facet(datum, word, j)
            rows.append((vec, sum(a * b for a, b in zip(lam_vec, lam))))
    masks, outside = polytopes.slack_masks(rows, points)
    if outside:
        raise CrystalPolytopeMismatchError(
            "string %r lies outside the string polytope" % (polytopes.mask_points(outside, points)[0],)
        )
    if certified:
        count = polytopes.lattice_count(polytope)
        if count != len(points):
            raise CrystalPolytopeMismatchError(
                "crystal generation has %d points, string polytope %d" % (len(points), count)
            )
    polytopes.check_blocks_meet(masks, len(word))
    return points, masks


def generate_b_lambda(datum: RootDatum, word, lam) -> polytopes.PointSet:
    """Phi(B(lam)) as a view of every string of `string_incidence`, the full
    mask: on the standard word certified equal to the lattice points of the
    string polytope; on any other reduced word of the longest element
    experimental, checked only against the lambda-bound rows."""
    word, lam = tuple(word), _weight(lam)
    size = len(_operator_table(datum, word, lam).keys)
    return _strings(datum, word, lam, (1 << size) - 1)


# ---------------------------------------------------------------------------
# Demazure folds


def _closure(step, members: int) -> int:
    """The closure of an index set under one letter's operator indices, both
    as int masks over the table order.  The members become flag bytes, with
    one more set flag at the end for the index -1 that ends every chain
    (`polytopes.mask_flags`); every chain then advances one step per round
    until it meets a flagged index, the indices it reaches are flagged, and
    the flags are packed back (`polytopes.flags_mask`)."""
    flags = polytopes.mask_flags(members, len(step))
    flags.append(1)
    fresh = list(filterfalse(flags.__getitem__, compress(step, flags)))
    while fresh:
        for j in fresh:
            flags[j] = 1
        fresh = list(filterfalse(flags.__getitem__, map(step.__getitem__, fresh)))
    del flags[-1]
    return polytopes.flags_mask(flags)


@lru_cache(maxsize=None)
def _demazure_indices(datum: RootDatum, word, w: WeylElement, lam) -> int:
    """The mask over the table order of B_w(lam), by Kashiwara's recursion:
    B_e is the highest element, table state 0, and B_w = F_i B_{s_i w} for
    the smallest left descent i of w."""
    check_group(datum, w)
    table = _operator_table(datum, word, lam)
    descents = left_descents(w)
    if not descents:
        return 1
    i = descents[0]
    return _closure(table.down[i - 1], _demazure_indices(datum, word, left_mul(i, w), lam))


@lru_cache(maxsize=None)
def _opposite_indices(datum: RootDatum, word, w: WeylElement, lam) -> int:
    """The mask over the table order of B^w(lam): B^{w_0} is the lowest
    element and B^w = E_i B^{s_i w} for the smallest left ascent i of w."""
    check_group(datum, w)
    table = _operator_table(datum, word, lam)
    ascents = left_ascents(w)
    if not ascents:
        return 1 << table.lowest
    i = ascents[0]
    return _closure(table.up[i - 1], _opposite_indices(datum, word, left_mul(i, w), lam))


def _strings(datum, word, lam, mask) -> polytopes.PointSet:
    """The certified strings of B(lam) at the bits of a mask over the table
    order, as a view over `string_incidence`'s strings."""
    return polytopes.PointSet(mask, string_incidence(datum, word, lam)[0])


def demazure_crystal(datum: RootDatum, word, w, lam) -> polytopes.PointSet:
    word, lam = tuple(word), _weight(lam)
    return _strings(datum, word, lam, _demazure_indices(datum, word, w, lam))


def opposite_demazure_crystal(datum: RootDatum, word, w, lam) -> polytopes.PointSet:
    word, lam = tuple(word), _weight(lam)
    return _strings(datum, word, lam, _opposite_indices(datum, word, w, lam))


def check_richardson(v, w):
    if not bruhat_leq(v, w):
        raise ValueError("need v <= w in Bruhat order")


def richardson_lattice_points(datum: RootDatum, word, v, w, lam) -> polytopes.PointSet:
    """String image of the intersection of B_w(lam) with B^v(lam), the AND
    of their masks; requires v <= w in Bruhat order."""
    check_richardson(v, w)
    word, lam = tuple(word), _weight(lam)
    mask = _demazure_indices(datum, word, w, lam) & _opposite_indices(datum, word, v, lam)
    return _strings(datum, word, lam, mask)
