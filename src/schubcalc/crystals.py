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

The cut crystal at one (datum, word, lam) has one cached record
(`_crystal`) behind one checked door (`record`), which every crystal reader
and both face decompositions take once per call.  Its operator table
(`_operator_table`) is the breadth-first closure of the highest element
under lowering, with per letter the index of f_i of every state, its inverse
e_i (e_i f_i b = b), eps_i, and the lowest element.  Each state is one int
key, and its sigmas and weight pairings ride along as one more int, so the
build sweeps no coordinates and decides each letter's lowering once per
distinct group of that letter's statistics.  Only `crystal_states` decodes
the keys, and `string_coords` packs the state it is given.  `f_op`, `e_op`,
`epsilon` and `phi` keep the one-state sweep; they, `weight_of` and
`string_coords` refuse a word, weight or state outside their domain with
ValueError, through `_validate` and `_check_state`.  The Demazure folds follow
Kashiwara's recursion, B_w = F_i B_{s_i w} for a left descent i and
B^w = E_i B^{s_i w} for a left ascent i: `fold` walks both, each fold one
closure, on flag bytes, of a smaller int mask filed in the record.

These coordinates are the embedding coordinates of an element's
canonical lift, NOT its string parametrization: the two differ already in rank
two.  The string of b is (a_1, tail(e_{i_1}^{a_1} b)): the number of raises
by the first letter, then the string of the raised element along the rest of
the word.  `_string_table` computes these tails per word position and state
over the whole cut crystal, each state's top read off its parent's, so the
table costs the sum of the level sizes.  The record holds the strings with
one bitmask per string-polytope row over them, certified as the polytope's
lattice points by containment and count when it is built.  Every
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

import sys
from array import array
from collections import deque
from functools import lru_cache
from itertools import chain, compress, filterfalse
from operator import itemgetter, lshift, mul
from typing import NamedTuple

from . import polytopes
from .cartan import (
    InvariantError,
    RootDatum,
    WeylElement,
    bruhat_leq,
    cartan_matrix,
    check_group,
    check_integers,
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
    check_integers("state", coords)
    if len(coords) != len(word):
        raise ValueError("state %r does not have the %d coordinates of word %r" % (coords, len(word), word))
    if any(a < 0 for a in coords):
        raise ValueError("state %r has a negative coordinate" % (coords,))


def _sigma_profile(datum, word, lam, coords, i):
    """(best, first, last, wt_i) from one backward sweep: best is the max of 0
    and the letter-i sigmas, first/last the smallest/largest position attaining
    it (None when none does), wt_i = <wt, h_i>.  The suffix sum left after
    position 1 is <sum a_k alpha_{i_k}, h_i>, so wt_i is lam_i minus it."""
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


def _checked_profile(datum, word, lam, coords, i):
    """`_sigma_profile` of the one-state readers, once the word, weight,
    state and letter are checked."""
    _validate(datum, word, lam)
    _check_state(word, coords)
    check_letter(datum, i)
    return _sigma_profile(datum, word, lam, coords, i)


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
    best, _, _, wt_i = _checked_profile(datum, word, lam, coords, i)
    return best if lam is INFINITY else max(best, -wt_i)


def phi(datum: RootDatum, word, lam, coords, i: int) -> int:
    best, _, _, wt_i = _checked_profile(datum, word, lam, coords, i)
    return (best if lam is INFINITY else max(best, -wt_i)) + wt_i


def f_op(datum: RootDatum, word, lam, coords, i: int):
    """Lower by alpha_i; None at the cutoff, never None at infinity."""
    best, first, _, wt_i = _checked_profile(datum, word, lam, coords, i)
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
    best, _, last, wt_i = _checked_profile(datum, word, lam, coords, i)
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
    width, field = table.width, (1 << table.width) - 1
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
def _statistics_layout(datum: RootDatum, word, bits: int) -> tuple:
    """(letters, moves): a state's statistics in fields of `bits` bits, v
    stored as v + 2^(bits - 1), letter by letter its sigmas in word order and
    then <wt, h_i>.  letters[i - 1] is (shift, mask, tops, where): letter i's
    group is stats >> shift & mask, tops the top bit of each of its fields,
    where the 0-based word positions of its sigmas.  Raising a_p adds
    moves[p]: c_{i, i_p} to each letter-i sigma before p, 1 to the sigma at
    p, nothing after p, and -c_{i, i_p} to <wt, h_i>."""
    letters, shift = [], 0
    for i in range(1, datum.rank + 1):
        where = tuple(p for p, letter in enumerate(word) if letter == i)
        mask = (1 << bits * (len(where) + 1)) - 1
        letters.append((shift, mask, mask // ((1 << bits) - 1) << bits - 1, where))
        shift += bits * (len(where) + 1)
    moves = []
    for p, letter in enumerate(word):
        row = []
        for (*_, where), c_row in zip(letters, cartan_matrix(datum)):
            pull = c_row[letter - 1]
            row.extend(pull if q < p else int(q == p) for q in where)
            row.append(-pull)
        moves.append(sum(map(lshift, row, range(0, bits * len(row), bits))))
    return tuple(letters), tuple(moves)


_FIELDS = {array(code).itemsize * 8: code for code in "qlihb"}  # array codes by width


def _field_bits(bound: int) -> int:
    """The narrowest of 8, 16, 32 and 64 bits past the bit length of bound."""
    bits = max(8, 1 << bound.bit_length().bit_length())
    if bits not in _FIELDS:
        raise OverflowError("crystal statistics of %d bits do not fit a 64-bit field" % bound.bit_length())
    return bits


def _fields(group: int, tops: int, bits: int) -> array:
    """The values in a group of fields, tops holding their top bits: v +
    2^(bits - 1) with its top bit flipped is v in two's complement."""
    return array(_FIELDS[bits], (group ^ tops).to_bytes(tops.bit_length() + 7 >> 3, sys.byteorder))


def _decide(group, tops, where, bits, unit, moves) -> tuple:
    """(key step, statistics step, eps_i) at a letter's group, checked as in `f_op`; 0 steps kill."""
    *values, wt = _fields(group, tops, bits)
    top = max(values)
    best = top if top > 0 else 0
    if best + wt < 0:
        raise CorruptElementError("negative phi: element outside the cut crystal")
    eps = best if best > -wt else -wt
    if best + wt == 0:
        return 0, 0, eps
    if top < 0:
        raise CorruptElementError("lowering argmin beyond stored coordinates")
    p = where[values.index(top)]
    return unit[p], moves[p], eps


def _operator_table(datum: RootDatum, word, lam) -> _OperatorTable:
    """The cut crystal and its operators over integer indices: the
    breadth-first closure of the zero vector, state 0, under lowering.  Each
    state is one int key, coordinate p in bit field p, as wide as the depth,
    which no coordinate passes, and its statistics ride along as one more
    int (`_statistics_layout`), each lam_i plus a combination, with Cartan
    entries, 1 and 0 for coefficients, of coordinates >= 0 summing to at
    most the depth, which bounds the field width.  Lowering at p adds the
    unit of field p to the key and the move of p to the statistics.  Letter
    i's lowering reads only its own group of fields (Nakashima-Zelevinsky
    1997), so it is decided once per distinct group (`_decide`).  Raising is
    lowering inverted, eps is read off the decisions, and the state every
    letter kills is the lowest: its coordinates must sum to the depth, and
    a sweep of them (`_sigma_profile`) must give the statistics it carries.
    The weight is checked by `record`, the one way to the table's builder."""
    check_word_of_longest(datum, word)
    depth = _depth(datum, lam)
    width = depth.bit_length() or 1
    unit = [1 << (width * p) for p in range(len(word))]
    bits = _field_bits(max(map(abs, chain.from_iterable(cartan_matrix(datum)))) * depth + max(lam))
    letters, moves = _statistics_layout(datum, word, bits)
    keys, index = [0], {0: 0}
    highest = sum((tops + (x << bits * len(where))) << shift for (shift, _, tops, where), x in zip(letters, lam))
    pending = deque([highest])  # the statistics of the states not yet expanded
    down, decided = [[] for _ in letters], [[] for _ in letters]
    steps = [(*letter, {}, decided_i, down_i) for letter, decided_i, down_i in zip(letters, decided, down)]
    lowest = []
    for key in keys:  # visits the states appended on the way
        s = pending.popleft()
        killed = True
        for shift, mask, tops, where, seen, decided_i, down_i in steps:
            group = s >> shift & mask
            d = seen.get(group)
            if d is None:
                d = seen[group] = _decide(group, tops, where, bits, unit, moves)
            decided_i.append(d)
            if not d[0]:
                down_i.append(-1)
                continue
            killed = False
            nxt = key + d[0]
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(keys)
                keys.append(nxt)
                pending.append(s + d[1])
            down_i.append(j)
        if killed:
            lowest.append((key, s))
    if len(lowest) != 1:
        raise InvariantError("lowest element not unique")
    (low, low_stats), = lowest
    up = tuple(tuple(_invert(row)) for row in down)
    eps = tuple(tuple(map(itemgetter(2), row)) for row in decided)
    table = _OperatorTable(tuple(keys), width, depth, tuple(map(tuple, down)), up, eps, index[low])
    coords = _coords(table, table.keys[table.lowest], len(word))
    if sum(coords) != table.depth:
        raise InvariantError("the lowest state's coordinates do not sum to the depth %d" % depth)
    for i, (shift, mask, tops, where) in enumerate(letters, 1):
        *sigmas, wt = _fields(low_stats >> shift & mask, tops, bits)
        best = max(0, *sigmas)
        hits = [p + 1 for p, sigma in zip(where, sigmas) if sigma == best] or [None]
        if (best, hits[0], hits[-1], wt) != _sigma_profile(datum, word, lam, coords, i):
            raise InvariantError("the lowest state's statistics in %d-bit fields do not match its coordinates" % bits)
    return table


def crystal_states(datum: RootDatum, word, lam) -> tuple:
    """All elements of the cut crystal in ladder coordinates, sorted: the
    record's keys decoded."""
    table = record(datum, word, lam).table
    return tuple(sorted(_coords(table, key, len(word)) for key in table.keys))


def string_coords(datum: RootDatum, word, lam, state) -> tuple:
    """String parametrization of one cut-crystal element, read off the
    record's certified strings at the state's place in the table's keys; a
    well-formed state outside the table raises InvariantError."""
    table, strings, *_ = record(datum, word, lam)
    state = tuple(state)
    _check_state(word, state)
    # a coordinate past the depth could pack onto another state's key
    if max(state) <= table.depth:
        key = sum(a << (table.width * p) for p, a in enumerate(state))
        try:
            return strings[table.keys.index(key)]
        except ValueError:
            pass
    raise InvariantError("non-normal state: not in the generated crystal")


def _string_table(table: _OperatorTable, word) -> tuple:
    """The string coords of every table state, in table order, by suffix
    table; the record's builder `_crystal` is its one caller.

    The string of b is (a_1, tail(e_{i_1}^{a_1} b)), where the tail is the
    string of the raised element from position 2 on.  Each distinct state
    reaching position p is raised there once, along the table's raising
    indices, so the work is the sum of the level sizes rather than N times
    the crystal; a level keeps each state's top, its count being its epsilon.
    In table order e_i b comes before b (a state's depth is its coordinate
    sum), so b takes the top of e_i b when e_i b is in the level."""
    levels = []
    frontier = range(len(table.keys))
    for i in word:
        up, eps = table.up[i - 1], table.eps[i - 1]
        step = {}
        for b in sorted(frontier):
            parent = up[b]
            if parent in step:
                count, top = eps[parent] + 1, step[parent]
            else:
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


class _Crystal(NamedTuple):
    table: _OperatorTable  # the operators over the table order
    strings: tuple         # the certified strings, in table order
    masks: tuple           # per row, the bitmask over the strings tight on it
    folds: dict            # (opposite, w) -> the mask of B^w or B_w, filled on first read
    datum: RootDatum       # the group of every w in folds


@lru_cache(maxsize=None)
def _crystal(datum: RootDatum, word, lam) -> _Crystal:
    """The record at (datum, word, lam): its operator table, its strings,
    per row the mask over them of the strings tight on it, and its folds.

    On the standard word the rows are the string polytope's, the N
    lambda-bound rows followed by the N cone rows, and the strings are
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
    (`polytopes.check_blocks_meet`), so that no face is empty."""
    table = _operator_table(datum, word, lam)
    points = _string_table(table, word)
    certified = is_certified_word(datum, word)
    if certified:
        polytope = polytopes.string_polytope(datum, lam)
        rows = polytope.ineqs
    else:
        facets = (polytopes.string_lambda_facet(datum, word, j) for j in range(1, len(word) + 1))
        rows = [(vec, sum(map(mul, lam_vec, lam))) for vec, lam_vec in facets]
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
    return _Crystal(table, points, masks, {}, datum)


def record(datum: RootDatum, word, lam) -> _Crystal:
    """The record at (datum, word, lam), word and lam as tuples so that lists
    key the cache too; their entries are checked here, the word when it is built."""
    if lam is INFINITY:
        raise ValueError("the crystal at infinity is infinite; pass a dominant weight")
    check_weight(datum, lam)  # before the cache: no 1.0 finds the record of 1
    word = tuple(word)
    check_integers("word", word)  # likewise, no letter 1.0 finds the record of 1
    return _crystal(datum, word, tuple(lam))


def _view(datum, word, lam, *folds) -> polytopes.PointSet:
    """The record's strings in the AND of the (w, opposite) folds, or all."""
    rec = record(datum, word, lam)
    mask = (1 << len(rec.strings)) - 1
    for w, opposite in folds:
        mask &= fold(rec, w, opposite)
    return polytopes.PointSet(mask, rec.strings)


def generate_b_lambda(datum: RootDatum, word, lam) -> polytopes.PointSet:
    """Phi(B(lam)) as a view of every certified string, the full mask: on
    the standard word certified equal to the lattice points of the string
    polytope; on any other reduced word of the longest element
    experimental, checked only against the lambda-bound rows."""
    return _view(datum, word, lam)


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


def fold(record: _Crystal, w: WeylElement, opposite: bool) -> int:
    """The mask of B_w(lam), or of B^w(lam) when opposite, filed in the
    record: B_e is state 0, B_w = F_i B_{s_i w} for the least left descent i
    of w, B^{w_0} the lowest state, B^w = E_i B^{s_i w} for the least ascent."""
    mask = record.folds.get((opposite, w))
    if mask is None:
        check_group(record.datum, w)
        letters, table = left_ascents(w) if opposite else left_descents(w), record.table
        if not letters:
            mask = 1 << table.lowest if opposite else 1
        else:
            step = (table.up if opposite else table.down)[letters[0] - 1]
            mask = _closure(step, fold(record, left_mul(letters[0], w), opposite))
        record.folds[opposite, w] = mask
    return mask


def demazure_crystal(datum: RootDatum, word, w, lam) -> polytopes.PointSet:
    return _view(datum, word, lam, (w, False))


def opposite_demazure_crystal(datum: RootDatum, word, w, lam) -> polytopes.PointSet:
    return _view(datum, word, lam, (w, True))


def check_richardson(v, w):
    if not bruhat_leq(v, w):
        raise ValueError("need v <= w in Bruhat order")


def richardson_lattice_points(datum: RootDatum, word, v, w, lam) -> polytopes.PointSet:
    """String image of the intersection of B_w(lam) with B^v(lam), the AND
    of their masks; requires v <= w in Bruhat order."""
    check_richardson(v, w)
    return _view(datum, word, lam, (w, False), (v, True))
