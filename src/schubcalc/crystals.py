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
e_i (e_i f_i b = b), eps_i, and the lowest element: `down` and `up` are
tuples of index ints, `up` sharing the int objects of `down`, and eps is one
unsigned array per letter whose items hold the depth.  The build keys each
state by its sigmas and weight pairings, packed into one int, which
determine its coordinates, so it sweeps no coordinates and decides each
letter's lowering once per distinct group of that letter's statistics; the
table keeps no coordinates.  `f_op`, `e_op`, `epsilon` and `phi` keep the
one-state sweep, through which the build's witness, `crystal_states` and
`string_coords` replay coordinates along the table; they, `weight_of` and
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
table costs the sum of the level sizes.  A tail is one int, coordinate p in
byte field p, as wide as the eps items, so a string is one packed int, and
the record's strings (`_Strings`) are a read-only sequence that decodes one
string to its tuple on index, iterating and slicing it index by
index.  The record holds them with one bitmask per string-polytope row over
them, certified as the polytope's lattice points by containment and count
when it is built, the containment reading each coordinate off the strings'
bytes, joined once and widened by one strided slice per byte lane.  Every
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

from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, compress, filterfalse
from operator import lshift, mul
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


def _checked(datum, word, lam, coords, i) -> tuple:
    """A one-state reader's arguments to `_sigma_profile`, each one checked."""
    _validate(datum, word, lam)
    _check_state(word, coords)
    check_letter(datum, i)
    return datum, word, lam, coords, i


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
    best, _, _, wt_i = _sigma_profile(*_checked(datum, word, lam, coords, i))
    return best if lam is INFINITY else max(best, -wt_i)


def phi(datum: RootDatum, word, lam, coords, i: int) -> int:
    best, _, _, wt_i = _sigma_profile(*_checked(datum, word, lam, coords, i))
    return (best if lam is INFINITY else max(best, -wt_i)) + wt_i


def _lower(datum, word, lam, coords, i):
    """`f_op` of checked arguments, by one sweep."""
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


def f_op(datum: RootDatum, word, lam, coords, i: int):
    """Lower by alpha_i; None at the cutoff, never None at infinity."""
    return _lower(*_checked(datum, word, lam, coords, i))


def _raise(datum, word, lam, coords, i):
    """`e_op` of checked arguments, by one sweep."""
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


def e_op(datum: RootDatum, word, lam, coords, i: int):
    """Raise by alpha_i; None when no raise is possible."""
    return _raise(*_checked(datum, word, lam, coords, i))


# ---------------------------------------------------------------------------
# the operator table


def is_certified_word(datum: RootDatum, word) -> bool:
    return tuple(word) == standard_word(datum)


class _OperatorTable(NamedTuple):
    depth: int     # <lam, 2 rho^vee>, the coordinate sum of the lowest state,
                   # which no coordinate passes
    down: tuple    # down[i - 1][k]: index of f_i of state k, or -1
    up: tuple      # up[i - 1][k]: index of e_i of state k, or -1
    eps: tuple     # eps[i - 1][k]: epsilon_i of state k, one unsigned array
                   # per letter whose items hold the depth
    lowest: int    # index of the one state every f_i kills


def _depth(datum: RootDatum, lam) -> int:
    """<lam, 2 rho^vee> = sum over the positive coroots beta^vee of
    <lam, beta^vee>, which is k . lam for the simple-coroot coefficients k of
    beta^vee (`positive_coroots`): the height of lam - w_0 lam, so the
    coordinate sum of the lowest state.  Every state's coordinate sum is the
    height of lam - wt, and every weight of B(lam) lies above w_0 lam in the
    dominance order, so no coordinate of any state passes it."""
    return sum(sum(map(mul, k, lam)) for k in positive_coroots(datum))


def _invert(step, ids) -> list:
    """The inverse of one letter's lowering indices: e_i f_i b = b, so e_i is
    f_i read backwards, which needs f_i injective.  ids[k] is the index k,
    one int object that the inverses of every letter share."""
    out = [-1] * len(step)
    for k, j in zip(ids, step):
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


def _fields(group: int, tops: int, bits: int):
    """The values in a group of fields, tops holding their top bits: v +
    2^(bits - 1) with its top bit flipped is v in two's complement."""
    return polytopes.unpack_fields(group ^ tops, tops.bit_length() // bits, bits >> 3, True)


def _decide(group, tops, where, bits, moves) -> tuple:
    """(statistics step, eps_i) at a letter's group, checked as in `f_op`; a 0 step kills."""
    *values, wt = _fields(group, tops, bits)
    top = max(values)
    best = top if top > 0 else 0
    if best + wt < 0:
        raise CorruptElementError("negative phi: element outside the cut crystal")
    eps = best if best > -wt else -wt
    if best + wt == 0:
        return 0, eps
    if top < 0:
        raise CorruptElementError("lowering argmin beyond stored coordinates")
    p = where[values.index(top)]
    return moves[p], eps


def _operator_table(datum: RootDatum, word, lam) -> _OperatorTable:
    """The cut crystal and its operators over integer indices: the
    breadth-first closure of the highest state, state 0, under lowering,
    each state keyed by its statistics, one int (`_statistics_layout`):
    every word position carries one sigma, unitriangular in the coordinates
    (Nakashima-Zelevinsky 1997), so they determine the state.  Each is
    lam_i plus a combination, with Cartan entries, 1 and 0 for
    coefficients, of coordinates >= 0 summing to at most the depth, which
    bounds the field width.  Lowering at p adds the move of p, and letter
    i's lowering, reading only its group of fields, is decided once per
    distinct group (`_decide`).  Raising is lowering inverted, eps is read
    off the decisions, and the state every letter kills is the lowest: the
    one-state sweep (`_lower`) must walk there from state 0 in depth steps,
    each by the least letter that lowers, and give the statistics it
    carries.  The weight is checked by `record`."""
    check_word_of_longest(datum, word)
    depth = _depth(datum, lam)
    size = polytopes.field_size(depth.bit_length())
    bound = max(map(abs, chain.from_iterable(cartan_matrix(datum)))) * depth + max(lam)
    bits = 8 * polytopes.field_size(bound.bit_length() + 1)  # and a sign bit
    letters, moves = _statistics_layout(datum, word, bits)
    highest = sum((tops + (x << bits * len(where))) << shift for (shift, _, tops, where), x in zip(letters, lam))
    states, index = [highest], {highest: 0}
    down, eps = [[] for _ in letters], [polytopes.field_array(size) for _ in letters]
    steps = [(*letter, {}, eps_i, down_i) for letter, eps_i, down_i in zip(letters, eps, down)]
    lowest = []
    for s in states:  # visits the states appended on the way
        killed = True
        for shift, mask, tops, where, seen, eps_i, down_i in steps:
            group = s >> shift & mask
            d = seen.get(group)
            if d is None:
                d = seen[group] = _decide(group, tops, where, bits, moves)
            eps_i.append(d[1])
            if not d[0]:
                down_i.append(-1)
                continue
            killed = False
            nxt = s + d[0]
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(states)
                states.append(nxt)
            down_i.append(j)
        if killed:
            lowest.append(s)
    if len(lowest) != 1:
        raise InvariantError("lowest element not unique")
    (low_stats,) = lowest
    ids, low = list(index.values()), index[low_stats]  # the index ints that down holds
    del index, states
    for i, row in enumerate(down):
        down[i] = tuple(row)
    up = tuple(tuple(_invert(row, ids)) for row in down)
    table = _OperatorTable(depth, tuple(down), up, tuple(eps), low)
    coords, k = (0,) * len(word), 0
    while coords and k != table.lowest and sum(coords) < depth:
        i = next((i for i, row in enumerate(table.down, 1) if row[k] >= 0), None)
        if i is None:
            break
        coords, k = _lower(datum, word, lam, coords, i), table.down[i - 1][k]
    if not coords or k != table.lowest or sum(coords) != depth:
        raise InvariantError("the lowest state's coordinates do not sum to the depth %d" % depth)
    for i, (shift, mask, tops, where) in enumerate(letters, 1):
        *sigmas, wt = _fields(low_stats >> shift & mask, tops, bits)
        best = max(0, *sigmas)
        hits = [p + 1 for p, sigma in zip(where, sigmas) if sigma == best] or [None]
        if (best, hits[0], hits[-1], wt) != _sigma_profile(datum, word, lam, coords, i):
            raise InvariantError("the lowest state's statistics in %d-bit fields do not match its coordinates" % bits)
    return table


def crystal_states(datum: RootDatum, word, lam) -> tuple:
    """All elements of the cut crystal in ladder coordinates, sorted: state
    0 is zero, and in table order each later state is f_i of its parent e_i,
    for the least letter i that raises it, by the one-state sweep."""
    table = record(datum, word, lam).table
    states = [(0,) * len(word)]
    for j in range(1, len(table.eps[0])):
        i, parent = next((i, up[j]) for i, up in enumerate(table.up, 1) if up[j] >= 0)
        states.append(_lower(datum, word, lam, states[parent], i))
    return tuple(sorted(states))


def string_coords(datum: RootDatum, word, lam, state) -> tuple:
    """String parametrization of one cut-crystal element, read off the
    record's certified strings at the state's index: the state raised to
    zero by the one-state sweep, each time by the least letter that raises
    it, and the raises walked back down the table from state 0.  A
    well-formed state outside the table raises InvariantError."""
    table, strings, *_ = record(datum, word, lam)
    state = tuple(state)
    _check_state(word, state)
    path, k = [], 0
    try:
        while any(state) and sum(state) <= table.depth:  # every raise takes 1 from the sum
            i = next(i for i in range(1, datum.rank + 1) if _raise(datum, word, lam, state, i))
            state = _raise(datum, word, lam, state, i)
            path.append(i)
    except (StopIteration, CorruptElementError):  # no letter raises, or one onto a zero coordinate
        pass
    for i in reversed(path):
        k = table.down[i - 1][k] if k >= 0 else k
    if any(state) or k < 0:
        raise InvariantError("non-normal state: not in the generated crystal")
    return strings[k]


class _Strings(Sequence):
    """The record's strings: each packed into one int, coordinate p in
    unsigned byte field p of `size` bytes.  A read-only sequence that decodes
    a string to its tuple on index, iterates by index and decodes a slice to
    a tuple of tuples."""

    __slots__ = ("packed", "length", "size")

    def __init__(self, packed: tuple, length: int, size: int):
        self.packed = packed  # the strings in table order
        self.length = length  # the coordinates of a string
        self.size = size      # the bytes of a field

    def __len__(self):
        return len(self.packed)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        return tuple(polytopes.unpack_fields(self.packed[k], self.length, self.size))


def _string_table(table: _OperatorTable, word) -> _Strings:
    """The string coords of every table state, in table order, by suffix
    table; the record's builder `_crystal` is its one caller.

    The string of b is (a_1, tail(e_{i_1}^{a_1} b)), where the tail is the
    string of the raised element from position 2 on.  Each distinct state
    reaching position p is raised there once, along the table's raising
    indices, so the work is the sum of the level sizes rather than N times
    the crystal; a level keeps each state's top, its count being its epsilon.
    In table order e_i b comes before b (a state's depth is its coordinate
    sum), so b takes the top of e_i b when e_i b is in the level.  The first
    level is every state, so its tops are a list in table order.  The tails
    are packed ints, a_p in byte field p, built from the last level back,
    each level freed once read; the fields are as wide as the eps items,
    which must hold the depth, since no string coordinate passes it."""
    first, *rest = word
    up, eps = table.up[first - 1], table.eps[first - 1]
    shift = 8 * eps.itemsize
    if table.depth >> shift:
        raise InvariantError("string fields of %d bytes do not hold the depth %d" % (eps.itemsize, table.depth))
    tops = []
    for b, parent in enumerate(up):
        if eps[b] != (eps[parent] + 1 if parent >= 0 else 0):
            raise InvariantError("non-normal state: not in the generated crystal")
        tops.append(tops[parent] if parent >= 0 else b)
    levels = []
    frontier = set(tops)
    for i in rest:
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
    tails = {0: 0}
    while levels:
        eps, step = levels.pop()
        tails = {b: eps[b] + (tails[top] << shift) for b, top in step.items()}
    eps = table.eps[first - 1]
    packed = tuple(eps[b] + (tails[top] << shift) for b, top in enumerate(tops))
    if len(set(packed)) != len(packed):
        raise InvariantError("string parametrization not injective")
    return _Strings(packed, len(word), eps.itemsize)


class _Crystal(NamedTuple):
    table: _OperatorTable  # the operators over the table order
    strings: _Strings      # the certified strings, in table order
    masks: tuple           # per row, the bitmask over the strings tight on it
    folds: tuple           # per side, B_w then B^w, a dict w -> its mask, filled on first read
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
    strings = _string_table(table, word)
    certified = is_certified_word(datum, word)
    if certified:
        polytope = polytopes.string_polytope(datum, lam)
        rows = polytope.ineqs
    else:
        facets = (polytopes.string_lambda_facet(datum, word, j) for j in range(1, len(word) + 1))
        rows = [(vec, sum(map(mul, lam_vec, lam))) for vec, lam_vec in facets]
    column = polytopes.strided_columns(strings.packed, len(word), strings.size)
    high = (1 << 8 * strings.size) - 1  # no coordinate passes its field
    masks, outside = polytopes.column_masks(rows, [high] * len(word), column, len(strings))
    if outside:
        raise CrystalPolytopeMismatchError(
            "string %r lies outside the string polytope" % (polytopes.mask_points(outside, strings)[0],)
        )
    if certified:
        count = polytopes.lattice_count(polytope)
        if count != len(strings):
            raise CrystalPolytopeMismatchError(
                "crystal generation has %d points, string polytope %d" % (len(strings), count)
            )
    polytopes.check_blocks_meet(masks, len(word))
    return _Crystal(table, strings, masks, ({}, {}), datum)


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
    filed = record.folds[opposite]
    mask = filed.get(w)
    if mask is None:
        check_group(record.datum, w)
        letters, table = left_ascents(w) if opposite else left_descents(w), record.table
        if not letters:
            mask = 1 << table.lowest if opposite else 1
        else:
            step = (table.up if opposite else table.down)[letters[0] - 1]
            mask = _closure(step, fold(record, left_mul(letters[0], w), opposite))
        filed[w] = mask
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
