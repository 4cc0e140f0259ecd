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

These coordinates are the embedding coordinates of an element's
canonical lift, NOT its string parametrization: the two differ already in rank
two.  The string of b is (a_1, tail(e_{i_1}^{a_1} b)): the number of raises
by the first letter, then the string of the raised element along the rest of
the word.  `_string_table` memoises these tails per word position and state
over the whole cut crystal, so each (position, state) pair is raised once;
`string_coords` is the per-state route it is tested against.  Everything
exported to the polytope side (B(lam), Demazure and opposite Demazure sets,
Richardson intersections) is in string coordinates.
"""

from __future__ import annotations

from functools import lru_cache

from . import polytopes
from .cartan import (
    InvariantError,
    RootDatum,
    WeylElement,
    bruhat_leq,
    cartan_matrix,
    check_word_of_longest,
    inverse,
    is_dominant,
    longest_element,
    multiply,
    reduced_word,
    simple_root_in_fundamental,
    standard_word,
)


class CorruptElementError(InvariantError):
    """The lowering argmin fell beyond the stored coordinates, which cannot
    happen for elements of the embedded crystal."""


class CrystalPolytopeMismatchError(InvariantError):
    """Crystal generation and string-polytope lattice points disagree."""


INFINITY = None  # highest-weight slot for the unbounded crystal


def sigma(datum: RootDatum, word, coords, k: int) -> int:
    """sigma_k = a_k + sum_{l>k} c_{i_k, i_l} a_l (1-based k)."""
    c = cartan_matrix(datum)
    ik = word[k - 1]
    total = coords[k - 1]
    for l in range(k + 1, len(word) + 1):
        total += c[ik - 1][word[l - 1] - 1] * coords[l - 1]
    return total


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


def weight_of(datum: RootDatum, word, lam, coords):
    """Fundamental coordinates of the weight: lam - sum a_k alpha_{i_k}
    (just the negative sum at infinity)."""
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
    if lam is not INFINITY:
        naive_phi = best + wt_i
        if naive_phi < 0:
            raise CorruptElementError("negative phi: element outside the cut crystal")
        if naive_phi == 0:
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
    out = list(coords)
    out[last - 1] -= 1
    return tuple(out)


# ---------------------------------------------------------------------------
# generation


def _validate(datum, word, lam):
    check_word_of_longest(datum, word)
    if lam is not INFINITY and (len(lam) != datum.rank or not is_dominant(lam)):
        raise ValueError("weight %r is not dominant of rank %d" % (lam, datum.rank))


def is_certified_word(datum: RootDatum, word) -> bool:
    return tuple(word) == standard_word(datum)


@lru_cache(maxsize=None)
def crystal_states(datum: RootDatum, word, lam) -> tuple:
    """All elements of the cut crystal in ladder coordinates (breadth-first
    closure of the zero vector under lowering), sorted."""
    _validate(datum, word, lam)
    zero = (0,) * len(word)
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for state in frontier:
            for i in range(1, datum.rank + 1):
                nxt = f_op(datum, word, lam, state, i)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    return tuple(sorted(seen))


def _raise_string(datum, word, lam, state, i):
    """(count, top): raise by letter i until null.  The count must be eps_i,
    or the state is not in the generated crystal."""
    expected = epsilon(datum, word, lam, state, i)
    count = 0
    while True:
        nxt = e_op(datum, word, lam, state, i)
        if nxt is None:
            break
        state = nxt
        count += 1
    if count != expected:
        raise InvariantError("non-normal state: not in the generated crystal")
    return count, state


def string_coords(datum: RootDatum, word, lam, state) -> tuple:
    """String parametrization of one cut-crystal element: raise along the
    word, recording how many raises each letter admits.  The per-state
    reference for the suffix table of `_string_table`."""
    out = []
    for i in word:
        count, state = _raise_string(datum, word, lam, state, i)
        out.append(count)
    if any(state):
        raise InvariantError("string extraction did not reach the top")
    return tuple(out)


@lru_cache(maxsize=None)
def _string_table(datum: RootDatum, word, lam) -> dict:
    """State -> string coords over the cut crystal, by suffix table.

    The string of b is (a_1, tail(e_{i_1}^{a_1} b)), where the tail is the
    string of the raised element from position 2 on.  Each distinct state
    reaching position p is raised there once, so the work is the sum of the
    level sizes rather than N times the crystal; the levels are dropped once
    the tails are assembled."""
    levels = []
    frontier = crystal_states(datum, word, lam)
    for i in word:
        step = {b: _raise_string(datum, word, lam, b, i) for b in frontier}
        levels.append(step)
        frontier = {top for _, top in step.values()}
    if any(any(top) for top in frontier):
        raise InvariantError("string extraction did not reach the top")
    tails = dict.fromkeys(frontier, ())
    for step in reversed(levels):
        tails = {b: (count,) + tails[top] for b, (count, top) in step.items()}
    if len(set(tails.values())) != len(tails):
        raise InvariantError("string parametrization not injective")
    return tails


def generate_b_lambda(datum: RootDatum, word, lam, allow_experimental=False) -> frozenset:
    """Phi(B(lam)) as a set of string-coordinate tuples.

    For the standard word the result is cross-checked against the lattice
    points of the string polytope; any other reduced word of the longest
    element must be opted into with allow_experimental.
    """
    word = tuple(word)
    certified = is_certified_word(datum, word)
    if not certified and not allow_experimental:
        raise ValueError("word %r is not certified; pass allow_experimental=True" % (word,))
    strings = frozenset(_string_table(datum, word, lam).values())
    if certified:
        poly_points = frozenset(polytopes.lattice_points(polytopes.string_polytope(datum, lam)))
        if strings != poly_points:
            raise CrystalPolytopeMismatchError(
                "crystal generation has %d points, string polytope %d"
                % (len(strings), len(poly_points))
            )
    return strings


def highest_state(datum: RootDatum, word):
    return (0,) * len(word)


@lru_cache(maxsize=None)
def lowest_state(datum: RootDatum, word, lam) -> tuple:
    """The unique element every lowering operator kills."""
    hits = [
        s
        for s in crystal_states(datum, word, lam)
        if all(f_op(datum, word, lam, s, i) is None for i in range(1, datum.rank + 1))
    ]
    if len(hits) != 1:
        raise InvariantError("lowest element not unique")
    return hits[0]


def _f_closure(datum, word, lam, i, states):
    out = set(states)
    for s in states:
        cur = s
        while True:
            cur = f_op(datum, word, lam, cur, i)
            if cur is None:
                break
            out.add(cur)
    return frozenset(out)


def _e_closure(datum, word, lam, i, states):
    out = set(states)
    for s in states:
        cur = s
        while True:
            cur = e_op(datum, word, lam, cur, i)
            if cur is None:
                break
            out.add(cur)
    return frozenset(out)


@lru_cache(maxsize=None)
def demazure_states(datum: RootDatum, word, w: WeylElement, lam) -> frozenset:
    """B_w(lam) in ladder coordinates: fold lowering-string closures along a
    reduced word of w, right to left."""
    _validate(datum, word, lam)
    states = frozenset([highest_state(datum, word)])
    for i in reversed(reduced_word(w)):
        states = _f_closure(datum, word, lam, i, states)
    return states


@lru_cache(maxsize=None)
def opposite_demazure_states(datum: RootDatum, word, w: WeylElement, lam) -> frozenset:
    """B^w(lam): raising-string closures along a length-decreasing chain from
    the longest element down to w."""
    _validate(datum, word, lam)
    w0 = longest_element(datum)
    prefix = reduced_word(multiply(w0, inverse(w)))
    states = frozenset([lowest_state(datum, word, lam)])
    for i in prefix:
        states = _e_closure(datum, word, lam, i, states)
    return states


def _to_strings(datum, word, lam, states) -> frozenset:
    table = _string_table(datum, word, lam)
    return frozenset(table[s] for s in states)


def demazure_crystal(datum: RootDatum, word, w, lam, allow_experimental=False) -> frozenset:
    word = tuple(word)
    if not is_certified_word(datum, word) and not allow_experimental:
        raise ValueError("word %r is not certified; pass allow_experimental=True" % (word,))
    return _to_strings(datum, word, lam, demazure_states(datum, word, w, lam))


def opposite_demazure_crystal(datum: RootDatum, word, w, lam, allow_experimental=False) -> frozenset:
    word = tuple(word)
    if not is_certified_word(datum, word) and not allow_experimental:
        raise ValueError("word %r is not certified; pass allow_experimental=True" % (word,))
    return _to_strings(datum, word, lam, opposite_demazure_states(datum, word, w, lam))


def richardson_lattice_points(datum: RootDatum, word, v, w, lam, allow_experimental=False) -> frozenset:
    """String image of the intersection of B_w(lam) with B^v(lam); requires v <= w in Bruhat order."""
    if not bruhat_leq(v, w):
        raise ValueError("need v <= w in Bruhat order")
    lower = demazure_crystal(datum, word, w, lam, allow_experimental)
    upper = opposite_demazure_crystal(datum, word, v, lam, allow_experimental)
    return lower & upper


def lusztig_transform(datum: RootDatum, word, lam, string_point) -> tuple:
    """Unimodular affine map t -> t' with
    t'_k = <lam, h_{i_k}> - t_k - sum_{j>k} c_{i_k, i_j} t_j; on string data it
    lands in the nonnegative orthant."""
    c = cartan_matrix(datum)
    big_n = len(word)
    out = []
    for k in range(1, big_n + 1):
        ik = word[k - 1]
        val = lam[ik - 1] - string_point[k - 1]
        for j in range(k + 1, big_n + 1):
            val -= c[ik - 1][word[j - 1] - 1] * string_point[j - 1]
        out.append(val)
    return tuple(out)


def i_strings(datum: RootDatum, word, lam, i: int):
    """Partition of the cut crystal into i-strings, each listed top to bottom."""
    states = set(crystal_states(datum, word, lam))
    seen = set()
    out = []
    for s in sorted(states):
        if s in seen:
            continue
        top = s
        while True:
            up = e_op(datum, word, lam, top, i)
            if up is None:
                break
            top = up
        chain = [top]
        cur = top
        while True:
            cur = f_op(datum, word, lam, cur, i)
            if cur is None:
                break
            chain.append(cur)
        seen.update(chain)
        out.append(tuple(chain))
    return tuple(out)
