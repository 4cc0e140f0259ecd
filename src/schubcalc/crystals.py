"""Highest-weight crystals in embedding coordinates, string parametrizations,
and (opposite) Demazure subsets.

Elements are nonnegative integer tuples indexed by a reduced word of the
longest element.  The raising/lowering operators use the sigma statistics

    sigma_k(a) = a_k + sum_{l > k} c_{i_k, i_l} a_l,

with lowering localized at the smallest maximizing position and raising at the
largest; positions beyond the word carry zeros.  A dominant weight cuts the
infinite crystal down via the tensor cutoff: lowering returns null exactly
when eps_i + <lam + wt, h_i> = 0.

These coordinates are the embedding coordinates of an element's
canonical lift, NOT its string parametrization: the two differ already in rank
two.  `string_coords` converts by greedily raising along the word inside the
cut crystal and recording the counts; everything exported to the polytope side
(B(lam), Demazure and opposite Demazure sets, Richardson intersections) is in
string coordinates.
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


def _sigma_profile(datum, word, coords, i):
    """(max sigma over letter-i positions together with 0, argmin, argmax)."""
    c = cartan_matrix(datum)
    row = c[i - 1]
    best = 0
    first = last = None
    n_pos = len(word)
    suffix = 0
    sigmas = {}
    for k in range(n_pos, 0, -1):
        if word[k - 1] == i:
            sigmas[k] = coords[k - 1] + suffix
        suffix += row[word[k - 1] - 1] * coords[k - 1]
    for k, s in sigmas.items():
        if s > best:
            best = s
    for k in sorted(sigmas):
        if sigmas[k] == best:
            if first is None:
                first = k
            last = k
    return best, first, last


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
    best, _, _ = _sigma_profile(datum, word, coords, i)
    if lam is INFINITY:
        return best
    wt = weight_of(datum, word, lam, coords)
    return max(best, -wt[i - 1])


def phi(datum: RootDatum, word, lam, coords, i: int) -> int:
    wt = weight_of(datum, word, lam, coords)
    if lam is INFINITY:
        best, _, _ = _sigma_profile(datum, word, coords, i)
        return best + wt[i - 1]
    return epsilon(datum, word, lam, coords, i) + wt[i - 1]


def f_op(datum: RootDatum, word, lam, coords, i: int):
    """Lower by alpha_i; None at the cutoff, never None at infinity."""
    best, first, _ = _sigma_profile(datum, word, coords, i)
    if lam is not INFINITY:
        wt = weight_of(datum, word, lam, coords)
        naive_phi = best + wt[i - 1]
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
    best, _, last = _sigma_profile(datum, word, coords, i)
    if best == 0:
        return None
    if lam is not INFINITY:
        wt = weight_of(datum, word, lam, coords)
        if best + wt[i - 1] < 0:
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


def string_coords(datum: RootDatum, word, lam, state) -> tuple:
    """String parametrization of a cut-crystal element: raise greedily along
    the word, recording how many raises each letter admits."""
    out = []
    cur = state
    for k in range(len(word)):
        i = word[k]
        expected = epsilon(datum, word, lam, cur, i)
        count = 0
        while True:
            nxt = e_op(datum, word, lam, cur, i)
            if nxt is None:
                break
            cur = nxt
            count += 1
        if count != expected:
            raise InvariantError("non-normal state: not in the generated crystal")
        out.append(count)
    if any(cur):
        raise InvariantError("string extraction did not reach the top")
    return tuple(out)


@lru_cache(maxsize=None)
def _string_table(datum: RootDatum, word, lam) -> dict:
    """State -> string coords over the cut crystal."""
    table = {
        state: string_coords(datum, word, lam, state)
        for state in crystal_states(datum, word, lam)
    }
    if len(set(table.values())) != len(table):
        raise InvariantError("string parametrization not injective")
    return table


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
