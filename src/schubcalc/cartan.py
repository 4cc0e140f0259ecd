"""Root data and Weyl group combinatorics for types A_n and C_n.

Weights are integer tuples of fundamental-weight coefficients, roots are
integer tuples in the simple-root basis and coroots in the simple-coroot
basis, so a weight pairs with a coroot by an integer dot product.  Type C is
labelled with the double edge between nodes 1 and 2 and node 1 long, so
c_{1,2} = -1 and c_{2,1} = -2; tests pin this orientation against the
symplectic Weyl dimensions.  A `RootDatum` refuses a family other than A
or C, a rank that is not an int (a bool included) and a rank too small for
its family with `ValueError`, so no float or bool rank equals an int one in a
cache key.

Weyl elements are stored in one-line form: a permutation of 1..n+1 for type A,
a signed permutation of 1..n for type C (entry j is the signed image of the
j-th coordinate vector).  Products compose right-to-left, so the word
(j_1, ..., j_m) denotes s_{j_1} s_{j_2} ... s_{j_m}.  A `WeylElement` refuses
any other one-line form, or an entry that is not an int, with `ValueError`;
a bool is not an int here.

The group arithmetic runs on one table per datum (`_weyl_table`), built once
on one-line tuples by `_compose`, the composition that `multiply` also runs,
with one `WeylElement` per element and the inversion count: every element in
`all_elements` order, an index from one-line form to position, the position of
each inverse, per letter the positions of the left and right products by s_i,
the lengths, |W| * (2 * rank + 2) integers in all, and one reduced word per
element.  `length`, `inverse`, `reduced_word`, `left_mul`, `left_descents`,
`left_ascents`, `word_to_element`, `bruhat_leq`, `elements_of_length` (a slice
bisected off the sorted lengths) and the subword search of `_extraction_table`
read these integer columns and return the table's own elements; a lookup of a
non-member raises `ValueError`.  The build raises `InvariantError` unless |W|
is `group_order`, the identity and w_0 sit at the two ends, the inverse column
is an involution that keeps the length, and every product by a simple
reflection changes the length by exactly one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from math import factorial
from operator import mul
from typing import NamedTuple


class InvariantError(AssertionError):
    """A load-bearing internal invariant failed.  Raised explicitly, so that
    `python -O` cannot strip the check."""


@dataclass(frozen=True)
class RootDatum:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "C"):
            raise ValueError("family must be 'A' or 'C', got %r" % (self.family,))
        if type(self.rank) is not int:
            raise ValueError("rank %r is not an integer" % (self.rank,))
        minimum = 1 if self.family == "A" else 2
        if self.rank < minimum:
            raise ValueError("rank %d too small for type %s" % (self.rank, self.family))

    @property
    def num_coordinates(self) -> int:
        """The entries of a one-line form, which are the orthogonal
        coordinates x_1, x_2, ...: n + 1 for A_n, n for C_n."""
        return self.rank + 1 if self.family == "A" else self.rank

    @property
    def num_positive_roots(self) -> int:
        n = self.rank
        return n * (n + 1) // 2 if self.family == "A" else n * n


@lru_cache(maxsize=None)
def cartan_matrix(datum: RootDatum) -> tuple:
    """Cartan matrix c_{i,j} = <alpha_j, h_i> as a tuple of row tuples."""
    n = datum.rank
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 2
        if i > 0:
            row[i - 1] = -1
        if i + 1 < n:
            row[i + 1] = -1
        rows.append(row)
    if datum.family == "C":
        # node 1 long: <alpha_2, h_1> = -1, <alpha_1, h_2> = -2
        rows[1][0] = -2
    return tuple(tuple(r) for r in rows)


def _reflection_closure(matrix: tuple, count: int) -> tuple:
    """The positive vectors of the closure of the unit vectors under the
    reflections x -> x - (row i of matrix . x) e_i, sorted.  Raises
    `InvariantError` unless there are `count` of them."""
    n = len(matrix)
    found = set()
    frontier = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    while frontier:
        found |= frontier
        # s_i keeps every positive root positive but alpha_i, which it negates
        images = {
            alpha[:i] + (alpha[i] - sum(map(mul, row, alpha)),) + alpha[i + 1 :]
            for alpha in frontier
            for i, row in enumerate(matrix)
        }
        frontier = {beta for beta in images if min(beta) >= 0} - found
    result = tuple(sorted(found))
    if len(result) != count:
        raise InvariantError("reflection closure found %d vectors, expected %d" % (len(result), count))
    return result


@lru_cache(maxsize=None)
def positive_coroots(datum: RootDatum) -> tuple:
    """All positive coroots beta^vee = 2 beta / (beta, beta) in the
    simple-coroot basis h_1, ..., h_n, sorted: the reflection closure of the
    transposed Cartan matrix.  For a weight lam in fundamental-weight
    coordinates, <lam, beta^vee> is k . lam for the coefficients k of
    beta^vee, so every pairing of a weight with a coroot is an integer."""
    return _reflection_closure(tuple(zip(*cartan_matrix(datum))), datum.num_positive_roots)


def simple_root_in_fundamental(datum: RootDatum, i: int) -> tuple:
    """alpha_i written in fundamental-weight coordinates (column i of Cartan)."""
    check_letter(datum, i)
    c = cartan_matrix(datum)
    return tuple(c[j][i - 1] for j in range(datum.rank))


def check_integers(kind: str, values):
    """Raise ValueError unless every entry of a weight, state, word or one-line
    form is an int.  A bool is refused: True equals 1 and shares its hash, so
    it would find the cache entry of 1."""
    if not {int}.issuperset(map(type, values)):
        raise ValueError("%s %r has an entry that is not an integer" % (kind, values))


def check_weight(datum: RootDatum, lam):
    """Raise ValueError unless lam is a dominant weight of int entries of the rank of datum."""
    check_integers("weight", lam)
    if len(lam) != datum.rank or min(lam) < 0:
        raise ValueError("weight %r is not dominant of rank %d" % (lam, datum.rank))


# ---------------------------------------------------------------------------
# Weyl group elements


@dataclass(frozen=True)
class WeylElement:
    datum: RootDatum
    oneline: tuple

    def __post_init__(self):
        signed = self.datum.family == "C"
        size = self.datum.num_coordinates
        line = self.oneline
        if isinstance(line, tuple):  # its entries before abs or sorted reads them
            check_integers("one-line form", line)  # so that no 2.0 equals 2 in a cache key
        if not isinstance(line, tuple) or sorted(map(abs, line) if signed else line) != list(range(1, size + 1)):
            raise ValueError(
                "%r is not a %spermutation of 1..%d" % (line, "signed " if signed else "", size)
            )

    def __repr__(self):
        return "W%s%d%r" % (self.datum.family, self.datum.rank, list(self.oneline))


def group_order(datum: RootDatum) -> int:
    """|W|: (n+1)! for type A_n and 2^n n! for type C_n."""
    n = datum.rank
    return factorial(n + 1) if datum.family == "A" else 2**n * factorial(n)


def identity_element(datum: RootDatum) -> WeylElement:
    return WeylElement(datum, tuple(range(1, datum.num_coordinates + 1)))


def simple_element(datum: RootDatum, i: int) -> WeylElement:
    check_letter(datum, i)
    w = list(identity_element(datum).oneline)
    if datum.family == "A":
        w[i - 1], w[i] = w[i], w[i - 1]
    elif i == 1:
        w[0] = -1
    else:
        w[i - 2], w[i - 1] = w[i - 1], w[i - 2]
    return WeylElement(datum, tuple(w))


def check_letter(datum: RootDatum, i: int):
    if type(i) is not int or not 1 <= i <= datum.rank:
        raise ValueError("letter %r out of range 1..%d" % (i, datum.rank))


def check_group(datum: RootDatum, *elements):
    """Raise ValueError unless every element is of the Weyl group of datum."""
    if any(w.datum != datum for w in elements):
        raise ValueError("elements from different groups")


def _compose(u: tuple, v: tuple) -> tuple:
    """The one-line form of u o v from those of u and v, v applied first."""
    return tuple([u[x - 1] if x > 0 else -u[-x - 1] for x in v])


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    """Composition u o v, with v applied first."""
    check_group(u.datum, v)
    return WeylElement(u.datum, _compose(u.oneline, v.oneline))


def _invert(line: tuple) -> tuple:
    """The one-line form of the inverse: entry j at x sends x back to j."""
    out = [0] * len(line)
    for j, x in enumerate(line, start=1):
        out[abs(x) - 1] = j if x > 0 else -j
    return tuple(out)


def longest_element(datum: RootDatum) -> WeylElement:
    if datum.family == "A":
        return WeylElement(datum, tuple(range(datum.rank + 1, 0, -1)))
    return WeylElement(datum, tuple(-j for j in range(1, datum.rank + 1)))


def _inversions(w: WeylElement) -> int:
    """Number of positive roots sent to negative roots: over the pairs a, b
    of entries, a before b, the roots e_j - e_i that go negative exactly
    when a > b, and in type C also the e_j + e_i when a + b < 0 and the
    2 e_i when the entry is negative."""
    pairs = list(combinations(w.oneline, 2))
    total = sum(a > b for a, b in pairs)
    if w.datum.family == "C":
        total += sum(a + b < 0 for a, b in pairs) + sum(x < 0 for x in w.oneline)
    return total


# ---------------------------------------------------------------------------
# the group table


class _WeylTable(NamedTuple):
    elements: tuple  # every element, sorted by (length, one-line form)
    index: dict      # one-line form -> its position in `elements`
    inverse: tuple   # inverse[k]: index of elements[k]^{-1}
    left: tuple      # left[i - 1][k]: index of s_i * elements[k]
    right: tuple     # right[i - 1][k]: index of elements[k] * s_i
    length: tuple    # length[k]: length of elements[k]
    words: tuple     # words[k]: the reduced word of elements[k] by least left descents


@lru_cache(maxsize=None)
def _weyl_table(datum: RootDatum) -> _WeylTable:
    """The Weyl group of `datum` as integer arrays: the closure of the
    identity under right products by the simple reflections, on one-line
    tuples, sorted, with the index of each inverse, checked to be an
    involution that keeps the length (l(w^{-1}) = l(w)), per letter the
    indices of the right products and of the left ones, read as
    s_i w = (w^{-1} s_i)^{-1}, each checked to change the length by one (the
    Coxeter property), and per element the word that takes its least left
    descent first and goes on with the word of s_i w."""
    n = datum.rank
    simple = [simple_element(datum, i).oneline for i in range(1, n + 1)]
    products = {}  # one-line form -> its right products by s_1, ..., s_n
    frontier = {identity_element(datum).oneline}
    while frontier:
        for line in frontier:
            products[line] = [_compose(line, s) for s in simple]
        frontier = {x for line in frontier for x in products[line]} - products.keys()
    expected = group_order(datum)
    if len(products) != expected:
        raise InvariantError(
            "found %d elements of W(%s%d), expected %d" % (len(products), datum.family, n, expected)
        )
    # sorted by (length, one-line form), which are unique, so no element is
    # compared or hashed
    ranked = sorted((_inversions(w), w.oneline, w) for w in map(WeylElement, repeat(datum), products))
    length, _, elements = zip(*ranked)
    if elements[0] != identity_element(datum) or elements[-1] != longest_element(datum):
        raise InvariantError("the identity and w_0 are not the ends of W(%s%d)" % (datum.family, n))
    index = {w.oneline: k for k, w in enumerate(elements)}
    inverse = tuple(index[_invert(w.oneline)] for w in elements)
    for k, j in enumerate(inverse):
        if inverse[j] != k or length[j] != length[k]:
            raise InvariantError(
                "the inverse of %r is %r, whose inverse is %r and length %d, not %d"
                % (elements[k], elements[j], elements[inverse[j]], length[j], length[k])
            )
    right = tuple(tuple(index[products[w.oneline][i]] for w in elements) for i in range(n))
    left = tuple(tuple(inverse[step[j]] for j in inverse) for step in right)
    for side, steps in (("left", left), ("right", right)):
        for i, step in enumerate(steps, 1):
            for k, j in enumerate(step):
                if abs(length[j] - length[k]) != 1:
                    raise InvariantError(
                        "the %s product of %r by s_%d changes the length by %d"
                        % (side, elements[k], i, length[j] - length[k])
                    )
    # s_i w has one letter less and sits earlier in the length order
    words = [()]
    for k in range(1, len(elements)):
        i = next(i for i, step in enumerate(left, 1) if length[step[k]] < length[k])
        words.append((i,) + words[left[i - 1][k]])
    return _WeylTable(elements, index, inverse, left, right, length, tuple(words))


def _non_member(w: WeylElement) -> ValueError:
    return ValueError("%r is not an element of the Weyl group of %r" % (w, w.datum))


def _locate(w: WeylElement):
    """(table, index) of w; ValueError, not KeyError, for a non-member."""
    table = _weyl_table(w.datum)
    try:
        return table, table.index[w.oneline]
    except KeyError:
        raise _non_member(w) from None


def all_elements(datum: RootDatum) -> tuple:
    """Every Weyl group element, sorted by (length, one-line form)."""
    return _weyl_table(datum).elements


def elements_of_length(datum: RootDatum, d: int) -> tuple:
    """The elements of length d in table order, bisected off the lengths."""
    table = _weyl_table(datum)
    return table.elements[bisect_left(table.length, d) : bisect_right(table.length, d)]


def length(w: WeylElement) -> int:
    """Number of positive roots sent to negative roots (= inversion count).
    `_locate` is inlined: callers sum lengths over all pairs of elements."""
    table = _weyl_table(w.datum)
    try:
        return table.length[table.index[w.oneline]]
    except KeyError:
        raise _non_member(w) from None


def word_to_element(datum: RootDatum, word) -> WeylElement:
    """s_{j_1} ... s_{j_m} for word (j_1, ..., j_m): right products from the
    identity."""
    table = _weyl_table(datum)
    k = 0
    for i in word:
        check_letter(datum, i)
        k = table.right[i - 1][k]
    return table.elements[k]


def inverse(w: WeylElement) -> WeylElement:
    """w^{-1}, read off the group table."""
    table, k = _locate(w)
    return table.elements[table.inverse[k]]


def left_mul(i: int, w: WeylElement) -> WeylElement:
    check_letter(w.datum, i)
    table, k = _locate(w)
    return table.elements[table.left[i - 1][k]]


def right_mul(w: WeylElement, i: int) -> WeylElement:
    """w s_i, read off the group table's right column."""
    check_letter(w.datum, i)
    table, k = _locate(w)
    return table.elements[table.right[i - 1][k]]


def left_descents(w: WeylElement) -> list:
    """The letters i with l(s_i w) < l(w), increasing."""
    table, k = _locate(w)
    lw = table.length[k]
    return [i for i, step in enumerate(table.left, 1) if table.length[step[k]] < lw]


def left_ascents(w: WeylElement) -> list:
    """The letters i with l(s_i w) > l(w), increasing."""
    table, k = _locate(w)
    lw = table.length[k]
    return [i for i, step in enumerate(table.left, 1) if table.length[step[k]] > lw]


def right_ascents(w: WeylElement) -> list:
    """The letters i with l(w s_i) > l(w), increasing."""
    table, k = _locate(w)
    lw = table.length[k]
    return [i for i, step in enumerate(table.right, 1) if table.length[step[k]] > lw]


def reduced_word(w: WeylElement) -> tuple:
    """One reduced word, deterministic (smallest left descent first), read
    off the group table."""
    table, k = _locate(w)
    return table.words[k]


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by the lifting property, on table indices: for a left
    descent s of w, v <= w iff sv <= sw when s is a left descent of v, and
    iff v <= sw otherwise."""
    check_group(v.datum, w)
    table, a = _locate(v)
    _, b = _locate(w)
    length, left = table.length, table.left
    while length[a]:
        if length[a] > length[b]:
            return False
        step = next(step for step in left if length[step[b]] < length[b])
        if length[step[a]] < length[a]:
            a = step[a]
        b = step[b]
    return True


@lru_cache(maxsize=None)
def standard_word(datum: RootDatum) -> tuple:
    """The block reduced word of w_0 used throughout: (1, 21, 321, ...) for A,
    (1, 212, 32123, ...) for C."""
    word = []
    for r in range(1, datum.rank + 1):
        if datum.family == "A":
            word.extend(range(r, 0, -1))
        else:
            word.extend(range(r, 0, -1))
            word.extend(range(2, r + 1))
    return tuple(word)


def check_word_of_longest(datum: RootDatum, word):
    """Raise unless word is a reduced word of w_0: a word of the length of
    w_0 whose walk ends at the table's last element, which `_weyl_table`
    certifies to be w_0."""
    w = word_to_element(datum, word)
    if len(word) != datum.num_positive_roots or w is not _weyl_table(datum).elements[-1]:
        raise ValueError("word %r is not a reduced word of the longest element" % (word,))


@lru_cache(maxsize=None)
def _extraction_table(datum: RootDatum, word: tuple) -> dict:
    """w -> sorted position tuples extracting a reduced word of w, for every w.

    The extraction sets of all w together are the reduced subwords of `word`
    (the faces of the subword complex, Knutson-Miller), so one depth-first
    search over the subwords, keeping each extension that raises the length
    by one, enumerates them all; every w occurs, by the subword property."""
    check_word_of_longest(datum, word)
    table = _weyl_table(datum)
    found = {}

    def extend(pos, current, chosen):
        found.setdefault(current, []).append(tuple(chosen))
        for k in range(pos, len(word)):
            nxt = table.right[word[k] - 1][current]
            if table.length[nxt] == len(chosen) + 1:
                chosen.append(k + 1)
                extend(k + 1, nxt, chosen)
                chosen.pop()

    extend(0, 0, [])
    return {table.elements[k]: tuple(sorted(positions)) for k, positions in found.items()}


def compatible_subsets(datum: RootDatum, word, w: WeylElement) -> tuple:
    """All strictly increasing position tuples extracting a reduced word of w.

    Positions are 1-based into `word`, a tuple or list that must be a reduced
    word of w_0; w must be an element of the Weyl group of `datum`.
    """
    word = tuple(word)
    check_integers("word", word)  # before the cache: no 1.0 finds the table of 1
    table = _extraction_table(datum, word)
    if w not in table:
        raise ValueError("%r is not an element of the Weyl group of %r" % (w, datum))
    return table[w]
