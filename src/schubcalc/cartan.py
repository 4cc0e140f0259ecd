"""Root data and Weyl group combinatorics for types A_n and C_n.

Weights are integer tuples of fundamental-weight coefficients, roots are
integer tuples in the simple-root basis, and every pairing goes through the
Cartan matrix.  Type C is labelled with the double edge between nodes 1 and 2
and node 1 long, so c_{1,2} = -1 and c_{2,1} = -2; tests pin this orientation
against the symplectic Weyl dimensions.

Weyl elements are stored in one-line form: a permutation of 1..n+1 for type A,
a signed permutation of 1..n for type C (entry j is the signed image of the
j-th coordinate vector).  Products compose right-to-left, so the word
(j_1, ..., j_m) denotes s_{j_1} s_{j_2} ... s_{j_m}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import linalg


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
        minimum = 1 if self.family == "A" else 2
        if self.rank < minimum:
            raise ValueError("rank %d too small for type %s" % (self.rank, self.family))

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


@lru_cache(maxsize=None)
def symmetrizer(datum: RootDatum) -> tuple:
    """Integers d_i with d_i c_{i,j} = d_j c_{j,i}, short roots having d = 1."""
    c = cartan_matrix(datum)
    n = datum.rank
    d = [Fraction(0)] * n
    d[0] = Fraction(1)
    for i in range(1, n):
        # chain graph: propagate along the edge (i-1, i)
        d[i] = d[i - 1] * c[i - 1][i] / c[i][i - 1]
    scale = lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


@lru_cache(maxsize=None)
def positive_roots(datum: RootDatum) -> tuple:
    """All positive roots in the simple-root basis, via reflection closure."""
    c = cartan_matrix(datum)
    n = datum.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for alpha in frontier:
            for i in range(n):
                pairing = sum(alpha[j] * c[i][j] for j in range(n))
                beta = list(alpha)
                beta[i] -= pairing
                beta = tuple(beta)
                if all(x >= 0 for x in beta) and any(x > 0 for x in beta) and beta not in roots:
                    new.add(beta)
        roots |= new
        frontier = new
    result = tuple(sorted(roots))
    if len(result) != datum.num_positive_roots:
        raise InvariantError(
            "reflection closure found %d positive roots, expected %d"
            % (len(result), datum.num_positive_roots)
        )
    return result


def rho(datum: RootDatum) -> tuple:
    return (1,) * datum.rank


def weight_root_pairing(datum: RootDatum, lam, root) -> Fraction:
    """W-invariant inner product (lam, root) for root in the simple-root basis."""
    d = symmetrizer(datum)
    return Fraction(sum(root[j] * d[j] * lam[j] for j in range(datum.rank)))


def weight_inner(datum: RootDatum, lam, mu) -> Fraction:
    """W-invariant inner product of two weights in fundamental coordinates."""
    c = cartan_matrix(datum)
    n = datum.rank
    # solve C g = mu, so that mu = sum_j g_j alpha_j
    g = linalg.solve([c[i] + (mu[i],) for i in range(n)], n)
    d = symmetrizer(datum)
    return sum(g[j] * d[j] * lam[j] for j in range(n))


def simple_root_in_fundamental(datum: RootDatum, i: int) -> tuple:
    """alpha_i written in fundamental-weight coordinates (column i of Cartan)."""
    c = cartan_matrix(datum)
    return tuple(c[j][i - 1] for j in range(datum.rank))


def is_dominant(lam) -> bool:
    return all(x >= 0 for x in lam)


# ---------------------------------------------------------------------------
# Weyl group elements


@dataclass(frozen=True)
class WeylElement:
    datum: RootDatum
    oneline: tuple

    def __repr__(self):
        return "W%s%d%r" % (self.datum.family, self.datum.rank, list(self.oneline))


def identity_element(datum: RootDatum) -> WeylElement:
    size = datum.rank + 1 if datum.family == "A" else datum.rank
    return WeylElement(datum, tuple(range(1, size + 1)))


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
    if not 1 <= i <= datum.rank:
        raise ValueError("letter %r out of range 1..%d" % (i, datum.rank))


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    """Composition u o v, with v applied first."""
    if u.datum != v.datum:
        raise ValueError("elements from different groups")
    uw = u.oneline
    out = []
    for x in v.oneline:
        y = uw[abs(x) - 1]
        out.append(y if x > 0 else -y)
    return WeylElement(u.datum, tuple(out))


def inverse(w: WeylElement) -> WeylElement:
    out = [0] * len(w.oneline)
    for j, x in enumerate(w.oneline, start=1):
        out[abs(x) - 1] = j if x > 0 else -j
    return WeylElement(w.datum, tuple(out))


def word_to_element(datum: RootDatum, word) -> WeylElement:
    w = identity_element(datum)
    for i in word:
        w = multiply(w, simple_element(datum, i))
    return w


@lru_cache(maxsize=None)
def length(w: WeylElement) -> int:
    """Number of positive roots sent to negative roots (= inversion count)."""
    line = w.oneline
    n = len(line)
    if w.datum.family == "A":
        return sum(1 for i in range(n) for j in range(i + 1, n) if line[i] > line[j])
    total = sum(1 for x in line if x < 0)  # roots 2e_i
    for i in range(n):
        for j in range(i + 1, n):
            a, b = line[i], line[j]
            # image of e_j - e_i: the sign on the larger coordinate index decides
            total += (b if abs(b) > abs(a) else -a) < 0
            # image of e_j + e_i
            total += (b if abs(b) > abs(a) else a) < 0
    return total


def left_mul(i: int, w: WeylElement) -> WeylElement:
    return multiply(simple_element(w.datum, i), w)


def left_descents(w: WeylElement):
    lw = length(w)
    return [i for i in range(1, w.datum.rank + 1) if length(left_mul(i, w)) < lw]


def longest_element(datum: RootDatum) -> WeylElement:
    if datum.family == "A":
        return WeylElement(datum, tuple(range(datum.rank + 1, 0, -1)))
    return WeylElement(datum, tuple(-j for j in range(1, datum.rank + 1)))


@lru_cache(maxsize=None)
def reduced_word(w: WeylElement) -> tuple:
    """One reduced word, deterministic (smallest left descent first)."""
    word = []
    while length(w) > 0:
        i = left_descents(w)[0]
        word.append(i)
        w = left_mul(i, w)
    return tuple(word)


@lru_cache(maxsize=None)
def all_reduced_words(w: WeylElement) -> tuple:
    """Every reduced word of w, sorted."""
    if length(w) == 0:
        return ((),)
    out = []
    for i in left_descents(w):
        for tail in all_reduced_words(left_mul(i, w)):
            out.append((i,) + tail)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Bruhat order via the lifting property."""
    if v.datum != w.datum:
        raise ValueError("elements from different groups")
    if length(v) == 0:
        return True
    if length(v) > length(w):
        return False
    i = left_descents(w)[0]
    sv = left_mul(i, v)
    if length(sv) < length(v):
        return bruhat_leq(sv, left_mul(i, w))
    return bruhat_leq(v, left_mul(i, w))


def act_on_root(w: WeylElement, root) -> tuple:
    """Image of a root (simple-root basis) under w."""
    c = cartan_matrix(w.datum)
    n = w.datum.rank
    vec = tuple(root)
    for i in reversed(reduced_word(w)):
        pairing = sum(vec[j] * c[i - 1][j] for j in range(n))
        vec = tuple(vec[j] - (pairing if j == i - 1 else 0) for j in range(n))
    return vec


def act_on_weight(w: WeylElement, lam) -> tuple:
    """Image of a weight (fundamental coordinates) under w."""
    c = cartan_matrix(w.datum)
    n = w.datum.rank
    vec = tuple(lam)
    for i in reversed(reduced_word(w)):
        coeff = vec[i - 1]
        vec = tuple(vec[j] - coeff * c[j][i - 1] for j in range(n))
    return vec


@lru_cache(maxsize=None)
def star_index(datum: RootDatum, i: int) -> int:
    """The involution i* with w_0(alpha_i) = -alpha_{i*}."""
    check_letter(datum, i)
    alpha = tuple(1 if j == i - 1 else 0 for j in range(datum.rank))
    image = act_on_root(longest_element(datum), alpha)
    neg = tuple(-x for x in image)
    for j in range(datum.rank):
        if neg == tuple(1 if k == j else 0 for k in range(datum.rank)):
            return j + 1
    raise InvariantError("w_0 does not permute the negated simple roots")


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


def is_reduced_word(datum: RootDatum, word) -> bool:
    return length(word_to_element(datum, word)) == len(word)


def check_word_of_longest(datum: RootDatum, word):
    """Raise unless word is a reduced word of w_0."""
    w = word_to_element(datum, word)
    if w != longest_element(datum) or len(word) != datum.num_positive_roots:
        raise ValueError("word %r is not a reduced word of the longest element" % (word,))


@lru_cache(maxsize=None)
def _extraction_table(datum: RootDatum, word: tuple) -> dict:
    """w -> sorted position tuples extracting a reduced word of w, for every w.

    The extraction sets of all w together are the reduced subwords of `word`
    (the faces of the subword complex, Knutson-Miller), so one depth-first
    search over the subwords, keeping each extension that raises the length
    by one, enumerates them all; every w occurs, by the subword property."""
    check_word_of_longest(datum, word)
    simple = [simple_element(datum, i) for i in range(1, datum.rank + 1)]
    found = {}

    def extend(pos, current, chosen):
        found.setdefault(current, []).append(tuple(chosen))
        for k in range(pos, len(word)):
            nxt = multiply(current, simple[word[k] - 1])
            if length(nxt) == len(chosen) + 1:
                chosen.append(k + 1)
                extend(k + 1, nxt, chosen)
                chosen.pop()

    extend(0, identity_element(datum), [])
    return {w: tuple(sorted(positions)) for w, positions in found.items()}


def compatible_subsets(datum: RootDatum, word: tuple, w: WeylElement) -> tuple:
    """All strictly increasing position tuples extracting a reduced word of w.

    Positions are 1-based into `word`, a tuple that must be a reduced word of
    w_0; w must be an element of the Weyl group of `datum`.
    """
    table = _extraction_table(datum, word)
    if w not in table:
        raise ValueError("%r is not an element of the Weyl group of %r" % (w, datum))
    return table[w]


@lru_cache(maxsize=None)
def all_elements(datum: RootDatum) -> tuple:
    """Every Weyl group element, sorted by (length, one-line form)."""
    seen = {identity_element(datum)}
    frontier = [identity_element(datum)]
    while frontier:
        new = []
        for w in frontier:
            for i in range(1, datum.rank + 1):
                x = left_mul(i, w)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return tuple(sorted(seen, key=lambda w: (length(w), w.oneline)))
