"""Independent cross-validation oracles.

Three routes that never touch the polytope, crystal or pipe-dream machinery:

* the Weyl dimension formula, one integer quotient over the positive
  coroots;
* isobaric Demazure operators on formal characters, for Demazure module
  dimensions;
* divided differences on the coinvariant algebra, for Schubert-basis
  structure constants.

The divided differences act on integer polynomials in orthogonal coordinates,
the classical realization of Billey-Haiman ("Schubert polynomials for the
classical groups", J. AMS 1995), in x_1..x_n for type C and x_1..x_{n+1} for
type A.  A polynomial is a dict {key: int}, the key one int holding the
exponent of x_j in bit field j (`pack`, `unpack`).  No exponent of a
polynomial of degree at most N, the number of positive roots, passes N, so a
field holds N.bit_length() bits, and `poly_mul` refuses a product of a higher
degree with `InvariantError`, since its fields could carry; it reads each
degree as the sum of a key's fields, with no exponent tuple built.  With node 1
long, as in `cartan`, type C has alpha_1 = 2x_1, with s_1 negating x_1, and
alpha_i = x_i - x_{i-1} for i >= 2; type A has alpha_i = x_i - x_{i+1}.  Every
other s_i swaps the two variables of alpha_i, so each divided difference is a
closed form per monomial, with no multiplication and no division.

The top class is the integer product of the positive roots, so the
representative of w is |W| times its Schubert polynomial and a structure
constant is a constant term divided by |W|^2.  An identity representative
other than the constant |W|, or a remainder in that division, is a convention
slip and raises `InvariantError`.  A product of degree d runs over the table's
slice of length d, and `faces` reads nothing here but `bgg_structure_constants`.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .cartan import (
    InvariantError,
    RootDatum,
    WeylElement,
    all_elements,
    check_group,
    check_letter,
    check_weight,
    elements_of_length,
    group_order,
    inverse,
    left_ascents,
    left_mul,
    length,
    positive_coroots,
    positive_roots,
    reduced_word,
    simple_root_in_fundamental,
)


def weyl_dimension(datum: RootDatum, lam) -> int:
    """prod over the positive coroots beta^vee of <lam + rho, beta^vee> /
    <rho, beta^vee>.  With k the simple-coroot coefficients of beta^vee,
    <rho, beta^vee> is sum(k) and <lam, beta^vee> is k . lam, so the product
    is one integer quotient, and a remainder is a convention slip."""
    check_weight(datum, lam)
    num = den = 1
    for k in positive_coroots(datum):
        num *= sum(k) + sum(map(mul, k, lam))
        den *= sum(k)
    if num % den:
        raise InvariantError("Weyl dimension is not an integer: Cartan convention error")
    return num // den


# ---------------------------------------------------------------------------
# formal characters and isobaric Demazure operators


def demazure_operator(datum: RootDatum, i: int, char: dict) -> dict:
    """pi_i on an integer combination of formal exponentials e^mu: with
    m = <mu, h_i>, e^mu goes to the e^(mu - k alpha_i) for 0 <= k <= m, and
    to minus those for m < k < 0."""
    alpha = simple_root_in_fundamental(datum, i)
    out = {}
    for mu, coeff in char.items():
        if len(mu) != datum.rank:
            raise ValueError("weight %r is not of rank %d" % (mu, datum.rank))
        m = mu[i - 1]
        ks, c = (range(m + 1), coeff) if m >= 0 else (range(-1, m, -1), -coeff)
        for k in ks:
            image = tuple(x - k * a for x, a in zip(mu, alpha))
            out[image] = out.get(image, 0) + c
    return {mu: c for mu, c in out.items() if c}


def demazure_character(datum: RootDatum, w: WeylElement, lam) -> dict:
    """Character of the Demazure module for w at lam, via any reduced word."""
    check_group(datum, w)
    check_weight(datum, lam)
    char = {tuple(lam): 1}
    for i in reversed(reduced_word(w)):
        char = demazure_operator(datum, i, char)
    return char


def demazure_dimension(datum: RootDatum, w: WeylElement, lam) -> int:
    return sum(demazure_character(datum, w, lam).values())


# ---------------------------------------------------------------------------
# integer polynomials in orthogonal coordinates and divided differences


def _fields(datum: RootDatum) -> range:
    """The lowest bit of each exponent field, x_1 first; its step is the
    field width."""
    width = datum.num_positive_roots.bit_length()
    return range(0, datum.num_coordinates * width, width)


def pack(datum: RootDatum, poly: dict) -> dict:
    """{exponent tuple: c} keyed by one int, exponent j in field j.  Raises
    ValueError for a tuple of another length than the coordinates or an
    exponent outside 0..N."""
    fields, top = _fields(datum), datum.num_positive_roots
    for mono in poly:
        if len(mono) != len(fields) or not all(0 <= e <= top for e in mono):
            raise ValueError("monomial %r is not %d exponents in 0..%d" % (mono, len(fields), top))
    return {sum(e << at for at, e in zip(fields, mono)): c for mono, c in poly.items()}


def unpack(datum: RootDatum, poly: dict) -> dict:
    """{key: c} keyed by exponent tuples, the inverse of `pack`."""
    fields = _fields(datum)
    return {tuple(key >> at & (1 << fields.step) - 1 for at in fields): c for key, c in poly.items()}


def _degree(datum: RootDatum, poly: dict) -> int:
    """The highest total degree of a packed polynomial: per key the sum of
    its bit fields, each shifted down and masked, so a total past N is read
    exactly and no exponent tuple is built."""
    fields = _fields(datum)
    field = (1 << fields.step) - 1
    top = 0
    for key in poly:
        total = 0
        for at in fields:
            total += key >> at & field
        if total > top:
            top = total
    return top


def poly_mul(datum: RootDatum, f: dict, g: dict) -> dict:
    """f * g: exponents add field by field, with no carry while the degrees
    add up to at most N.  Each degree is the largest sum of a key's bit
    fields (`_degree`), so the guard decodes no monomial to a tuple."""
    degrees = [_degree(datum, h) for h in (f, g)]
    if sum(degrees) > datum.num_positive_roots:
        raise InvariantError("degrees %d + %d overflow the exponent fields" % tuple(degrees))
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _swapped_variables(datum: RootDatum, i: int) -> tuple:
    """Indices (a, b) with alpha_i = x_a - x_b, 0-based; s_i swaps them."""
    return (i - 1, i) if datum.family == "A" else (i - 1, i - 2)


def divided_difference(datum: RootDatum, i: int, f: dict) -> dict:
    """(f - s_i f) / alpha_i, one packed monomial at a time."""
    check_letter(datum, i)
    if datum.family == "C" and i == 1:
        # (x^p - (-x)^p) / 2x is x^(p-1) for odd p and 0 for even p
        return {m - 1: c for m, c in f.items() if m & 1}
    fields = _fields(datum)
    field = (1 << fields.step) - 1
    a, b = (fields[j] for j in _swapped_variables(datum, i))
    step = (1 << a) - (1 << b)
    out = {}
    for mono, c in f.items():
        p, q = mono >> a & field, mono >> b & field
        # (x_a^p x_b^q - x_a^q x_b^p) / (x_a - x_b)
        #   = sign * sum of x_a^e x_b^(p+q-1-e) over min(p,q) <= e < max(p,q)
        # from e = min(p, q), one `step` per e
        if p < q:
            c, key = -c, mono - (1 << b)
        else:
            key = mono + (q - p << a) + (p - 1 - q << b)
        for _ in range(abs(p - q)):
            out[key] = out.get(key, 0) + c
            key += step
    return {m: c for m, c in out.items() if c}


def orthogonal_root(datum: RootDatum, root) -> tuple:
    """A root given in the simple-root basis, in orthogonal coordinates."""
    out = [0] * datum.num_coordinates
    for j, m in enumerate(root, start=1):
        if datum.family == "C" and j == 1:
            out[0] += 2 * m
        else:
            a, b = _swapped_variables(datum, j)
            out[a] += m
            out[b] -= m
    return tuple(out)


def top_class_polynomial(datum: RootDatum) -> tuple:
    """The product of the positive roots, |W| times the class of a point, as
    a sorted item tuple, packed."""
    f = {0: 1}
    for alpha in positive_roots(datum):
        vec = orthogonal_root(datum, alpha)
        f = poly_mul(datum, f, {1 << at: c for at, c in zip(_fields(datum), vec) if c})
    return tuple(sorted(f.items()))


@lru_cache(maxsize=None)
def schubert_representative(datum: RootDatum, w: WeylElement) -> tuple:
    """|W| times the Schubert polynomial of w, as a sorted item tuple: divided
    differences along w^{-1} w_0 applied to the top class.

    With i the first letter of `reduced_word(w^{-1} w_0)`, its least left
    descent, which is the least right ascent of w, the rest of that word is
    the one of (w s_i)^{-1} w_0, so the representative is d_i of the cached
    one of w s_i: the same divided differences in the same order."""
    check_group(datum, w)  # this public cache holds no element of another group
    inv = inverse(w)
    ascents = left_ascents(inv)  # the letters i with l(w s_i) > l(w)
    if not ascents:
        return top_class_polynomial(datum)
    # the cached function under a private name, so that a patch of the
    # public one reaches no other representative
    rep = _representative(datum, inverse(left_mul(ascents[0], inv)))
    return tuple(sorted(divided_difference(datum, ascents[0], dict(rep)).items()))


_representative = schubert_representative


def check_normalization(datum: RootDatum):
    """The identity representative must be the constant |W|."""
    if dict(schubert_representative(datum, all_elements(datum)[0])) != {0: group_order(datum)}:
        raise InvariantError("top-class normalization failed; convention error")


@lru_cache(maxsize=None)
def bgg_structure_constants(datum: RootDatum, u: WeylElement, v: WeylElement) -> tuple:
    """Expansion coefficients of the product of two Schubert classes, as a
    sorted tuple of (w, c) with c > 0 and l(w) = l(u) + l(v).

    Coefficient extraction: c_w is the constant term of the divided-difference
    chain for w applied to any representative of the product, here
    |W|^2 times the product, for each w of its degree.  The pair is taken in
    group-table order, so (v, u) is one cache hit on (u, v), computed once.
    """
    check_group(datum, u, v)
    lu, lv = length(u), length(v)
    if (lv, v.oneline) < (lu, u.oneline):
        return _structure_constants(datum, v, u)
    check_normalization(datum)
    deg = lu + lv
    if deg > datum.num_positive_roots:
        return ()
    product = poly_mul(datum, dict(schubert_representative(datum, u)), dict(schubert_representative(datum, v)))
    scale = group_order(datum) ** 2
    # word suffix -> its divided differences applied to the product; the
    # suffixes of a reduced word are the reduced words of shorter elements
    # (reduced_word(s_i t) is reduced_word(t)[1:]), so each runs once
    chains = {(): product}
    out = []
    for w in elements_of_length(datum, deg):
        word = reduced_word(w)
        k = next(k for k in range(len(word) + 1) if word[k:] in chains)
        f = chains[word[k:]]
        for j in range(k - 1, -1, -1):
            f = chains[word[j:]] = divided_difference(datum, word[j], f)
        val, rem = divmod(f.get(0, 0), scale)
        if rem:
            raise InvariantError("structure constant is not an integer; convention error")
        if val:
            out.append((w, val))
    return tuple(out)


_structure_constants = bgg_structure_constants
