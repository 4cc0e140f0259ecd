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
classical groups", J. AMS 1995).  A polynomial is a dict {exponent tuple: int}
in x_1..x_n for type C and x_1..x_{n+1} for type A.  With node 1 long, as in
`cartan`, type C has alpha_1 = 2x_1, with s_1 negating x_1, and
alpha_i = x_i - x_{i-1} for i >= 2; type A has alpha_i = x_i - x_{i+1}.  Every
other s_i swaps the two variables of alpha_i, so each divided difference is a
closed form per monomial, with no multiplication and no division.

The top class is the integer product of the positive roots, so the
representative of w is |W| times its Schubert polynomial and a structure
constant is a constant term divided by |W|^2.  An identity representative
other than the constant |W|, or a remainder in that division, is a convention
slip and raises `InvariantError`.
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
    group_order,
    identity_element,
    inverse,
    length,
    longest_element,
    multiply,
    positive_coroots,
    positive_roots,
    reduced_word,
    simple_element,
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
    """pi_i on an integer combination of formal exponentials e^mu."""
    alpha = simple_root_in_fundamental(datum, i)
    out = {}

    def bump(mu, coeff):
        if coeff:
            out[mu] = out.get(mu, 0) + coeff
            if out[mu] == 0:
                del out[mu]

    for mu, coeff in char.items():
        m = mu[i - 1]
        if m >= 0:
            for k in range(m + 1):
                bump(tuple(x - k * a for x, a in zip(mu, alpha)), coeff)
        elif m <= -2:
            for k in range(1, -m):
                bump(tuple(x + k * a for x, a in zip(mu, alpha)), -coeff)
    return out


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


def poly_mul(f: dict, g: dict) -> dict:
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _swapped_variables(datum: RootDatum, i: int) -> tuple:
    """Indices (a, b) with alpha_i = x_a - x_b, 0-based; s_i swaps them."""
    return (i - 1, i) if datum.family == "A" else (i - 1, i - 2)


def divided_difference(datum: RootDatum, i: int, f: dict) -> dict:
    """(f - s_i f) / alpha_i, one monomial at a time."""
    check_letter(datum, i)
    if datum.family == "C" and i == 1:
        # (x^p - (-x)^p) / 2x is x^(p-1) for odd p and 0 for even p
        return {(m[0] - 1,) + m[1:]: c for m, c in f.items() if m[0] % 2}
    a, b = _swapped_variables(datum, i)
    out = {}
    for mono, c in f.items():
        p, q = mono[a], mono[b]
        if p == q:
            continue
        # (x_a^p x_b^q - x_a^q x_b^p) / (x_a - x_b)
        #   = sign * sum of x_a^e x_b^(p+q-1-e) over min(p,q) <= e < max(p,q)
        if p < q:
            c = -c
            lo, hi = p, q
        else:
            lo, hi = q, p
        term = list(mono)
        for e in range(lo, hi):
            term[a] = e
            term[b] = p + q - 1 - e
            key = tuple(term)
            out[key] = out.get(key, 0) + c
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


@lru_cache(maxsize=None)
def top_class_polynomial(datum: RootDatum) -> tuple:
    """The product of the positive roots, |W| times the class of a point, as
    a sorted item tuple."""
    size = datum.num_coordinates
    f = {(0,) * size: 1}
    for alpha in positive_roots(datum):
        vec = orthogonal_root(datum, alpha)
        f = poly_mul(f, {tuple(int(t == j) for t in range(size)): c for j, c in enumerate(vec) if c})
    return tuple(sorted(f.items()))


@lru_cache(maxsize=None)
def schubert_representative(datum: RootDatum, w: WeylElement) -> tuple:
    """|W| times the Schubert polynomial of w, as a sorted item tuple: divided
    differences along w^{-1} w_0 applied to the top class.

    With i the first letter of `reduced_word(w^{-1} w_0)`, the rest of that
    word is the one of (w s_i)^{-1} w_0, so the representative is d_i of the
    cached one of w s_i: the same divided differences in the same order."""
    word = reduced_word(multiply(inverse(w), longest_element(datum)))
    if not word:
        return top_class_polynomial(datum)
    # the cached function under a private name, so that a patch of the
    # public one reaches no other representative
    rep = _representative(datum, multiply(w, simple_element(datum, word[0])))
    return tuple(sorted(divided_difference(datum, word[0], dict(rep)).items()))


_representative = schubert_representative


def check_normalization(datum: RootDatum):
    """The identity representative must be the constant |W|."""
    f = dict(schubert_representative(datum, identity_element(datum)))
    if f != {(0,) * datum.num_coordinates: group_order(datum)}:
        raise InvariantError("top-class normalization failed; convention error")


@lru_cache(maxsize=None)
def _reduced_words_by_length(datum: RootDatum) -> tuple:
    """Entry d: every (w, reduced word of w) with l(w) = d."""
    elems = all_elements(datum)
    return tuple(
        tuple((w, reduced_word(w)) for w in elems if length(w) == d)
        for d in range(datum.num_positive_roots + 1)
    )


@lru_cache(maxsize=None)
def bgg_structure_constants(datum: RootDatum, u: WeylElement, v: WeylElement) -> tuple:
    """Expansion coefficients of the product of two Schubert classes, as a
    sorted tuple of (w, c) with c > 0 and l(w) = l(u) + l(v).

    Coefficient extraction: c_w is the constant term of the divided-difference
    chain for w applied to any representative of the product, here
    |W|^2 times the product.
    """
    check_group(datum, u, v)
    check_normalization(datum)
    deg = length(u) + length(v)
    if deg > datum.num_positive_roots:
        return ()
    product = poly_mul(dict(schubert_representative(datum, u)), dict(schubert_representative(datum, v)))
    zero = (0,) * datum.num_coordinates
    scale = group_order(datum) ** 2
    # word suffix -> its divided differences applied to the product; the
    # suffixes of a reduced word are the reduced words of shorter elements
    # (reduced_word(s_i t) is reduced_word(t)[1:]), so each runs once
    chains = {(): product}
    out = []
    for w, word in _reduced_words_by_length(datum)[deg]:
        k = next(k for k in range(len(word) + 1) if word[k:] in chains)
        f = chains[word[k:]]
        for j in range(k - 1, -1, -1):
            f = chains[word[j:]] = divided_difference(datum, word[j], f)
        val, rem = divmod(f.get(zero, 0), scale)
        if rem:
            raise InvariantError("structure constant is not an integer; convention error")
        if val:
            out.append((w, val))
    return tuple(out)
