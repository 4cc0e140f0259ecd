"""Independent cross-validation oracles.

Two routes that never touch the polytope, crystal or pipe-dream machinery:

* the Weyl dimension formula, one integer quotient over the positive
  coroots;
* divided differences on the coinvariant algebra, for Schubert-basis
  structure constants.

Demazure module dimensions by isobaric Demazure operators on formal
characters live with the test references (`tests/reference_routes.py`),
since nothing that the system runs reads them.

The divided differences act on integer polynomials in orthogonal coordinates,
the classical realization of Billey-Haiman ("Schubert polynomials for the
classical groups", J. AMS 1995), in x_1..x_n for type C and x_1..x_{n+1} for
type A.  A polynomial is a dict {key: int}, the key one int holding the
exponent of x_j in bit field j (`_fields`).  No exponent of a
polynomial of degree at most N, the number of positive roots, passes N, so a
field holds N.bit_length() bits, and `poly_mul` refuses a product of a higher
degree with `InvariantError`, since its fields could carry; it reads each
degree as the sum of a key's fields, with no exponent tuple built.  With node 1
long, as in `cartan`, type C has alpha_1 = 2x_1, with s_1 negating x_1, and
alpha_i = x_i - x_{i-1} for i >= 2; type A has alpha_i = x_i - x_{i+1}.  Every
other s_i swaps the two variables of alpha_i, so each divided difference is a
closed form per monomial, with no multiplication and no division.

The top class is one signed staircase monomial (`top_class_polynomial`), the
root of Lascoux-Schutzenberger's Schubert polynomials in type A (1982), not
the denser product of the positive roots, |W| times the class of a point and
the test reference.  The top degree of the coinvariant algebra is one line
and every d_i keeps the ideal of positive-degree invariants
(Bernstein-Gelfand-Gelfand 1973), so any top-degree polynomial with d_{w_0}
equal to 1 gives the same structure constants: the identity representative
is the constant 1, else `check_normalization` raises `InvariantError`, and a
structure constant is a constant term.  A product of degree d runs over the
table's slice of length d, and `faces` reads nothing here but
`bgg_structure_constants`.
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
    left_mul,
    length,
    positive_coroots,
    reduced_word,
    right_ascents,
    right_mul,
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
# integer polynomials in orthogonal coordinates and divided differences


def _fields(datum: RootDatum) -> range:
    """The lowest bit of each exponent field, x_1 first; its step is the
    field width."""
    width = datum.num_positive_roots.bit_length()
    return range(0, datum.num_coordinates * width, width)


def _degree(fields: range, poly: dict) -> int:
    """The highest total degree of a packed polynomial: per key the sum of
    its bit fields, each shifted down and masked, so a total past N is read
    exactly and no exponent tuple is built."""
    field = (1 << fields.step) - 1
    top = 0
    for key in poly:
        total = 0
        for at in fields:
            total += key >> at & field
        if total > top:
            top = total
    return top


def poly_mul(datum: RootDatum, fields: range, f: dict, g: dict) -> dict:
    """f * g on the datum's `_fields`: exponents add field by field, with no
    carry while the degrees add up to at most N.  Each degree is the largest
    sum of a key's bit fields (`_degree`), so the guard decodes no monomial
    to a tuple."""
    degrees = [_degree(fields, h) for h in (f, g)]
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
    return _difference(datum, _fields(datum), i, f)


def _difference(datum: RootDatum, fields: range, i: int, f: dict) -> dict:
    """`divided_difference` on the datum's `fields`, for a letter in range."""
    if datum.family == "C" and i == 1:
        # (x^p - (-x)^p) / 2x is x^(p-1) for odd p and 0 for even p
        return {m - 1: c for m, c in f.items() if m & 1}
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


def top_class_polynomial(datum: RootDatum) -> tuple:
    """The class of a point, packed as an item tuple: x_1^n x_2^(n-1) ... x_n
    in A_n, and e x_1^(2n-1) x_2^(2n-3) ... x_n in C_n with e = (-1)^(n // 2),
    the sign of reversing x_1..x_n, as x_1 x_2^3 ... x_n^(2n-1) has d_{w_0} = 1."""
    n = datum.rank
    if datum.family == "A":
        exponents, sign = range(n, -1, -1), 1
    else:
        exponents, sign = range(2 * n - 1, 0, -2), (-1) ** (n // 2)
    return ((sum(e << at for e, at in zip(exponents, _fields(datum))), sign),)


@lru_cache(maxsize=None)
def schubert_representative(datum: RootDatum, w: WeylElement) -> tuple:
    """The representative of the Schubert class of w, a sorted item tuple:
    divided differences along w^{-1} w_0 applied to the top class.

    With i the first letter of `reduced_word(w^{-1} w_0)`, its least left
    descent, which is the least right ascent of w, the rest of that word is
    the one of (w s_i)^{-1} w_0, so the representative is d_i of the cached
    one of w s_i: the same divided differences in the same order, w s_i
    read off the group table's right column."""
    check_group(datum, w)  # this public cache holds no element of another group
    ascents = right_ascents(w)
    if not ascents:
        return top_class_polynomial(datum)
    i = ascents[0]
    # the cached function under a private name, so that a patch of the
    # public one reaches no other representative
    rep = _representative(datum, right_mul(w, i))
    return tuple(sorted(divided_difference(datum, i, dict(rep)).items()))


_representative = schubert_representative


def check_normalization(datum: RootDatum):
    """The identity representative, d_{w_0} of the top class, must be 1."""
    if schubert_representative(datum, all_elements(datum)[0]) != ((0, 1),):
        raise InvariantError("top-class normalization failed; convention error")


@lru_cache(maxsize=None)
def bgg_structure_constants(datum: RootDatum, u: WeylElement, v: WeylElement) -> tuple:
    """Expansion coefficients of the product of two Schubert classes, as a
    sorted tuple of (w, c) with c > 0 and l(w) = l(u) + l(v).

    Coefficient extraction: c_w is the constant term of d_w applied to the
    product of the two representatives, for each w of its degree.  The pair
    is taken in group-table order, so (v, u) is one cache hit on (u, v),
    computed once.
    """
    check_group(datum, u, v)
    lu, lv = length(u), length(v)
    if (lv, v.oneline) < (lu, u.oneline):
        return _structure_constants(datum, v, u)
    check_normalization(datum)
    deg = lu + lv
    if deg > datum.num_positive_roots:
        return ()
    fields = _fields(datum)
    product = poly_mul(datum, fields, dict(schubert_representative(datum, u)), dict(schubert_representative(datum, v)))
    # w -> d_w of the product: d_w = d_i d_{s_i w} for i the least left
    # descent of w, the letters of `reduced_word(w)`, so each element's
    # chain runs once per call, and a zero one stays zero
    chains = {all_elements(datum)[0]: product}

    def chain(w):
        f = chains.get(w)
        if f is None:
            i = reduced_word(w)[0]
            f = chain(left_mul(i, w))
            f = chains[w] = _difference(datum, fields, i, f) if f else f
        return f

    out = []
    for w in elements_of_length(datum, deg):
        val = chain(w).get(0, 0)
        if val:
            out.append((w, val))
    return tuple(out)


_structure_constants = bgg_structure_constants
