"""Independent cross-validation oracles.

Three routes that never touch the polytope or pipe-dream machinery:

* the Weyl dimension formula, evaluated exactly over rationals;
* isobaric Demazure operators on formal characters, for Demazure module
  dimensions;
* divided differences on the coinvariant algebra, for Schubert-basis
  structure constants.

Polynomials live in Sym of the weight space: generators are the fundamental
weights, a weight is a linear form, simple reflections act by the usual
substitution, and each divided difference divides exactly by a simple root
(a hard error otherwise, which catches any action-convention slip
immediately).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .cartan import (
    RootDatum,
    WeylElement,
    all_elements,
    cartan_matrix,
    identity_element,
    inverse,
    length,
    longest_element,
    multiply,
    positive_roots,
    reduced_word,
    rho,
    simple_root_in_fundamental,
    weight_root_pairing,
)


def weyl_dimension(datum: RootDatum, lam) -> int:
    """prod over positive roots of (lam+rho, alpha)/(rho, alpha)."""
    lam_rho = tuple(x + 1 for x in lam)
    num = Fraction(1)
    for alpha in positive_roots(datum):
        num *= weight_root_pairing(datum, lam_rho, alpha) / weight_root_pairing(
            datum, rho(datum), alpha
        )
    if num.denominator != 1:
        raise ArithmeticError("Weyl dimension is not an integer: Cartan convention error")
    return int(num)


def group_order(datum: RootDatum) -> int:
    n = datum.rank
    return factorial(n + 1) if datum.family == "A" else (2 ** n) * factorial(n)


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
    char = {tuple(lam): 1}
    for i in reversed(reduced_word(w)):
        char = demazure_operator(datum, i, char)
    return char


def demazure_dimension(datum: RootDatum, w: WeylElement, lam) -> int:
    return sum(demazure_character(datum, w, lam).values())


def character_is_w_invariant(datum: RootDatum, char: dict) -> bool:
    c = cartan_matrix(datum)
    n = datum.rank
    for i in range(1, n + 1):
        reflected = {}
        for mu, coeff in char.items():
            img = tuple(mu[j] - mu[i - 1] * c[j][i - 1] for j in range(n))
            reflected[img] = reflected.get(img, 0) + coeff
        if reflected != char:
            return False
    return True


# ---------------------------------------------------------------------------
# weight-space polynomials and divided differences

# polynomial = {exponent tuple: Fraction}, variables = fundamental weights


def poly_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, Fraction(0)) + c
        if out[m] == 0:
            del out[m]
    return out


def poly_scale(f: dict, c) -> dict:
    c = Fraction(c)
    if c == 0:
        return {}
    return {m: v * c for m, v in f.items()}


def poly_mul(f: dict, g: dict) -> dict:
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
            if out[m] == 0:
                del out[m]
    return out


def linear_form(coeffs) -> dict:
    n = len(coeffs)
    out = {}
    for j, c in enumerate(coeffs):
        if c:
            mono = tuple(1 if t == j else 0 for t in range(n))
            out[mono] = Fraction(c)
    return out


def constant_term(f: dict) -> Fraction:
    if not f:
        return Fraction(0)
    zero = (0,) * len(next(iter(f)))
    return f.get(zero, Fraction(0))


@lru_cache(maxsize=None)
def _generator_image(datum: RootDatum, i: int, j: int):
    """s_i applied to the j-th fundamental weight, as a linear polynomial."""
    n = datum.rank
    base = [Fraction(1) if t == j else Fraction(0) for t in range(n)]
    if j == i - 1:
        alpha = simple_root_in_fundamental(datum, i)
        base = [b - a for b, a in zip(base, alpha)]
    return linear_form(base)


def apply_reflection(datum: RootDatum, i: int, f: dict) -> dict:
    n = datum.rank
    out = {}
    power_cache = {}
    for mono, coeff in f.items():
        term = {(0,) * n: Fraction(1)}
        for j, e in enumerate(mono):
            if not e:
                continue
            key = (j, e)
            if key not in power_cache:
                p = {(0,) * n: Fraction(1)}
                img = _generator_image(datum, i, j)
                for _ in range(e):
                    p = poly_mul(p, img)
                power_cache[key] = p
            term = poly_mul(term, power_cache[key])
        out = poly_add(out, poly_scale(term, coeff))
    return out


def divide_by_simple_root(datum: RootDatum, i: int, f: dict) -> dict:
    """Exact division by alpha_i; raises if the remainder is nonzero."""
    alpha_poly = linear_form(simple_root_in_fundamental(datum, i))
    var = i - 1
    quotient = {}
    work = dict(f)
    while work:
        mono = max(work, key=lambda m: (m[var], m))
        if mono[var] == 0:
            raise ArithmeticError("polynomial is not divisible by the simple root")
        qc = work[mono] / 2  # alpha_i has coefficient 2 on its own fundamental weight
        qmono = tuple(e - 1 if j == var else e for j, e in enumerate(mono))
        quotient[qmono] = quotient.get(qmono, Fraction(0)) + qc
        work = poly_add(work, poly_scale(poly_mul({qmono: Fraction(1)}, alpha_poly), -qc))
    return {m: c for m, c in quotient.items() if c != 0}


def divided_difference(datum: RootDatum, i: int, f: dict) -> dict:
    num = poly_add(f, poly_scale(apply_reflection(datum, i, f), -1))
    if not num:
        return {}
    return divide_by_simple_root(datum, i, num)


def apply_divided_differences(datum: RootDatum, word, f: dict) -> dict:
    for i in reversed(word):
        f = divided_difference(datum, i, f)
        if not f:
            return {}
    return f


@lru_cache(maxsize=None)
def top_class_polynomial(datum: RootDatum) -> tuple:
    """(prod of positive roots)/|W| as a sorted item tuple."""
    f = {(0,) * datum.rank: Fraction(1)}
    for alpha in positive_roots(datum):
        coeffs = [0] * datum.rank
        for j, m in enumerate(alpha):
            if m:
                root = simple_root_in_fundamental(datum, j + 1)
                for t in range(datum.rank):
                    coeffs[t] += m * root[t]
        f = poly_mul(f, linear_form(coeffs))
    f = poly_scale(f, Fraction(1, group_order(datum)))
    return tuple(sorted(f.items()))


@lru_cache(maxsize=None)
def schubert_representative(datum: RootDatum, w: WeylElement) -> tuple:
    """Representative of the degree-l(w) Schubert class, as a sorted item
    tuple: divided differences along w^{-1} w_0 applied to the top class."""
    f = dict(top_class_polynomial(datum))
    word = reduced_word(multiply(inverse(w), longest_element(datum)))
    return tuple(sorted(apply_divided_differences(datum, word, f).items()))


def check_normalization(datum: RootDatum):
    """The identity representative must be the constant 1."""
    f = dict(schubert_representative(datum, identity_element(datum)))
    if f != {(0,) * datum.rank: Fraction(1)}:
        raise ArithmeticError("top-class normalization failed; convention error")


@lru_cache(maxsize=None)
def bgg_structure_constants(datum: RootDatum, u: WeylElement, v: WeylElement) -> tuple:
    """Expansion coefficients of the product of two Schubert classes, as a
    sorted tuple of (w, c) with c > 0 and l(w) = l(u) + l(v).

    Coefficient extraction: c_w is the constant term of the divided-difference
    chain for w applied to any representative of the product.
    """
    check_normalization(datum)
    deg = length(u) + length(v)
    big_n = datum.num_positive_roots
    if deg > big_n:
        return ()
    product = poly_mul(dict(schubert_representative(datum, u)), dict(schubert_representative(datum, v)))
    out = []
    for w in all_elements(datum):
        if length(w) != deg:
            continue
        val = constant_term(apply_divided_differences(datum, reduced_word(w), product))
        if val:
            if val.denominator != 1:
                raise ArithmeticError("non-integral structure constant; convention error")
            out.append((w, int(val)))
    return tuple(out)
