"""Face decompositions of (opposite) Demazure crystals and the Schubert
calculus built on them: Schubert classes as face sums, and products, degree
pairings and side volumes read off those sums in the ring of a deformed
polytope.

The two decomposition results being exercised:

* opposite side: the image of an opposite Demazure crystal in string
  coordinates is the lattice-point set of the union of lambda-bound faces
  indexed by the increasing subsequences of the ambient word extracting a
  reduced word of w;
* Demazure side: the image of a Demazure crystal is the lattice-point set of
  the union of string-cone faces indexed by the box diagrams in the
  box-removal set of w.

Both are checked against the crystal route on every call and raise
TheoremViolationError on any discrepancy.  The faces are cut by set
arithmetic over the crystal's one cached record per (datum, word, lambda),
looked up once per call (`crystals.record`): its strings, on the standard
word certified once, when the record is built, to be the string polytope's
lattice points, and one bitmask per row over them (bit i set when string i
lies on the row), so a face is the AND of its rows' masks and a union the OR
of its faces.  The (opposite) Demazure crystal is the record's fold mask over
the same strings (`crystals.fold`), so the check compares two ints, a count
is a bit count, and the union, a `polytopes.PointSet` view, decodes its
strings only where they are read.  The GT/SGT side counts its face unions
the same way over the lattice points of the model polytope, in sweep order
(`polytopes.lattice_incidence`).  Each facet block of a record
or table has a point on all its rows, certified when it is built, so no face
is empty.  Only these are cached; the crystal comparison runs on every call.

The claim the class arithmetic exercises: the (dual) Kogan face sums
represent the Schubert classes in the polytope ring (Kiritchenko-Smirnov-
Timorin for Gelfand-Zetlin polytopes, the paper's result for the symplectic
ones).  A class is the tuple of its faces' tight sets, 1-based rows of one
facet family.  The arithmetic runs on a deformed model polytope certified as a
tower of intervals, whose toric cohomology ring is that of a Bott tower: a
tight set maps to a step bitmask, every class has one square-free normal form
with one product (`DeformedContext.multiply`), and every pairing, product
coefficient and side volume is one degree, read off by complement.
Every product is checked against the divided-difference oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial
from types import MappingProxyType

from . import crystals, oracles, pipedreams, polytopes
from .cartan import (
    InvariantError,
    RootDatum,
    WeylElement,
    check_group,
    check_integers,
    check_weight,
    compatible_subsets,
    elements_of_length,
    identity_element,
    length,
    longest_element,
    multiply,
    reduced_word,
    standard_word,
)


class TheoremViolationError(AssertionError):
    def __init__(self, payload):
        self.payload = payload
        super().__init__(str(payload))


@dataclass(frozen=True)
class FaceDecomposition:
    """`union` is a view over the table's certified strings
    (`polytopes.PointSet`): its mask is the OR of the faces' masks, its size
    their bit count, and it decodes its strings only when they are read.
    `empty`, always () by the block certificate, is kept for
    `perfbench/workloads.py` until ROADMAP item 1."""

    tights: tuple                 # index tuples, one per face
    union: polytopes.PointSet
    empty = ()


def _face_union(tights, masks, count: int) -> int:
    """The bitmask over `count` points of the union of the faces that the
    tight sets index, 1-based into `masks` (per row, bit i set when point i
    lies on it): the OR over the faces of the AND of their rows' masks, all
    points for the empty tight set."""
    full = (1 << count) - 1
    union = 0
    for tight in tights:
        face = full
        for k in tight:
            face &= masks[k - 1]
        union |= face
    return union


def _decompose(theorem, datum, word, w, lam, tights, block: int, opposite: bool) -> FaceDecomposition:
    """The faces that the tight sets index, 1-based into the record's rows
    from `block` on, once the OR of their masks is the fold of w on its side."""
    record = crystals.record(datum, word, lam)
    union = _face_union(tights, record.masks[block:], len(record.strings))
    crystal = crystals.fold(record, w, opposite)
    if union != crystal:
        raise TheoremViolationError(
            {
                "theorem": theorem,
                "type": datum.family,
                "rank": datum.rank,
                "lambda": list(lam),
                "w": list(reduced_word(w)),
                "face_union": union.bit_count(),
                "crystal": crystal.bit_count(),
            }
        )
    return FaceDecomposition(tights, polytopes.PointSet(union, record.strings))


def opposite_demazure_faces(datum: RootDatum, w: WeylElement, lam, word=None) -> FaceDecomposition:
    """Lambda-bound faces indexed by the extractions of w; the lattice union
    must reproduce the opposite Demazure crystal."""
    word = tuple(word) if word is not None else standard_word(datum)
    tights = compatible_subsets(datum, word, w)
    return _decompose("opposite-demazure-faces", datum, word, w, lam, tights, 0, True)


def demazure_faces(datum: RootDatum, w: WeylElement, lam) -> FaceDecomposition:
    """String-cone faces indexed by the box-removal set of w; the lattice
    union must reproduce the Demazure crystal."""
    tights = schubert_class(datum, w, "kogan")
    return _decompose("demazure-faces", datum, standard_word(datum), w, lam, tights, datum.num_positive_roots, False)


@lru_cache(maxsize=None)
def _model_table(datum: RootDatum, lam: tuple) -> tuple:
    """(number of lattice points, per-row bitmasks over them) of the GT/SGT
    model polytope at lambda: the dual Kogan rows, then the Kogan rows, each
    block certified to have a point on all its rows."""
    polytope = polytopes.model_polytope(datum, lam)
    check_weight(datum, lam)
    count, masks = polytopes.lattice_incidence(polytope)
    polytopes.check_blocks_meet(masks, datum.num_positive_roots)
    return count, masks


def model_face_union_count(datum: RootDatum, lam, tights, family: str) -> int:
    """Lattice count of the corresponding face union on the GT/SGT side,
    where family "F" means the first facet block (rows 0..N-1) and "Fv" the
    second (rows N..2N-1): the bits of the OR of the faces' masks."""
    if family not in ("F", "Fv"):
        raise ValueError("family must be 'F' or 'Fv'")
    big_n = datum.num_positive_roots
    indices = tuple(chain.from_iterable(tights))
    if indices and not 1 <= min(indices) <= max(indices) <= big_n:
        raise IndexError("tight indices run from 1 to %d" % big_n)
    check_integers("weight", lam)  # before the cache, so that no 1.0 finds the table of 1
    count, masks = _model_table(datum, tuple(lam))
    masks = masks[big_n:] if family == "Fv" else masks[:big_n]
    return _face_union(tights, masks, count).bit_count()


def h0_dimension(datum: RootDatum, side: str, w: WeylElement, lam) -> int:
    """Dimension of the section space as a lattice-union cardinality."""
    if side == "opposite":
        return len(opposite_demazure_faces(datum, w, lam).union)
    if side == "schubert":
        return len(demazure_faces(datum, w, lam).union)
    raise ValueError("side must be 'schubert' or 'opposite'")


def side_volume(datum: RootDatum, side: str, w: WeylElement, lam) -> Fraction:
    """Sum of lattice-normalized face volumes at the side's stated dimension d
    (l(w) on the Demazure side, N - l(w) on the opposite side) over the faces
    of the GT/SGT polytope at lambda that the (dual) Kogan face sum of w
    indexes, which have the indices and the volumes of the string-polytope
    faces (`test_volume_invariance_under_model_change`).

    Each volume is a degree in the ring of the deformed polytope: a dominant
    lambda gives support numbers h_j in the closure of its type cone, so a
    face F of dimension d has volume deg([F] * D^d) / d! for the divisor D =
    sum_j h_j x_j (Khovanskii-Pukhlikov; see Kiritchenko-Smirnov-Timorin 2012
    and Fulton, Introduction to Toric Varieties, 5.3), D^d being d calls of
    `DeformedContext.multiply`.  Both sides are deg([X^low] * D^d * [X_high])
    / d! with d = l(high) - l(low), (low, high) being (w, w0) on the opposite
    side and (e, w) on the Demazure side: the Kogan class of w0 and the dual
    Kogan class of e are each the whole polytope, ((),)."""
    if side not in ("schubert", "opposite"):
        raise ValueError("side must be 'schubert' or 'opposite'")
    ctx = default_context(datum)
    w0, e = longest_element(datum), identity_element(datum)
    low, high = (w, w0) if side == "opposite" else (e, w)
    d = length(high) - length(low)
    form, divisor = ctx.class_form(low), ctx.divisor(lam)
    for _ in range(d):
        form = ctx.multiply(form, divisor)
    return Fraction(ctx.degree(form, high), factorial(d))


# ---------------------------------------------------------------------------
# class representatives


def schubert_class(datum: RootDatum, w: WeylElement, family: str) -> tuple:
    """Formal face sum representing a Schubert class on the model polytope,
    as the tuple of its faces' tight sets, 1-based into one facet block:
    "dual-kogan" gives the opposite class of w (codimension l(w)) as the
    extractions of w from the standard word, rows of the first block;
    "kogan" gives the class of the Schubert variety of w as the k_D of its
    box diagrams, rows of the second."""
    if family == "dual-kogan":
        return compatible_subsets(datum, standard_word(datum), w)
    if family == "kogan":
        diagrams = pipedreams.box_order(pipedreams.mset(datum, w))
        return tuple(pipedreams.arrangement_kd(d) for d in diagrams)
    raise ValueError("family must be 'dual-kogan' or 'kogan'")


class DeformedContext:
    """Face calculus on the deformed model polytope at the default weight
    (`polytopes.deformed_polytope`), certified as a tower of intervals
    (`polytopes.interval_tower`): combinatorially an N-cube, whose step t
    (0-based along the sweep order) holds exactly one row of the first facet
    family, f_t, and one of the second, g_t; the constructor raises
    `InvariantError` otherwise.  A tight set maps to its step bitmask in its
    family (`f_mask`, `g_mask`); a face with a mask in each is nonempty
    exactly when they are disjoint, and then of codimension their total bit
    count.

    The certificate makes the polytope smooth, so its toric variety has the
    cohomology ring Z[x_row] modulo f_t * g_t = 0 for each step and one
    linear relation per coordinate (Jurkiewicz-Danilov), the ring of a Bott
    tower.  The relation of the coordinate of step t reads g_t = f_t - L_t,
    for L_t a linear form in the f of later steps, so f_t^2 = f_t * L_t:
    every class has one square-free normal form {F-step mask: coefficient},
    and a top-degree f^m * g^m' has degree 1 when m' = full ^ m and 0
    otherwise.  `square[t]` holds L_t as (step, coefficient) pairs; `multiply`
    is the one product.  The classes of each element (`class_form`, `degree`)
    are built on first read and held read-only.  No elimination runs here."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.polytope = polytopes.deformed_polytope(datum, polytopes.default_regular_lambda(datum))
        self.big_n = big_n = datum.num_positive_roots
        tower = polytopes.interval_tower(self.polytope)
        if tower is None:
            raise InvariantError("the deformed polytope is not a tower of intervals")
        self.step, self.verts = tower
        steps = list(range(big_n))
        if sorted(self.step[:big_n]) != steps or sorted(self.step[big_n:]) != steps:
            raise InvariantError("a tower step does not hold one row of each facet family")
        coeffs = [vec for vec, _ in self.polytope.ineqs]
        self.square = [()] * big_n
        for t in reversed(steps):
            # L_t = -a[var] * sum_j b[var] x_j over the rows j of later steps,
            # whose L_s are already known; f_t is the first row of step t
            var = self.polytope.sweep_order[t]
            a = coeffs[self.step.index(t)][var]
            form = Counter()
            for j, b in enumerate(coeffs):
                if self.step[j] > t and b[var]:
                    self._add_row(form, j, -a * b[var])
            self.square[t] = tuple((s, c) for s, c in sorted(form.items()) if c)
        self.square = tuple(self.square)
        self._forms, self._complements = {}, {}  # per element, built on first read

    def _add_row(self, form, j: int, h: int):
        """form += h * x_j in the f basis, t being row j's step: an F row's
        x_j is f_t, an Fv row's g_t = f_t - L_t, once `square[t]` holds L_t."""
        t = self.step[j]
        form[t] += h
        if j >= self.big_n:
            for s, c in self.square[t]:
                form[s] -= h * c

    def multiply(self, form, other) -> dict:
        """The normal form of form * other, both normal forms: the sum over
        their term pairs of f^(a|b) * f^(a&b).  A pair with no shared step is
        a term; the others wait in `pending`, summed per (mask, shared) under
        the sum of N - t over the shared steps t.  With t the top one, f_t^2
        = f_t * L_t, and each step s > t of L_t joins mask, or takes t's place
        in shared when mask holds it: each rewrite lowers that weight, so the
        heaviest go first and each (mask, shared) is rewritten once."""
        big, square = self.big_n, self.square
        out, pending = {}, {}
        for a, m in form.items():
            for b, n in other.items():
                shared = a & b
                if not shared:
                    out[a | b] = out.get(a | b, 0) + m * n
                    continue
                weight, rest = 0, shared
                while rest:
                    weight += big + 1 - (rest & -rest).bit_length()
                    rest &= rest - 1
                level = pending.setdefault(weight, {})
                level[a | b, shared] = level.get((a | b, shared), 0) + m * n
        while pending:
            weight = max(pending)
            for (mask, shared), n in pending.pop(weight).items():
                t = shared.bit_length() - 1
                rest = shared ^ 1 << t
                for s, c in square[t]:
                    bit = 1 << s
                    if mask & bit:
                        key, lower = (mask, rest | bit), weight - s + t
                    elif rest:
                        key, lower = (mask | bit, rest), weight - big + t
                    else:
                        out[mask | bit] = out.get(mask | bit, 0) + n * c
                        continue
                    level = pending.setdefault(lower, {})
                    level[key] = level.get(key, 0) + n * c
        return out

    def divisor(self, lam) -> dict:
        """D = sum_j h_j x_j in normal form {1 << t: coefficient}, for h_j the
        right side of row j of the undeformed model polytope at lam, which
        must be dominant with int entries: D in the type cone, exactly."""
        check_weight(self.datum, lam)
        form = Counter()
        for j, (_, h) in enumerate(polytopes.model_polytope(self.datum, lam).ineqs):
            self._add_row(form, j, h)
        return {1 << t: c for t, c in sorted(form.items()) if c}

    def f_mask(self, tight) -> int:
        """Step mask of a tight set of the first facet family, 1-based: bit t
        set when the face is tight on the F row of step t.  The steps of one
        family are distinct, so the bits add without carry."""
        return sum(1 << self.step[k - 1] for k in tight)

    def g_mask(self, tight) -> int:
        """Step mask of a tight set of the second facet family, likewise."""
        return sum(1 << self.step[self.big_n + k - 1] for k in tight)

    def class_form(self, w: WeylElement) -> MappingProxyType:
        """The opposite class of w in normal form, read-only: the F-step
        masks of its dual Kogan faces, counted; built on first read."""
        form = self._forms.get(w)
        if form is None:
            tights = schubert_class(self.datum, w, "dual-kogan")
            form = self._forms[w] = MappingProxyType(Counter(map(self.f_mask, tights)))
        return form

    def degree(self, form, w: WeylElement) -> int:
        """deg(form * [X_w]): the normal form read at the complements of the
        Fv-step masks of the Kogan faces of w, since f^m * g^m' has degree 1
        exactly when m' is the complement of m."""
        complements = self._complements.get(w)
        if complements is None:
            full = (1 << self.big_n) - 1
            kogan = schubert_class(self.datum, w, "kogan")
            complements = self._complements[w] = tuple(full ^ self.g_mask(tight) for tight in kogan)
        return sum(form.get(m, 0) for m in complements)


@lru_cache(maxsize=None)
def default_context(datum: RootDatum) -> DeformedContext:
    return DeformedContext(datum)


def _context(datum: RootDatum, ctx) -> DeformedContext:
    """`ctx`, or the default context of `datum`; a context built for another
    root datum raises ValueError."""
    ctx = ctx or default_context(datum)
    if ctx.datum != datum:
        raise ValueError("a context built for %r cannot compute in %r" % (ctx.datum, datum))
    return ctx


def degree_pairing(datum: RootDatum, u: WeylElement, v: WeylElement, ctx=None) -> int:
    """Intersection number of the opposite classes of u and v in complementary
    codimensions: the degree of F_u * Fv_v in the ring of the deformed
    polytope (`DeformedContext.degree`), for Fv_v the Kogan face sum of the
    Schubert variety of w0 v."""
    check_group(datum, u, v)
    if length(u) + length(v) != datum.num_positive_roots:
        raise ValueError("lengths must be complementary")
    ctx = _context(datum, ctx)
    return ctx.degree(ctx.class_form(u), multiply(longest_element(datum), v))


@dataclass
class ProductResult:
    """Faces are F tight sets.  The F rows lie on distinct steps, so two F
    faces never complete a step and always meet.  `dropped_empty`, always
    (), and `method` are kept for `perfbench/workloads.py` until ROADMAP
    item 1; no output prints them."""

    v: WeylElement
    w: WeylElement
    faces: tuple            # sorted F tight sets of the transversal meets
    expansion: dict         # WeylElement -> coefficient
    nontransversal: tuple   # (F, F) tight-set pairs that share a row
    dropped_empty = ()

    @property
    def method(self) -> str:
        """Read off the degrees: "zero" above the top degree, else "degree-pairing"."""
        top = self.v.datum.num_positive_roots
        return "zero" if length(self.v) + length(self.w) > top else "degree-pairing"


def check_product(datum: RootDatum):
    if datum.family != "C":
        raise ValueError("the product pipeline is certified for type C only")


def product_c(datum: RootDatum, v: WeylElement, w: WeylElement, ctx=None) -> ProductResult:
    """Product of the opposite Schubert classes of v and w, read off their
    dual Kogan face sums.  The claim exercised: the class face sums represent
    the Schubert classes in the ring of the polytope (Kiritchenko-Smirnov-
    Timorin in type A, the paper's symplectic result in type C), so the
    coefficient of t is the degree of F_v * F_w * Fv_{w0 t} in the ring of the
    deformed polytope, where Fv_{w0 t} is the Kogan face sum of the Schubert
    variety of t (`multiply`, then `degree`).  The (F, F) face sum, with its
    non-transversal pairs, is the printed certificate; a pair that shares a
    row enters the normal form through the square rule.

    The expansion is checked against the divided-difference oracle;
    disagreement is a hard error.  `ctx`, the default context when None, is
    kept for `perfbench/workloads.py` until ROADMAP item 1.
    """
    check_product(datum)
    check_group(datum, v, w)
    ctx = _context(datum, ctx)
    degree = length(v) + length(w)
    if degree > datum.num_positive_roots:
        return ProductResult(v, w, (), {}, ())
    terms = []
    bad = []
    right = [(fb, ctx.f_mask(fb)) for fb in schubert_class(datum, w, "dual-kogan")]
    for fa in schubert_class(datum, v, "dual-kogan"):
        a = ctx.f_mask(fa)
        for fb, b in right:
            if a & b:
                bad.append((fa, fb))
            else:
                terms.append(tuple(sorted(fa + fb)))
    form = ctx.multiply(ctx.class_form(v), ctx.class_form(w))
    expansion = {t: ctx.degree(form, t) for t in elements_of_length(datum, degree)}
    expansion = {t: c for t, c in expansion.items() if c}
    oracle = dict(oracles.bgg_structure_constants(datum, v, w))
    if expansion != oracle:
        raise TheoremViolationError(
            {
                "theorem": "product",
                "v": list(reduced_word(v)),
                "w": list(reduced_word(w)),
                "expansion": {str(k): c for k, c in expansion.items()},
                "oracle": {str(k): c for k, c in oracle.items()},
            }
        )
    return ProductResult(v, w, tuple(terms), expansion, tuple(bad))
