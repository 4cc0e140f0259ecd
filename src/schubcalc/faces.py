"""Face decompositions of (opposite) Demazure crystals and the Schubert
calculus built on them: Schubert classes as face sums, and products and
degree pairings read off those sums in the ring of a deformed polytope.

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
arithmetic: one table per (datum, word, lambda), cached, holds the ambient
string points and one bitmask per row over them (bit i set when point i lies
on the row), so a face is the AND of its rows' masks and a union the OR of
its faces.  The GT/SGT side counts its face unions the same way over the
lattice points of the model polytope (`polytopes.lattice_incidence`).  Only
the tables are cached; the crystal comparison runs on every call.

The claim the class arithmetic exercises: the (dual) Kogan face sums
represent the Schubert classes in the polytope ring (Kiritchenko-Smirnov-
Timorin for Gelfand-Zetlin polytopes, the paper's result for the symplectic
ones).  The arithmetic runs on a deformed model polytope certified as a tower
of intervals, where every face is its set of tight rows and the cohomology
ring of the toric variety is Z[x_row] modulo the products of the two rows of
a step and one linear relation per coordinate.  A pairing or a product
coefficient is one degree in that ring (`DeformedContext.degree`), and every
product is checked against the divided-difference oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import crystals, oracles, pipedreams, polytopes
from .cartan import (
    RootDatum,
    WeylElement,
    all_elements,
    compatible_subsets,
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
    tights: tuple                 # index tuples, one per face
    face_points: tuple            # per face, sorted lattice point tuples
    union: frozenset
    empty: tuple                  # index tuples whose face is empty


@lru_cache(maxsize=None)
def _row_table(datum: RootDatum, word: tuple, lam: tuple) -> tuple:
    """(ambient string points, per-row bitmasks over them) of one (datum,
    word, lambda).  On the certified (standard) word the points are the string
    polytope's lattice points and the rows are its inequalities, the N
    lambda-bound rows followed by the N cone rows; on any other word the
    points are the crystal's, sorted, and the rows the lambda-bound ones."""
    if crystals.is_certified_word(datum, word):
        return polytopes.lattice_incidence(polytopes.string_polytope(datum, lam))
    points = tuple(sorted(crystals.generate_b_lambda(datum, word, lam, allow_experimental=True)))
    rows = []
    for j in range(1, len(word) + 1):
        vec, lam_vec = polytopes.string_lambda_facet(datum, word, j)
        rows.append((vec, sum(a * b for a, b in zip(lam_vec, lam))))
    return points, polytopes.tight_bits(rows, points)


def _face_mask(masks, tight, full):
    """The AND of the masks that a tight set indexes, 1-based; `full` for the
    empty tight set."""
    for k in tight:
        full &= masks[k - 1]
    return full


def _decompose(tights, masks, points):
    """Faces cut out of `points` by the rows that each tight set indexes,
    1-based into `masks` (per row, bit i set when points[i] lies on it);
    empty faces are reported apart.  A face is the AND of its rows' masks and
    the union the OR of the faces; only the faces' points are decoded."""
    full = (1 << len(points)) - 1
    faces = []
    empty = []
    union = 0
    for tight in tights:
        mask = _face_mask(masks, tight, full)
        if mask:
            faces.append((tight, polytopes.mask_points(mask, points)))
            union |= mask
        else:
            empty.append(tight)
    return FaceDecomposition(
        tights=tuple(t for t, _ in faces),
        face_points=tuple(pts for _, pts in faces),
        union=frozenset(polytopes.mask_points(union, points)),
        empty=tuple(empty),
    )


def _check_union(theorem, datum, lam, w, dec, expected):
    """The decomposition, once its lattice union equals the crystal's."""
    if dec.union != expected:
        raise TheoremViolationError(
            {
                "theorem": theorem,
                "type": datum.family,
                "rank": datum.rank,
                "lambda": list(lam),
                "w": list(reduced_word(w)),
                "face_union": len(dec.union),
                "crystal": len(expected),
            }
        )
    return dec


def opposite_demazure_faces(datum: RootDatum, w: WeylElement, lam, word=None) -> FaceDecomposition:
    """Lambda-bound faces indexed by the extractions of w; the lattice union
    must reproduce the opposite Demazure crystal."""
    word = tuple(word) if word is not None else standard_word(datum)
    experimental = not crystals.is_certified_word(datum, word)
    points, masks = _row_table(datum, word, tuple(lam))
    dec = _decompose(compatible_subsets(datum, word, w), masks, points)
    expected = crystals.opposite_demazure_crystal(datum, word, w, lam, allow_experimental=experimental)
    return _check_union("opposite-demazure-faces", datum, lam, w, dec, expected)


def demazure_faces(datum: RootDatum, w: WeylElement, lam) -> FaceDecomposition:
    """String-cone faces indexed by the box-removal set of w; the lattice
    union must reproduce the Demazure crystal."""
    word = standard_word(datum)
    tights = [ref.fv_tight for ref in schubert_class(datum, w, "kogan").terms]
    points, masks = _row_table(datum, word, tuple(lam))
    dec = _decompose(tights, masks[datum.num_positive_roots :], points)
    expected = crystals.demazure_crystal(datum, word, w, lam)
    return _check_union("demazure-faces", datum, lam, w, dec, expected)


@lru_cache(maxsize=None)
def _model_table(datum: RootDatum, lam: tuple) -> tuple:
    """(lattice points, per-row bitmasks over them) of the GT/SGT model
    polytope at lambda: the dual Kogan rows, then the Kogan rows."""
    return polytopes.lattice_incidence(polytopes.model_polytope(datum, lam))


def model_face_union_count(datum: RootDatum, lam, tights, family: str) -> int:
    """Lattice count of the corresponding face union on the GT/SGT side,
    where family "F" means the first facet block (rows 0..N-1) and "Fv" the
    second (rows N..2N-1): the bits of the OR of the faces' masks."""
    if family not in ("F", "Fv"):
        raise ValueError("family must be 'F' or 'Fv'")
    big_n = datum.num_positive_roots
    if any(not 1 <= k <= big_n for tight in tights for k in tight):
        raise IndexError("tight indices run from 1 to %d" % big_n)
    points, masks = _model_table(datum, tuple(lam))
    masks = masks[big_n:] if family == "Fv" else masks[:big_n]
    full = (1 << len(points)) - 1
    union = 0
    for tight in tights:
        union |= _face_mask(masks, tight, full)
    return union.bit_count()


def h0_dimension(datum: RootDatum, side: str, w: WeylElement, lam) -> int:
    """Dimension of the section space as a lattice-union cardinality."""
    if side == "opposite":
        return len(opposite_demazure_faces(datum, w, lam).union)
    if side == "schubert":
        return len(demazure_faces(datum, w, lam).union)
    raise ValueError("side must be 'schubert' or 'opposite'")


def side_volume(datum: RootDatum, side: str, w: WeylElement, lam) -> Fraction:
    """Sum of lattice-normalized face volumes at the side's stated dimension
    (l(w) on the Demazure side, N - l(w) on the opposite side)."""
    poly = polytopes.string_polytope(datum, lam)
    big_n = datum.num_positive_roots
    if side == "opposite":
        family, d = "dual-kogan", big_n - length(w)
    elif side == "schubert":
        family, d = "kogan", length(w)
    else:
        raise ValueError("side must be 'schubert' or 'opposite'")
    total = Fraction(0)
    for ref in schubert_class(datum, w, family).terms:
        f = polytopes.face(poly, _facet_indices(ref, big_n))
        total += polytopes.volume_at_dim(polytopes.face_polytope(f), d)
    return total


# ---------------------------------------------------------------------------
# class representatives


@dataclass(frozen=True)
class FaceRef:
    """A face of the deformed model polytope by its defining tight sets:
    1-based indices into the first facet family and the second."""

    f_tight: tuple
    fv_tight: tuple


def _facet_indices(ref: FaceRef, big_n: int) -> tuple:
    """0-based inequality indices of a face: the first family, then the second."""
    return tuple(k - 1 for k in ref.f_tight) + tuple(big_n + k - 1 for k in ref.fv_tight)


@dataclass(frozen=True)
class FaceSum:
    terms: tuple  # FaceRef multiset


def schubert_class(datum: RootDatum, w: WeylElement, family: str) -> FaceSum:
    """Formal face sum representing a Schubert class on the model polytope:
    family "dual-kogan" gives the opposite class of w (codimension l(w)),
    family "kogan" gives the class of the Schubert variety of w."""
    if family == "dual-kogan":
        tights = compatible_subsets(datum, standard_word(datum), w)
        return FaceSum(tuple(FaceRef(t, ()) for t in tights))
    if family == "kogan":
        diagrams = pipedreams.box_order(pipedreams.mset(datum, w))
        return FaceSum(tuple(FaceRef((), pipedreams.arrangement_kd(d)) for d in diagrams))
    raise ValueError("family must be 'dual-kogan' or 'kogan'")


# The meet of two faces with no common point; distinct from the empty row
# set, which is the whole polytope.
EMPTY = object()


class DeformedContext:
    """Face calculus on a deformation of the model polytope certified as a
    tower of intervals (`polytopes.interval_tower`): two rows per sweep step,
    combinatorially an N-cube.  A face is its set of tight rows (`rows`): it
    is nonempty exactly when no two of them share a step, and then its
    codimension is their number.  `meet` is the one transversality rule.

    The certificate makes the polytope smooth, so its toric variety has the
    cohomology ring Z[x_row] modulo x_up * x_lo = 0 for the two rows of each
    step and one linear relation per coordinate (Jurkiewicz-Danilov).  The
    relation of the coordinate of step t, solved for a row i of that step,
    reads x_i = -a_i[var] * sum_j a_j[var] x_j over the rows j of later steps
    whose support holds var; the other row of step t is left out, since its
    product with x_i is 0.  `relation` maps each row to those (j, coefficient)
    pairs; `degree` evaluates top-degree monomials with them.  No elimination
    runs here; the constructor raises when the certificate fails."""

    def __init__(self, datum: RootDatum, lam=None, profile=None):
        self.datum = datum
        self.profile = profile or polytopes.default_strict_profile(datum)
        self.lam = tuple(lam) if lam is not None else polytopes.default_regular_lambda(
            datum, self.profile
        )
        self.polytope = polytopes.deformed_polytope(datum, self.lam, self.profile)
        self.big_n = datum.num_positive_roots
        tower = polytopes.interval_tower(self.polytope)
        if tower is None:
            raise ValueError("deformed polytope is not simple; enlarge lambda")
        self.step, self.verts = tower
        coeffs = [vec for vec, _ in self.polytope.ineqs]
        relation = []
        for i, a in enumerate(coeffs):
            var = self.polytope.sweep_order[self.step[i]]
            relation.append(tuple(
                (j, -a[var] * b[var])
                for j, b in enumerate(coeffs)
                if self.step[j] > self.step[i] and b[var]
            ))
        self.relation = tuple(relation)

    def rows(self, *refs):
        """Tight rows of the faces' intersection, sorted; EMPTY when two of
        them share a step.  A nonempty face has codimension len(rows)."""
        rows = sorted({k for ref in refs for k in _facet_indices(ref, self.big_n)})
        return tuple(rows) if len({self.step[k] for k in rows}) == len(rows) else EMPTY

    def monomial(self, *refs):
        """The product of the faces' classes as its sorted row multiset: a row
        shared by two faces appears twice."""
        return tuple(sorted(k for ref in refs for k in _facet_indices(ref, self.big_n)))

    def meet(self, a: FaceRef, b: FaceRef):
        """Rows of a and b intersected: EMPTY when they complete a step, None
        when a and b share a row, so that their codimensions do not add."""
        rows = self.rows(a, b)
        if rows is not EMPTY and len(rows) < len(a.f_tight + a.fv_tight + b.f_tight + b.fv_tight):
            return None
        return rows

    def intersect(self, a: FaceRef, b: FaceRef) -> FaceRef:
        return FaceRef(
            tuple(sorted(set(a.f_tight) | set(b.f_tight))),
            tuple(sorted(set(a.fv_tight) | set(b.fv_tight))),
        )

    def degree(self, rows, memo):
        """Degree of the monomial of `rows`, a sorted multiset of N rows: 0
        when two distinct rows share a step; 1 when the N rows lie on N steps
        (they meet in one vertex of a unimodular cone); otherwise one copy of
        a repeated row is rewritten by its relation.  Every row of a relation
        lies at a later step than the row it replaces, so the rewriting ends.
        `memo` is the caller's, one per product or pairing."""
        got = memo.get(rows)
        if got is None:
            distinct = set(rows)
            if len({self.step[k] for k in distinct}) < len(distinct):
                got = 0
            elif len(distinct) == len(rows):
                got = 1
            else:
                at = next(i for i in range(1, len(rows)) if rows[i] == rows[i - 1])
                rest = rows[:at] + rows[at + 1 :]
                got = sum(
                    c * self.degree(tuple(sorted(rest + (j,))), memo)
                    for j, c in self.relation[rows[at]]
                )
            memo[rows] = got
        return got


@lru_cache(maxsize=None)
def default_context(datum: RootDatum) -> DeformedContext:
    return DeformedContext(datum)


def class_face_refs(datum: RootDatum, u: WeylElement, family: str):
    """Face references representing the opposite class of u in the chosen
    facet family: its extraction tuples in the first family, the box-diagram
    indices of the longest-complement in the second."""
    if family == "F":
        return schubert_class(datum, u, "dual-kogan").terms
    return schubert_class(datum, multiply(longest_element(datum), u), "kogan").terms


def _pairing(ctx, product, refs, memo):
    """Degree of a face sum, given as a Counter of row multisets, times the
    face sum `refs` of the complementary codimension."""
    duals = [ctx.monomial(ref) for ref in refs]
    return sum(
        n * ctx.degree(tuple(sorted(m + d)), memo) for m, n in product.items() for d in duals
    )


def degree_pairing(datum: RootDatum, u: WeylElement, v: WeylElement, ctx=None) -> int:
    """Intersection number of the opposite classes of u and v in complementary
    codimensions: the degree of F_u * Fv_v in the ring of the deformed
    polytope."""
    if length(u) + length(v) != datum.num_positive_roots:
        raise ValueError("lengths must be complementary")
    ctx = ctx or default_context(datum)
    product = Counter(map(ctx.monomial, class_face_refs(datum, u, "F")))
    return _pairing(ctx, product, class_face_refs(datum, v, "Fv"), {})


@dataclass
class ProductResult:
    v: WeylElement
    w: WeylElement
    faces: tuple            # transversal meets of the (F, F) face sums
    expansion: dict         # WeylElement -> coefficient
    method: str
    dropped_empty: tuple    # (F, F) face pairs that do not meet
    nontransversal: tuple   # (F, F) face pairs that share a row


def _combine(ctx, left, right):
    """Pairwise intersections of two face lists, with the pairs that meet in
    no point and the pairs that share a row reported apart."""
    terms = []
    dropped = []
    bad = []
    for fa in left:
        for fb in right:
            rows = ctx.meet(fa, fb)
            if rows is EMPTY:
                dropped.append((fa, fb))
            elif rows is None:
                bad.append((fa, fb))
            else:
                terms.append(ctx.intersect(fa, fb))
    return terms, dropped, bad


def product_c(datum: RootDatum, v: WeylElement, w: WeylElement, ctx=None) -> ProductResult:
    """Product of the opposite Schubert classes of v and w, read off their
    dual Kogan face sums.  The claim exercised: the class face sums represent
    the Schubert classes in the ring of the polytope (Kiritchenko-Smirnov-
    Timorin in type A, the paper's symplectic result in type C), so the
    coefficient of t is the degree of F_v * F_w * Fv_{w0 t} in the ring of the
    deformed polytope, where Fv_{w0 t} is the Kogan face sum of the Schubert
    variety of t.  The (F, F) face sum, with its empty and
    non-transversal pairs, is the printed certificate; a pair that shares a
    row enters the degree with the row repeated.

    The expansion is checked against the divided-difference oracle;
    disagreement is a hard error.
    """
    if datum.family != "C":
        raise ValueError("the product pipeline is certified for type C only")
    ctx = ctx or default_context(datum)
    degree = length(v) + length(w)
    if degree > datum.num_positive_roots:
        return ProductResult(v, w, (), {}, "zero", (), ())
    terms, dropped, bad = _combine(
        ctx, class_face_refs(datum, v, "F"), class_face_refs(datum, w, "F")
    )
    product = Counter(map(ctx.monomial, terms))
    product.update(ctx.monomial(fa, fb) for fa, fb in bad)
    memo = {}
    expansion = {}
    for t in all_elements(datum):
        if length(t) == degree:
            c = _pairing(ctx, product, schubert_class(datum, t, "kogan").terms, memo)
            if c:
                expansion[t] = c
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
    return ProductResult(
        v=v,
        w=w,
        faces=tuple(terms),
        expansion=expansion,
        method="degree-pairing",
        dropped_empty=tuple(dropped),
        nontransversal=tuple(bad),
    )
