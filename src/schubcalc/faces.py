"""Face decompositions of (opposite) Demazure crystals and the Schubert
calculus built on them: class representatives as face sums, degree pairings by
vertex counting, and products with machine-checked identification.

The two decomposition results being exercised:

* opposite side: the image of an opposite Demazure crystal in string
  coordinates is the lattice-point set of the union of lambda-bound faces
  indexed by the increasing subsequences of the ambient word extracting a
  reduced word of w;
* Demazure side: the image of a Demazure crystal is the lattice-point set of
  the union of string-cone faces indexed by the box diagrams in the
  box-removal set of w.

Both are checked against the crystal route on every call and raise
TheoremViolationError on any discrepancy.  Class arithmetic happens on a
deformed model polytope certified as a tower of intervals, where every face
is identified by its set of tight rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import mul

from . import crystals, linalg, oracles, pipedreams, polytopes
from .cartan import (
    RootDatum,
    WeylElement,
    all_elements,
    bruhat_leq,
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


class PairingUnresolvedError(ValueError):
    """A face pair needed by a pairing is non-transversal with nonempty
    intersection; no number is reported in that case."""


@dataclass(frozen=True)
class FaceDecomposition:
    tights: tuple                 # index tuples, one per face
    face_points: tuple            # per face, sorted lattice point tuples
    union: frozenset
    empty: tuple                  # index tuples whose face is empty


def _ambient_string_points(datum, word, lam, experimental):
    if experimental:
        return sorted(crystals.generate_b_lambda(datum, word, lam, allow_experimental=True))
    return list(polytopes.lattice_points(polytopes.string_polytope(datum, lam)))


def _decompose(tights, rows, points):
    """Faces cut out of `points` by the rows (coefficients, right-hand side)
    that each tight set indexes, 1-based; empty faces are reported apart.

    Each row the tight sets use is evaluated once per point, into a mask with
    bit k set when the point lies on row k; a face is then the points whose
    mask holds all of its tight set's bits, in point order."""
    used = [(1 << k, *rows[k - 1]) for k in sorted({k for tight in tights for k in tight})]
    masks = []
    for p in points:
        m = 0
        for bit, vec, rhs in used:
            if sum(map(mul, vec, p)) == rhs:
                m |= bit
        masks.append(m)
    faces = []
    empty = []
    union = set()
    for tight in tights:
        want = sum(1 << k for k in set(tight))
        pts = tuple(compress(points, [m & want == want for m in masks]))
        if pts:
            faces.append((tight, pts))
            union.update(pts)
        else:
            empty.append(tight)
    return FaceDecomposition(
        tights=tuple(t for t, _ in faces),
        face_points=tuple(pts for _, pts in faces),
        union=frozenset(union),
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
    tights = compatible_subsets(datum, word, w)
    rows = []
    for j in range(1, len(word) + 1):
        vec, lam_vec = polytopes.string_lambda_facet(datum, word, j)
        rows.append((vec, sum(a * b for a, b in zip(lam_vec, lam))))
    points = _ambient_string_points(datum, word, lam, experimental)
    dec = _decompose(tights, rows, points)
    expected = crystals.opposite_demazure_crystal(datum, word, w, lam, allow_experimental=experimental)
    return _check_union("opposite-demazure-faces", datum, lam, w, dec, expected)


def demazure_faces(datum: RootDatum, w: WeylElement, lam) -> FaceDecomposition:
    """String-cone faces indexed by the box-removal set of w; the lattice
    union must reproduce the Demazure crystal."""
    word = standard_word(datum)
    tights = [ref.fv_tight for ref in schubert_class(datum, w, "kogan").terms]
    rows = [(vec, 0) for vec in polytopes.string_cone_facets(datum)]
    points = _ambient_string_points(datum, word, lam, experimental=False)
    dec = _decompose(tights, rows, points)
    expected = crystals.demazure_crystal(datum, word, w, lam)
    return _check_union("demazure-faces", datum, lam, w, dec, expected)


def model_face_union_count(datum: RootDatum, lam, tights, family: str) -> int:
    """Lattice count of the corresponding face union on the GT/SGT side,
    where family "F" means the first facet block and "Fv" the second."""
    poly = polytopes.model_polytope(datum, lam)
    big_n = datum.num_positive_roots
    offset = 0 if family == "F" else big_n
    union = set()
    for tight in tights:
        f = polytopes.face(poly, tuple(offset + k - 1 for k in tight))
        union.update(polytopes.face_lattice_points(f))
    return len(union)


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
    codimension is their number.  `meet` is the one transversality rule.  No
    elimination runs here; the constructor raises when the certificate
    fails."""

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

    def rows(self, *refs):
        """Tight rows of the faces' intersection, sorted; EMPTY when two of
        them share a step.  A nonempty face has codimension len(rows)."""
        rows = sorted({k for ref in refs for k in _facet_indices(ref, self.big_n)})
        return tuple(rows) if len({self.step[k] for k in rows}) == len(rows) else EMPTY

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


@lru_cache(maxsize=None)
def default_context(datum: RootDatum) -> DeformedContext:
    return DeformedContext(datum)


def degree_pairing(datum: RootDatum, u: WeylElement, v: WeylElement, ctx=None) -> int:
    """Intersection number of the opposite classes of u and v in complementary
    codimensions, evaluated by vertex counting on the deformed polytope."""
    if length(u) + length(v) != datum.num_positive_roots:
        raise ValueError("lengths must be complementary")
    ctx = ctx or default_context(datum)
    total = _sum_pairing(ctx, class_face_refs(datum, u, "F"), class_face_refs(datum, v, "Fv"))
    if total is None:
        raise PairingUnresolvedError("non-transversal face pair in pairing(%r, %r)" % (u, v))
    return total


@dataclass
class ProductResult:
    v: WeylElement
    w: WeylElement
    faces: tuple            # primary face sum (FaceRef multiset)
    corollary_faces: tuple  # mixed-family face sum from the product corollary
    expansion: dict         # WeylElement -> coefficient
    method: str
    dropped_empty: tuple
    nontransversal: tuple
    verified_pairings: dict = None  # test element -> machine-derived coefficient

    @property
    def certified(self) -> bool:
        """The geometry identified the expansion without the oracle."""
        return self.method != "oracle-assisted"


def class_face_refs(datum: RootDatum, u: WeylElement, family: str):
    """Face references representing the opposite class of u in the chosen
    facet family: its extraction tuples in the first family, the box-diagram
    indices of the longest-complement in the second."""
    if family == "F":
        return schubert_class(datum, u, "dual-kogan").terms
    return schubert_class(datum, multiply(longest_element(datum), u), "kogan").terms


def _combine(ctx, left, right):
    """Pairwise intersections of two face lists; a pair lands in `bad` when it
    is nonempty without adding codimensions."""
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


_PRODUCT_FAMILIES = (("F", "F"), ("F", "Fv"), ("Fv", "F"), ("Fv", "Fv"))


def _product_representations(ctx, datum, v, w):
    """All transversal face-sum representations of the product, keyed by the
    family pair; family pairs with a non-transversal nonempty pair are
    reported, not used."""
    reps = {}
    failures = {}
    for fam in _PRODUCT_FAMILIES:
        left = class_face_refs(datum, v, fam[0])
        right = class_face_refs(datum, w, fam[1])
        terms, dropped, bad = _combine(ctx, left, right)
        if bad:
            failures[fam] = (terms, dropped, bad)
        else:
            reps[fam] = (terms, dropped)
    return reps, failures


def _candidates(datum, v, w, degree):
    return [
        u
        for u in all_elements(datum)
        if length(u) == degree and bruhat_leq(v, u) and bruhat_leq(w, u)
    ]


def _solve_cover(ctx, datum, terms, candidates):
    """Solve (product multiset) = sum_u c_u (class multiset of u) over the
    nonempty faces, keyed by their rows; None unless a unique nonnegative
    integer solution exists."""
    def multiset(refs):
        out = {}
        for ref in refs:
            key = ctx.rows(ref)
            if key is not EMPTY:
                out[key] = out.get(key, 0) + 1
        return out

    target = multiset(terms)
    cand_sets = [multiset(schubert_class(datum, u, "dual-kogan").terms) for u in candidates]
    # a candidate face outside the product forces a zero coefficient, and
    # such a cover is not accepted
    if any(key not in target for cs in cand_sets for key in cs):
        return None
    rows = [[cs.get(key, 0) for cs in cand_sets] + [target[key]] for key in sorted(target)]
    sol = linalg.solve(rows, len(cand_sets))
    if sol is None or any(c.denominator != 1 or c < 0 for c in sol):
        return None
    return {u: int(c) for u, c in zip(candidates, sol) if c}


def _pair_value(ctx, h, refs):
    """Vertex-count pairing of one face against a class face sum: each meet
    in a vertex (N rows) counts 1; None when a pair meets non-transversally
    or in more than a vertex."""
    total = 0
    for g in refs:
        rows = ctx.meet(h, g)
        if rows is None or (rows is not EMPTY and len(rows) != ctx.big_n):
            return None
        total += rows is not EMPTY
    return total


def _sum_pairing(ctx, terms, refs):
    """Pairing of a face multiset against a class face sum; None when any pair
    fails to resolve."""
    total = 0
    for h in terms:
        val = _pair_value(ctx, h, refs)
        if val is None:
            return None
        total += val
    return total


def _pairing_extraction(ctx, datum, reps, degree):
    """Coefficients extracted from duality pairings alone: pairing the
    product with the dual of a test class t isolates the coefficient of t
    (Poincare duality, itself exercised by the duality suite).  Only pairings
    against representatives of honest classes are valid linear functionals
    here (arbitrary single-facet test cycles are not: the face-sum identities
    hold only after projecting to the polytope-ring module).

    Returns (expansion or None, resolved) where resolved maps each test
    element whose pairing resolved to its machine-derived coefficient; the
    expansion exists once every test element resolved.
    """
    unknowns = [t for t in all_elements(datum) if length(t) == degree]
    w0 = longest_element(datum)
    resolved = {}
    for t in unknowns:
        dual = multiply(w0, t)
        dual_reps = [class_face_refs(datum, dual, "Fv"), class_face_refs(datum, dual, "F")]
        values = (_sum_pairing(ctx, terms, refs) for terms, _ in reps.values() for refs in dual_reps)
        value = next((v for v in values if v is not None), None)
        if value is not None:
            resolved[t] = value
    if len(resolved) < len(unknowns):
        return None, resolved
    return {t: c for t, c in resolved.items() if c}, resolved


def product_c(datum: RootDatum, v: WeylElement, w: WeylElement, ctx=None) -> ProductResult:
    """Product of the opposite Schubert classes of v and w as face sums, with
    an identified Schubert expansion when the machinery can certify one.

    The identified expansion is always checked against the divided-difference
    oracle; disagreement is a hard error.
    """
    if datum.family != "C":
        raise ValueError("the product pipeline is certified for type C only")
    ctx = ctx or default_context(datum)
    degree = length(v) + length(w)
    oracle = dict(oracles.bgg_structure_constants(datum, v, w))
    if degree > datum.num_positive_roots:
        return ProductResult(v, w, (), (), {}, "zero", (), ())
    reps, failures = _product_representations(ctx, datum, v, w)
    candidates = _candidates(datum, v, w, degree)

    dropped = tuple(
        (fam, fa, fb) for fam, (_, drp) in sorted(reps.items()) for fa, fb in drp
    )
    bad = tuple(
        (fam, fa, fb) for fam, (_, _, b) in sorted(failures.items()) for fa, fb in b
    )
    corollary = tuple(reps[("F", "Fv")][0]) if ("F", "Fv") in reps else tuple(
        failures[("F", "Fv")][0]
    )

    expansion = None
    method = "oracle-assisted"
    verified = {}
    if ("F", "F") in reps:
        primary = tuple(reps[("F", "F")][0])
        expansion = _solve_cover(ctx, datum, list(primary), candidates)
        if expansion is not None:
            method = "multiset-cover"
    elif reps:
        primary = tuple(next(iter(sorted(reps.items())))[1][0])
    else:
        primary = corollary
    if expansion is None and reps:
        expansion, verified = _pairing_extraction(ctx, datum, reps, degree)
        if expansion is not None:
            method = "degree-pairing"
    if expansion is None:
        # geometry pinned only part of the expansion: adopt the
        # divided-difference constants and keep the resolved pairings as the
        # partial certificate
        expansion = dict(oracle)
    for t, value in verified.items():
        if oracle.get(t, 0) != value:
            raise TheoremViolationError(
                {
                    "theorem": "product-pairing",
                    "v": list(reduced_word(v)),
                    "w": list(reduced_word(w)),
                    "t": list(reduced_word(t)),
                    "pairing": value,
                    "oracle": oracle.get(t, 0),
                }
            )
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
        faces=primary,
        corollary_faces=corollary,
        expansion=expansion,
        method=method,
        dropped_empty=dropped,
        nontransversal=bad,
        verified_pairings=verified,
    )
