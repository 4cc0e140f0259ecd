"""The benchmark's three workloads.

Each workload is built from a freshly imported copy of the library (`lib`, a
namespace of the schubcalc modules) and a seed.  Building it is the set-up; it
yields the cells of one pass and a function that runs one cell, checks its
output and returns the cell's structural counts.  A wrong output raises.

Only generated inputs (data tuples, Weyl elements, a deformed context) reach
the library; the seed never does.  big-weight and c3-products run fixed
panels, for the reasons in their docstrings and in METRICS.md.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

# Product methods whose expansion the geometry certified on its own.
CERTIFIED_METHODS = ("multiset-cover", "degree-pairing")
PRODUCT_METHODS = CERTIFIED_METHODS + ("oracle-assisted",)
PRODUCT_COUNTERS = tuple("faces.product_c.method." + m for m in PRODUCT_METHODS) + (
    "faces.product_c.dropped_pairs",
    "faces.product_c.nontransversal_pairs",
)


def certified_frac(counts):
    """Certified products over all products in the counts, None without products."""
    products = sum(counts.get("faces.product_c.method." + m, 0) for m in PRODUCT_METHODS + ("other",))
    certified = sum(counts.get("faces.product_c.method." + m, 0) for m in CERTIFIED_METHODS)
    return certified / products if products else None


@dataclass
class Workload:
    cells: list                 # the inputs of one pass, in run order
    run_cell: Callable          # cell -> Counter of structural counts
    setup_counts: Counter = field(default_factory=Counter)


def _length_classes(lib, datum):
    classes = {}
    for w in lib.cartan.all_elements(datum):
        classes.setdefault(lib.cartan.length(w), []).append(w)
    return classes


# ---------------------------------------------------------------------------
# face-matrix: many small verify cells, no deformed polytope


FACE_MATRICES = {
    False: (("theorem1", "A", 4), ("theorem2", "A", 4), ("theorem1", "C", 3), ("theorem3", "C", 3)),
    True: (("theorem1", "A", 2), ("theorem2", "A", 2), ("theorem1", "C", 2), ("theorem3", "C", 2)),
}


def face_matrix(lib, seed, tiny=False):
    """A seeded half of the lambda <= 1 verify matrices, stratified by
    (theorem, lambda, length of w) so every seed runs the same number of cells
    of each length.  A quarter spread the tail cell by 0.09 to 0.19 across
    ten seeds from the sampling alone; a half, by 0.06 to 0.10.  A cell is `verify._theorem_cell`, the unit that
    `verify.theorem_suite` runs per matrix entry, and cells run in matrix
    order, as `schubcalc verify` runs them."""
    rng = random.Random(seed)
    cells = []
    for kind, family, rank in FACE_MATRICES[tiny]:
        datum = lib.cartan.RootDatum(family, rank)
        classes = _length_classes(lib, datum)
        for lam in itertools.product((0, 1), repeat=rank):
            for ell in sorted(classes):
                members = classes[ell]
                for w in sorted(rng.sample(members, (len(members) + 1) // 2), key=members.index):
                    cells.append((kind, family, rank, lam, tuple(lib.cartan.reduced_word(w))))

    def run_cell(cell):
        out = lib.verify._theorem_cell(cell)
        if out["status"] != "pass":
            raise AssertionError("verify cell %r: %s %r" % (cell, out["status"], out["mismatches"]))
        return Counter(faces=out["n_faces"], lattice_points=out["n_lattice_points"])

    return Workload(cells, run_cell)


# ---------------------------------------------------------------------------
# big-weight: few cells over large crystals


# (heavy weight, light weight) as (family, rank, lambda).
BIG_WEIGHTS = {
    False: (("C", 3, (2, 2, 2)), ("A", 3, (3, 3, 3))),
    True: (("C", 2, (2, 2)), ("A", 2, (3, 3))),
}


def _spread(first, second):
    """Merge two lists so that each keeps its order and is spread evenly."""
    keyed = [((i + 0.5) / len(first), 0, x) for i, x in enumerate(first)]
    keyed += [((i + 0.5) / len(second), 1, x) for i, x in enumerate(second)]
    return [x for _, _, x in sorted(keyed, key=lambda k: k[:2])]


def big_weight(lib, seed, tiny=False):
    """Generation of B(lambda) at a heavy and a light weight, and both face
    decompositions for Weyl elements of length 1..N-1: the middle element of
    each length at the heavy weight (one costs 0.5 to 1.5 s at C3 (2,2,2)),
    every element at the light one (0.03 to 0.15 s at A3 (3,3,3)).

    The heavy panel is fixed: a sampled one moves the median cell by 20% from
    seed to seed.  The seed shuffles the light decompositions.  Half of them
    run before the heavy generation and half after it, between the heavy
    decompositions, so the cheap cells that set the median span the whole
    pass rather than one second of it: the host's speed drifts within a pass.
    """
    heavy_datum, light_datum = (lib.cartan.RootDatum(f, r) for f, r, _ in BIG_WEIGHTS[tiny])
    heavy_lam, light_lam = (lam for _, _, lam in BIG_WEIGHTS[tiny])

    def decompositions(datum, lam, every):
        classes = _length_classes(lib, datum)
        return [("decompose", datum, lam, w)
                for ell in range(1, datum.num_positive_roots)
                for w in (classes[ell] if every else [classes[ell][len(classes[ell]) // 2]])]

    heavy = decompositions(heavy_datum, heavy_lam, every=False)
    light = decompositions(light_datum, light_lam, every=True)
    random.Random(seed).shuffle(light)
    half = len(light) // 2
    cells = ([("generate", light_datum, light_lam)] + light[:half]
             + [("generate", heavy_datum, heavy_lam)] + _spread(heavy, light[half:]))

    def run_cell(cell):
        datum, lam = cell[1], cell[2]
        if cell[0] == "generate":
            word = lib.cartan.standard_word(datum)
            size = len(lib.crystals.generate_b_lambda(datum, word, lam))
            expected = lib.oracles.weyl_dimension(datum, lam)
            if size != expected:
                raise AssertionError("|B(%r)| = %d, Weyl dimension %d" % (lam, size, expected))
            return Counter({"b_lambda %s%d %s" % (datum.family, datum.rank, lam): size})
        w = cell[3]
        counts = Counter()
        for side, decompose, block in (
            ("opposite", lib.faces.opposite_demazure_faces, "F"),
            ("demazure", lib.faces.demazure_faces, "Fv"),
        ):
            dec = decompose(datum, w, lam)
            model = lib.faces.model_face_union_count(datum, lam, dec.tights + dec.empty, block)
            if model != len(dec.union):
                raise AssertionError("%s side of %r: model union %d, string union %d"
                                     % (side, w, model, len(dec.union)))
            counts[side + "_faces"] += len(dec.tights)
            counts[side + "_points"] += len(dec.union)
        return counts

    return Workload(cells, run_cell)


# ---------------------------------------------------------------------------
# c3-products: Schubert products on the deformed polytope


PRODUCT_TYPES = {False: ("C", 3), True: ("C", 2)}


def c3_products(lib, seed, tiny=False):
    """Set-up builds the deformed context.  A pass runs one product per degree
    1..N, in degree order: the middle unordered pair (v, w) of that degree in
    element order.  The seed is not used.  One product costs 0.04 to 8 s even
    within a degree, so a sampled panel moves run_s by about 30% from seed to
    seed; swapping v and w moves a product by up to 15%, and running it first
    (paying the oracle's caches) by about 10%."""
    datum = lib.cartan.RootDatum(*PRODUCT_TYPES[tiny])
    big_n = datum.num_positive_roots
    ctx = lib.faces.DeformedContext(datum)
    if len(ctx.verts) != 2 ** big_n:
        raise AssertionError("deformed %s%d polytope has %d vertices, expected 2^%d"
                             % (datum.family, datum.rank, len(ctx.verts), big_n))
    # DeformedContext raises unless polytopes.is_simple holds, so a built
    # context is a certified simple one.
    elements = lib.cartan.all_elements(datum)
    length = lib.cartan.length
    cells = []
    for degree in range(1, big_n + 1):
        frame = [
            (v, w)
            for i, v in enumerate(elements)
            for w in elements[i:]
            if length(v) + length(w) == degree
        ]
        cells.append(frame[len(frame) // 2])

    def run_cell(cell):
        v, w = cell
        result = lib.faces.product_c(datum, v, w, ctx)
        oracle = dict(lib.oracles.bgg_structure_constants(datum, v, w))
        if result.expansion != oracle:
            raise AssertionError("product %r * %r disagrees with the oracle" % (v, w))
        method = result.method if result.method in PRODUCT_METHODS else "other"
        return Counter({
            "faces.product_c.method." + method: 1,
            "faces.product_c.dropped_pairs": len(result.dropped_empty),
            "faces.product_c.nontransversal_pairs": len(result.nontransversal),
            "expansion_terms": sum(oracle.values()),
        })

    return Workload(cells, run_cell, Counter(vertices=len(ctx.verts)))


WORKLOADS = {
    "face-matrix": face_matrix,
    "big-weight": big_weight,
    "c3-products": c3_products,
}
