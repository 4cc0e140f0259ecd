"""Batch verification suites over (type, rank, lambda, w) matrices.

Each runner returns a JSON-ready report: one cell per matrix entry, with
its mismatches and a status read off them (`_verdict`), plus a top-level
status that is a violation exactly when some cell is one, else a pass
("partial" when a time budget ran out, with the remaining cells unlisted).
A runner checks one statement of STATEMENTS, and refuses a bad request
through `check_request`, the one check of a request, before any cell runs.
The duality suite pairs each u with the table's slice of length N - l(u).
"""

from __future__ import annotations

import itertools
import random
import time

from . import crystals, faces
from .cartan import (
    RootDatum,
    all_elements,
    elements_of_length,
    length,
    longest_element,
    multiply,
    reduced_word,
    simple_root_in_fundamental,
    standard_word,
    word_to_element,
)


def dominant_weights(rank: int, max_coeff: int):
    return [tuple(t) for t in itertools.product(range(max_coeff + 1), repeat=rank)]


# each statement that verify checks, with the families it is stated for
STATEMENTS = {"theorem1": ("A", "C"), "theorem2": ("A",), "theorem3": ("C",),
              "duality": ("A", "C"), "products": ("C",), "axioms": ("A", "C")}
THEOREMS = {kind: STATEMENTS[kind] for kind in ("theorem1", "theorem2", "theorem3")}


def check_request(kind, family, budget=None, lambda_max=None, samples=None, table=STATEMENTS):
    """Refuse a statement missing from `table`, a family it is not stated for,
    counts that are not ints, counts that leave no cells, which would pass
    having checked nothing, and a NaN budget, which never runs out, or a
    negative one."""
    if kind not in table:
        raise ValueError("%r is not one of the statements %s" % (kind, ", ".join(table)))
    if family not in table[kind]:
        raise ValueError("%s is stated for type %s, not %r" % (kind, " or ".join(table[kind]), family))
    for name, count in (("lambda_max", lambda_max), ("samples", samples)):
        if count is not None and not isinstance(count, int):
            raise ValueError("%s must be an integer, got %r" % (name, count))
    if lambda_max is not None and lambda_max < 0:
        raise ValueError("lambda_max must be at least 0, got %d" % lambda_max)
    if samples is not None and samples < 1:
        raise ValueError("samples must be at least 1, got %d" % samples)
    if budget is not None and not budget >= 0:
        raise ValueError("budget must be a nonnegative number of seconds, got %r" % (budget,))


def _collect(report, cells, start, budget):
    """Finish `report` over the cells that a suite's generator yields,
    stopping once `budget` seconds have passed since `start`; the generator
    is closed either way."""
    listed = []
    partial = False
    for cell in cells:
        listed.append(cell)
        partial = budget is not None and time.perf_counter() - start > budget
        if partial:
            break
    cells.close()
    report["cells"] = listed
    report["elapsed_seconds"] = round(time.perf_counter() - start, 3)
    if partial:
        report["status"] = "partial"
    elif any(c["status"] == "violation" for c in listed):
        report["status"] = "violation"
    else:
        report["status"] = "pass"
    return report


def _verdict(cell, mismatches):
    """`cell` with its mismatches, a violation exactly when there are any."""
    cell["mismatches"] = mismatches
    cell["status"] = "violation" if mismatches else "pass"
    return cell


def _theorem_cell(args):
    kind, family, rank, lam, word = args
    datum = RootDatum(family, rank)
    w = word_to_element(datum, word)
    cell = {
        "theorem": kind,
        "type": family,
        "rank": rank,
        "lambda": list(lam),
        "w": list(word),
        "n_faces": 0,
        "n_lattice_points": 0,
    }
    mismatches = []
    try:
        if kind == "theorem1":
            dec = faces.opposite_demazure_faces(datum, w, lam)
            model_count = faces.model_face_union_count(datum, lam, dec.tights, "F")
        else:
            dec = faces.demazure_faces(datum, w, lam)
            model_count = faces.model_face_union_count(datum, lam, dec.tights, "Fv")
        cell["n_faces"] = len(dec.tights)
        cell["n_lattice_points"] = len(dec.union)
        if model_count != len(dec.union):
            mismatches.append(
                {"kind": "model-face-union-count", "model": model_count, "string": len(dec.union)}
            )
    except faces.TheoremViolationError as err:
        mismatches.append(err.payload)
    return _verdict(cell, mismatches)


def theorem_suite(kind: str, family: str, rank: int, lambda_max: int, budget=None):
    """kind is one of THEOREMS: "theorem1" (opposite side), "theorem2" (type
    A Demazure side) or "theorem3" (type C Demazure side)."""
    check_request(kind, family, budget, lambda_max=lambda_max, table=THEOREMS)
    datum = RootDatum(family, rank)
    start = time.perf_counter()
    cells = (
        _theorem_cell((kind, family, rank, lam, tuple(reduced_word(w))))
        for lam in dominant_weights(rank, lambda_max)
        for w in all_elements(datum)
    )
    report = {"theorem": kind, "type": family, "rank": rank, "lambda_max": lambda_max}
    report = _collect(report, cells, start, budget)
    # complete and partial reports list their cells in one order
    report["cells"].sort(key=lambda c: (c["lambda"], c["w"]))
    return report


def duality_suite(family: str, rank: int, budget=None):
    """Complementary-length pairings: 1 exactly on Poincare-dual pairs."""
    check_request("duality", family, budget)
    datum = RootDatum(family, rank)
    start = time.perf_counter()
    w0 = longest_element(datum)
    big_n = datum.num_positive_roots

    def cells():
        for u in all_elements(datum):
            dual = multiply(w0, u)
            for v in elements_of_length(datum, big_n - length(u)):
                cell = {
                    "theorem": "duality",
                    "type": family,
                    "rank": rank,
                    "u": list(reduced_word(u)),
                    "v": list(reduced_word(v)),
                }
                expected = 1 if v == dual else 0
                got = faces.degree_pairing(datum, u, v)
                cell["pairing"] = got
                yield _verdict(cell, [] if got == expected else [{"expected": expected, "got": got}])

    return _collect({"theorem": "duality", "type": family, "rank": rank}, cells(), start, budget)


def products_suite(family: str, rank: int, budget=None):
    """Every product of two opposite classes against the divided-difference
    oracle."""
    check_request("products", family, budget)
    datum = RootDatum(family, rank)
    start = time.perf_counter()

    def cells():
        for v, w in itertools.product(all_elements(datum), repeat=2):
            cell = {
                "theorem": "products",
                "type": family,
                "rank": rank,
                "v": list(reduced_word(v)),
                "w": list(reduced_word(w)),
            }
            mismatches = []
            try:
                faces.product_c(datum, v, w)
            except faces.TheoremViolationError as err:
                mismatches.append(err.payload)
            yield _verdict(cell, mismatches)

    return _collect({"theorem": "products", "type": family, "rank": rank}, cells(), start, budget)


def axioms_suite(family: str, rank: int, samples: int, seed: int = 0, budget=None):
    """Randomized crystal-axiom checks on elements sampled by lowering walks."""
    check_request("axioms", family, budget, samples=samples)
    datum = RootDatum(family, rank)
    rng = random.Random(seed)
    start = time.perf_counter()
    word = standard_word(datum)
    n = datum.rank
    alphas = [simple_root_in_fundamental(datum, i) for i in range(1, n + 1)]
    lam_pool = [None, (1,) * n, (2,) + (1,) * (n - 1)]

    def cells():
        for t in range(samples):
            lam = lam_pool[t % len(lam_pool)]
            state = (0,) * len(word)
            for _ in range(rng.randrange(0, 12)):
                i = rng.randrange(1, n + 1)
                nxt = crystals.f_op(datum, word, lam, state, i)
                if nxt is not None:
                    state = nxt
            cell = {"sample": t, "lambda": None if lam is None else list(lam)}
            mismatches = []
            wt = crystals.weight_of(datum, word, lam, state)
            for i in range(1, n + 1):
                eps = crystals.epsilon(datum, word, lam, state, i)
                phi = crystals.phi(datum, word, lam, state, i)
                checks = [("phi-eps-wt", phi == eps + wt[i - 1])]
                down = crystals.f_op(datum, word, lam, state, i)
                if down is not None:
                    wt2 = crystals.weight_of(datum, word, lam, down)
                    checks.extend(
                        [
                            ("wt-f", wt2 == tuple(a - b for a, b in zip(wt, alphas[i - 1]))),
                            ("eps-f", crystals.epsilon(datum, word, lam, down, i) == eps + 1),
                            ("phi-f", crystals.phi(datum, word, lam, down, i) == phi - 1),
                            ("e-f", crystals.e_op(datum, word, lam, down, i) == state),
                        ]
                    )
                up = crystals.e_op(datum, word, lam, state, i)
                if up is not None:
                    checks.append(("f-e", crystals.f_op(datum, word, lam, up, i) == state))
                for name, ok in checks:
                    if not ok:
                        mismatches.append({"axiom": name, "letter": i, "state": list(state)})
            yield _verdict(cell, mismatches)

    report = {"theorem": "axioms", "type": family, "rank": rank, "samples": samples, "seed": seed}
    return _collect(report, cells(), start, budget)
