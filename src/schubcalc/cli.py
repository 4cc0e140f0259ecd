"""Batch command-line surface.

Subcommands: crystal | faces | pipedreams | product | verify | volume.
Output is JSON (optionally CSV for lattice-point tables) on stdout; --pretty
adds ASCII diagrams.  Exit codes: 0 ok, 1 theorem violation or internal
fault (with one JSON line on stderr), 2 bad input, 3 time budget exceeded.
Every input is validated before a command runs, and only `BadInput` exits 2.
Apart from integer parsing, the verify ranks and the Demazure side's one
word, each refusal is a library check run then, with the library's message;
a library error inside a validated command is an internal fault.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import crystals, faces, pipedreams, polytopes, verify
from .cartan import (
    InvariantError,
    RootDatum,
    check_weight,
    check_word_of_longest,
    length,
    reduced_word,
    standard_word,
    word_to_element,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


class BadInput(ValueError):
    pass


def _parse_ints(text, what):
    if text is None or text == "":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise BadInput("%s must be comma-separated integers, got %r" % (what, text))


def _check(check, *args):
    """Run a library check during validation, its ValueError being bad input."""
    try:
        return check(*args)
    except ValueError as err:
        raise BadInput(str(err)) from err


def _build_config(args) -> tuple:
    """The validated (datum, word of w_0 or the standard one, lam or (), letters of --w, w)."""
    datum = _check(RootDatum, args.type, args.rank)
    word = _parse_ints(getattr(args, "word", None), "--word") or standard_word(datum)
    lam = _parse_ints(getattr(args, "lam", None), "--lambda")
    letters = _parse_ints(args.w, "--w")
    if lam:
        _check(check_weight, datum, lam)
    _check(check_word_of_longest, datum, word)
    return datum, word, lam, letters, _check(word_to_element, datum, letters)


def _emit(payload, fmt="json", rows_key=None):
    if fmt == "csv" and rows_key is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in payload[rows_key]:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        json.dump(payload, sys.stdout, sort_keys=True, default=str)
        sys.stdout.write("\n")


def cmd_crystal(args) -> int:
    datum, word, lam, letters, w = _build_config(args)
    lam = lam or (0,) * datum.rank
    kind = args.kind
    if kind == "richardson":
        v = _check(word_to_element, datum, _parse_ints(args.v, "--v"))
        _check(crystals.check_richardson, v, w)
    if kind == "b":
        points = crystals.generate_b_lambda(datum, word, lam)
    elif kind == "demazure":
        points = crystals.demazure_crystal(datum, word, w, lam)
    elif kind == "opposite":
        points = crystals.opposite_demazure_crystal(datum, word, w, lam)
    else:  # richardson
        points = crystals.richardson_lattice_points(datum, word, v, w, lam)
    rows = sorted(points)
    payload = {
        "type": datum.family,
        "rank": datum.rank,
        "word": list(word),
        "lambda": list(lam),
        "w": list(letters),
        "kind": kind,
        "experimental": not crystals.is_certified_word(datum, word),
        "count": len(rows),
        "rows": [list(r) for r in rows],
    }
    _emit(payload, args.format, rows_key="rows")
    return EXIT_OK


def cmd_faces(args) -> int:
    datum, word, lam, letters, w = _build_config(args)
    lam = lam or (1,) * datum.rank
    side = args.side
    if side == "schubert" and word != standard_word(datum):
        raise BadInput("the Demazure side is defined over the standard word only")
    payload = {
        "type": datum.family,
        "rank": datum.rank,
        "word": list(word),
        "lambda": list(lam),
        "w": list(letters),
        "side": side,
    }
    if side == "opposite":
        dec = faces.opposite_demazure_faces(datum, w, lam, word=word)
        equations = {}
        for tight in dec.tights:
            eqs = []
            for j in tight:
                vec, lam_vec = polytopes.string_lambda_facet(datum, word, j)
                eqs.append({"coeffs": list(vec), "lambda_coeffs": list(lam_vec)})
            equations[",".join(map(str, tight))] = eqs
        payload["equations"] = equations
    else:
        dec = faces.demazure_faces(datum, w, lam)
        diagrams = pipedreams.box_order(pipedreams.mset(datum, w))
        payload["diagrams"] = [sorted(map(list, d.boxes)) for d in diagrams]
    payload["faces"] = [list(t) for t in dec.tights]
    payload["n_lattice_points"] = len(dec.union)
    payload["volume"] = str(faces.side_volume(datum, side, w, lam))
    if args.pretty and side == "schubert":
        payload["ascii"] = [pipedreams.ascii_diagram(d) for d in diagrams]
    _emit(payload, args.format, rows_key="faces")
    return EXIT_OK


def cmd_pipedreams(args) -> int:
    datum, _, _, letters, w = _build_config(args)
    op = args.op
    if op == "mitosis":
        _check(pipedreams.check_mitosis, datum)
    if op == "bottom":
        diagrams = [pipedreams.bottom_diagram(datum, w)]
    elif op == "closure":
        diagrams = pipedreams.box_order(pipedreams.ladder_set(datum, w))
    elif op == "mset":
        diagrams = pipedreams.box_order(pipedreams.mset(datum, w))
    else:  # mitosis
        diagrams = pipedreams.box_order(pipedreams.mitosis_chain(datum, letters))
    payload = {
        "type": datum.family,
        "rank": datum.rank,
        "w": list(letters),
        "op": op,
        "count": len(diagrams),
        "diagrams": [sorted(map(list, d.boxes)) for d in diagrams],
        "k_d": [list(pipedreams.arrangement_kd(d)) for d in diagrams],
        "k_d_prime": [list(pipedreams.arrangement_kd_prime(d)) for d in diagrams],
    }
    if args.pretty:
        payload["ascii"] = [pipedreams.ascii_diagram(d) for d in diagrams]
    _emit(payload, args.format, rows_key="k_d")
    return EXIT_OK


def cmd_product(args) -> int:
    datum, _, _, letters, w = _build_config(args)
    _check(faces.check_product, datum)
    v = _parse_ints(args.v, "--v")
    result = faces.product_c(datum, _check(word_to_element, datum, v), w)
    payload = {
        "v": list(v),
        "w": list(letters),
        "faces": [list(tight) for tight in result.faces],
        "expansion": {",".join(map(str, reduced_word(u))): c for u, c in sorted(
            result.expansion.items(), key=lambda kv: (length(kv[0]), kv[0].oneline)
        )},
    }
    _emit(payload)
    return EXIT_OK


def cmd_volume(args) -> int:
    datum, _, lam, letters, w = _build_config(args)
    lam = lam or (1,) * datum.rank
    payload = {
        "type": datum.family,
        "rank": datum.rank,
        "lambda": list(lam),
        "w": list(letters),
        "schubert_dimension": faces.h0_dimension(datum, "schubert", w, lam),
        "opposite_dimension": faces.h0_dimension(datum, "opposite", w, lam),
        "schubert_volume": str(faces.side_volume(datum, "schubert", w, lam)),
        "opposite_volume": str(faces.side_volume(datum, "opposite", w, lam)),
    }
    _emit(payload)
    return EXIT_OK


_VERIFY_RANK_LIMITS = {"A": 4, "C": 3}


def cmd_verify(args) -> int:
    theorem, family, rank, budget = args.theorem, args.type, args.rank, args.budget
    if not 2 <= rank <= _VERIFY_RANK_LIMITS[family]:
        raise BadInput("verify supports ranks 2..%d for type %s" % (_VERIFY_RANK_LIMITS[family], family))
    # each statement's parser sets only the counts its suite reads
    _check(verify.check_request, theorem, family, budget,
           getattr(args, "lambda_max", None), getattr(args, "samples", None))
    if theorem in verify.THEOREMS:
        report = verify.theorem_suite(theorem, family, rank, args.lambda_max, budget=budget)
    elif theorem == "axioms":
        report = verify.axioms_suite(family, rank, args.samples, seed=args.seed, budget=budget)
    elif theorem == "duality":
        report = verify.duality_suite(family, rank, budget=budget)
    else:
        report = verify.products_suite(family, rank, budget=budget)
    _emit(report)
    if report["status"] == "partial":
        return EXIT_BUDGET
    return EXIT_OK if report["status"] == "pass" else EXIT_VIOLATION


def _add_common(sub, lam=True, word=True, fmt=True, pretty=False):
    sub.add_argument("--type", required=True, choices=["A", "C"])
    sub.add_argument("--rank", required=True, type=int)
    if word:
        sub.add_argument("--word", help="reduced word of the longest element (default: standard)")
    if lam:
        sub.add_argument("--lambda", dest="lam", help="fundamental coefficients, comma-separated")
    sub.add_argument("--w", default="", help="simple-reflection letters, applied left to right")
    if fmt:
        sub.add_argument("--format", choices=["json", "csv"], default="json")
    if pretty:
        sub.add_argument("--pretty", action="store_true", help="add ASCII diagrams")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubcalc",
        description="Exact polyhedral models of Demazure crystals and the "
        "Schubert calculus they carry.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("crystal", help="enumerate crystal subsets in string coordinates")
    _add_common(p)
    p.add_argument("--kind", choices=["b", "demazure", "opposite", "richardson"], default="b")
    p.add_argument("--v", default="", help="second Weyl element for richardson")
    p.set_defaults(func=cmd_crystal)

    p = subs.add_parser("faces", help="face decompositions, equations, lattice unions, volumes")
    _add_common(p, pretty=True)
    p.add_argument("--side", choices=["schubert", "opposite"], default="opposite")
    p.set_defaults(func=cmd_faces)

    p = subs.add_parser("pipedreams", help="bottom diagrams, ladder closures, box-removal sets")
    _add_common(p, lam=False, word=False, pretty=True)
    p.add_argument("--op", choices=["bottom", "closure", "mset", "mitosis"], default="mset")
    p.set_defaults(func=cmd_pipedreams)

    p = subs.add_parser("product", help="product of two opposite Schubert classes (type C)")
    _add_common(p, lam=False, word=False, fmt=False)
    p.add_argument("--v", required=True)
    p.set_defaults(func=cmd_product)

    p = subs.add_parser("volume", help="section-space dimensions and face volumes")
    _add_common(p, word=False, fmt=False)
    p.set_defaults(func=cmd_volume)

    p = subs.add_parser("verify", help="run a verification suite")
    statements = p.add_subparsers(dest="theorem", required=True, metavar="statement")
    # each statement takes only the flags its suite reads
    for theorem, families in verify.STATEMENTS.items():
        s = statements.add_parser(theorem, help="stated for type %s" % " and ".join(families))
        s.add_argument("--type", required=True, choices=["A", "C"])
        s.add_argument("--rank", required=True, type=int)
        if theorem in verify.THEOREMS:
            s.add_argument("--lambda-max", dest="lambda_max", type=int, default=2)
        if theorem == "axioms":
            s.add_argument("--samples", type=int, default=200)
            s.add_argument("--seed", type=int, default=0)
        s.add_argument("--budget", type=float, default=None, help="seconds before a partial report")
        s.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BadInput as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_BAD_INPUT
    except (InvariantError, ValueError) as err:
        # input is validated before any command runs, so a library
        # ValueError that escapes one is a fault of the program
        fault = {"error": "internal invariant violated", "type": type(err).__name__,
                 "message": str(err)}
    except faces.TheoremViolationError as err:
        fault = {"error": "theorem violation", "payload": err.payload}
    # one JSON line on stderr; stdout holds only what a command emitted
    print(json.dumps(fault, sort_keys=True, default=str), file=sys.stderr)
    return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
