#!/usr/bin/env python3
"""Drive the whole desk-scale verification matrix and write one JSON report.

Covers the opposite-side face decomposition (ranks A2/A3/C2), the
Demazure-side decomposition (same matrix), the rank-two pairing duality table,
the full rank-two product table against the divided-difference oracle, and a
seeded batch of crystal-axiom samples.
"""

import argparse
import json
import sys
import time

from schubcalc import verify


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda-max", type=int, default=2)
    parser.add_argument("--output", default="verification_matrix.json")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    start = time.time()
    reports = []
    for kind, family, rank in [
        ("theorem1", "A", 2),
        ("theorem1", "A", 3),
        ("theorem1", "C", 2),
        ("theorem2", "A", 2),
        ("theorem2", "A", 3),
        ("theorem3", "C", 2),
    ]:
        rep = verify.theorem_suite(kind, family, rank, args.lambda_max)
        print("%-9s %s%d: %s (%d cells, %.1fs)" % (
            kind, family, rank, rep["status"], len(rep["cells"]), rep["elapsed_seconds"]))
        reports.append(rep)
    rep = verify.duality_suite("C", 2)
    print("duality   C2: %s (%d cells)" % (rep["status"], len(rep["cells"])))
    reports.append(rep)
    rep = verify.products_suite("C", 2)
    print("products  C2: %s (%d cells, methods %s)" % (
        rep["status"], len(rep["cells"]), json.dumps(rep["methods"], sort_keys=True)))
    reports.append(rep)
    rep = verify.axioms_suite("A", 4, 120, seed=args.seed)
    print("axioms    A4: %s" % rep["status"])
    reports.append(rep)
    rep = verify.axioms_suite("C", 3, 120, seed=args.seed)
    print("axioms    C3: %s" % rep["status"])
    reports.append(rep)

    combined = {
        "status": "pass" if all(r["status"] == "pass" for r in reports) else "violation",
        "elapsed_seconds": round(time.time() - start, 2),
        "reports": reports,
    }
    with open(args.output, "w") as handle:
        json.dump(combined, handle, sort_keys=True, indent=1, default=str)
    print("total: %s in %.1fs -> %s" % (combined["status"], combined["elapsed_seconds"], args.output))
    return 0 if combined["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
