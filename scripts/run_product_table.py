#!/usr/bin/env python3
"""Print the full multiplication table of opposite Schubert classes in type C
of the chosen rank (default 2), with the identification method used for each
entry."""

import argparse
import sys

from schubcalc import faces
from schubcalc.cartan import RootDatum, all_elements, reduced_word


def fmt(w):
    word = reduced_word(w)
    return "s" + "s".join(map(str, word)) if word else "e"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=2)
    args = parser.parse_args()
    datum = RootDatum("C", args.rank)
    ctx = faces.default_context(datum)
    elems = all_elements(datum)  # sorted by (length, one-line form)
    for v in elems:
        for w in elems:
            res = faces.product_c(datum, v, w, ctx)
            terms = " + ".join(
                "%d[X^%s]" % (c, fmt(u)) if c != 1 else "[X^%s]" % fmt(u)
                for u, c in sorted(res.expansion.items(), key=lambda kv: kv[0].oneline)
            ) or "0"
            print("[X^%s] . [X^%s] = %-40s (%s)" % (fmt(v), fmt(w), terms, res.method))
    return 0


if __name__ == "__main__":
    sys.exit(main())
