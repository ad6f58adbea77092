"""Census of order classifications over a sweep of lens spaces.

For every L(alpha, beta) with odd alpha <= N and odd beta (one
representative per class as stored, no mirror folding), classify the
order of the class and tally the verdicts.  census supplies no
expansion, so every infinite order comes from the bound certificate.
The unresolved pairs are listed so they can be inspected by hand.

Usage: python scripts/order_census.py --alpha-max 99
"""

import argparse
import sys
from collections import Counter

from cobkit.arith import dec
from cobkit.lens import census


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha-max", type=int, default=99)
    parser.add_argument(
        "--show-unknown", action="store_true", help="list every unresolved pair"
    )
    args = parser.parse_args(argv)

    tally = Counter()
    unknown = []
    for row in census(args.alpha_max):
        tally[row.order] += 1
        if row.order == "?":
            unknown.append(row)

    print(f"classes scanned: {sum(tally.values())} (odd alpha <= {args.alpha_max})")
    for label in ("inf", "<=2", "0", "?"):
        if tally[label]:
            print(f"  order {label:>4}: {tally[label]}")
    if tally["inf"]:
        print(f"    via bound certificate: {tally['inf']}")
    if unknown:
        print(f"unresolved: {len(unknown)}")
        if args.show_unknown:
            for r in unknown:
                print(
                    f"  L({r.alpha},{r.beta})  m in [{dec(r.m_lower)}, "
                    f"{dec(r.mbar_upper)}]  R={r.rokhlin}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
