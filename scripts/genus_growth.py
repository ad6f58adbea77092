"""Forced slice genus growth along the L(16k+7, 7k+3) series.

Every member has Rokhlin invariant 2 and m >= -3/2, yet any knot whose
(16k+7)-framed surgery produced the member would need slice genus at
least 2k-1.  The genus demand grows without bound while the certified
interval stays put, which is the point of the series.

Usage: python scripts/genus_growth.py --k-max 20 [--csv]
"""

import argparse
import csv
import sys

from cobkit.arith import dec
from cobkit.lens import family, m_bounds
from cobkit.surgery import slice_genus_lower


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-max", type=int, default=20)
    parser.add_argument("--csv", action="store_true", help="machine readable output")
    args = parser.parse_args(argv)
    if args.k_max < 2:
        parser.error("--k-max must be at least 2")

    rows = []
    for k in range(2, args.k_max + 1, 2):
        space, cf = family(k)
        bounds = m_bounds(space, cf)
        need = slice_genus_lower(space.alpha, bounds.rokhlin, bounds.m_lower)
        cells = (k, space.alpha, space.beta, bounds.rokhlin)
        rows.append([*map(str, cells), dec(bounds.m_lower), dec(need)])

    header = ["k", "alpha", "beta", "rokhlin", "m_lower", "genus_needed"]
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        for r in [header] + rows:
            print("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(r)))
        print()
        print("the interval and Rokhlin class never move; the genus demand does")
    return 0


if __name__ == "__main__":
    sys.exit(main())
