"""Table of every admissible T(p, q, r) plumbing sphere.

Enumerates all parameter triples with p <= q <= r, exactly one even,
1/p + 1/q + 1/r < 1 and p + q + r <= 22, and prints the exact
invariants of the boundary sphere next to the Montesinos knot data.
Triples sharing p+q+r share (m, mbar, R); the final summary groups
them to make that visible.

Usage: python scripts/plumbing_census.py
"""

import argparse
import sys
from collections import defaultdict

from cobkit.arith import dec
from cobkit.errors import DomainError
from cobkit.plumbing import (
    MpqrTriple,
    montesinos_invariants,
    sigma_pqr_bounds,
    tpqr_invariants,
)


def valid_triples():
    for p in range(1, 23):
        for q in range(p, 23):
            for r in range(q, 23 - p - q + 1):
                try:
                    yield MpqrTriple(p, q, r)
                except DomainError:
                    continue


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args(argv)

    header = ["triple", "rank", "sigma", "|det|", "m", "mbar", "R", "g*=u", "sigma_K"]
    rows = []
    by_total = defaultdict(list)
    for t in valid_triples():
        inv = tpqr_invariants(t)
        bounds = sigma_pqr_bounds(t)
        knot = montesinos_invariants(t)
        rows.append(
            [
                f"({t.p},{t.q},{t.r})",
                str(inv.rank),
                str(inv.signature),
                str(inv.determinant_abs),
                dec(bounds.m_exact),
                dec(bounds.mbar_exact),
                str(bounds.rokhlin.value),
                str(knot.slice_genus),
                str(knot.signature),
            ]
        )
        by_total[t.total].append((f"({t.p},{t.q},{t.r})", bounds))

    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(r)))

    print()
    print(f"{len(rows)} admissible triples; classes that share all exact invariants:")
    for total in sorted(by_total):
        group = by_total[total]
        if len(group) > 1:
            m = dec(group[0][1].m_exact)
            print(f"  p+q+r={total} (m={m}): {' '.join(name for name, _ in group)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
