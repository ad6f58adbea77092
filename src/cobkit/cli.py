"""Command line driver.

Verbs: lens, cf, twobridge, plumbing, montesinos, surgery-check,
genus-bound, table1, scan.  Output is text by default; --json and --csv
switch modes where they apply.  Rationals are printed as exact decimals
in text and CSV and as 'p/q' strings in JSON.  Exit codes: 0 success,
1 usage error, 2 domain error (a violated precondition is printed),
3 internal invariant failure.  The environment variable COBKIT_MAX_N
(default 1000) caps the scan sweep size; a value that is not an integer
is a usage error.
"""

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import contfrac, lens, plumbing, surgery, twobridge
from .arith import dec
from .cobordism import RokhlinClass
from .errors import DomainError

SCAN_CAP_ENV = "COBKIT_MAX_N"
SCAN_CAP_DEFAULT = 1000
CSV_HEADER = ["alpha", "beta", "m_lower", "mbar_upper", "cf", "order"]


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_csv(rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _csv_row(report: lens.OrderReport) -> list[str]:
    return [
        str(report.space.alpha),
        str(report.space.beta),
        dec(report.bounds.m_lower),
        dec(report.bounds.mbar_upper),
        contfrac.format_cf(report.cf),
        report.order,
    ]


def _cmd_lens(args) -> int:
    space = lens.LensSpace(args.alpha, args.beta)
    cf = contfrac.parse_cf(args.cf) if args.cf else None
    report = lens.classify_order(space, cf)
    b = report.bounds
    if args.json:
        _emit_json(
            {
                "alpha": space.alpha,
                "beta": space.beta,
                "cf": contfrac.format_cf(report.cf),
                "bounds": b.to_json_dict(),
                "order": report.order,
                "order_reason": report.reason,
            }
        )
    elif args.csv:
        _emit_csv([_csv_row(report)])
    else:
        print(f"L({space.alpha},{space.beta})")
        print(f"  expansion: {contfrac.format_cf(report.cf)}")
        print(f"  m_lower:    {dec(b.m_lower)}")
        print(f"  mbar_upper: {dec(b.mbar_upper)}")
        print(f"  rokhlin:    {b.rokhlin.value}")
        print(f"  order:      {report.order}")
        print(f"  reason:     {report.reason}")
    return 0


def _cmd_cf(args) -> int:
    if args.positive:
        cf = contfrac.find_positive_cf(args.alpha, args.beta)
    else:
        cf = contfrac.find_admissible_cf(args.alpha, args.beta)
    if args.json:
        _emit_json(
            {
                "alpha": args.alpha,
                "beta": args.beta,
                "positive": bool(args.positive),
                "cf": None if cf is None else contfrac.format_cf(cf),
                "a": None if cf is None else list(cf.a),
                "b": None if cf is None else list(cf.b),
            }
        )
    else:
        if cf is None:
            print(f"{args.alpha}/{args.beta}: no greedy all-positive expansion")
        else:
            print(f"{args.alpha}/{args.beta} = {contfrac.format_cf(cf)}")
    return 0


def _cmd_twobridge(args) -> int:
    cf = contfrac.parse_cf(args.cf)
    plat = twobridge.FourPlat(cf)
    sig = twobridge.signature(plat)
    oc = twobridge.odd_counts(plat)
    det = twobridge.determinant(plat)
    genus = twobridge.slice_genus_upper(plat) if plat.is_knot else None
    if args.json:
        _emit_json(
            {
                "alpha": cf.alpha,
                "beta": cf.beta,
                "cf": contfrac.format_cf(cf),
                "is_knot": plat.is_knot,
                "signature": sig,
                "determinant": det,
                "odd_positive": oc.pos,
                "odd_negative": oc.neg,
                "slice_genus_upper": None
                if genus is None
                else {
                    "value": genus.value,
                    "pos_changes": genus.pos_changes,
                    "neg_changes": genus.neg_changes,
                    "seifert_genus": genus.seifert_genus,
                },
            }
        )
    else:
        kind = "knot" if plat.is_knot else "link"
        print(f"S({cf.alpha},{cf.beta}) = {contfrac.format_cf(cf)} ({kind})")
        print(f"  signature:   {sig}")
        print(f"  determinant: {det}")
        print(f"  odd terms:   o+={oc.pos} o-={oc.neg}")
        if genus is None:
            print("  slice genus: n/a (links are out of scope)")
        else:
            print(
                f"  slice genus: <= {genus.value} "
                f"(seifert {genus.seifert_genus}, changes +{genus.pos_changes}/-{genus.neg_changes})"
            )
    return 0


def _cmd_plumbing(args) -> int:
    triple = plumbing.MpqrTriple(args.p, args.q, args.r)
    inv = plumbing.tpqr_invariants(triple)
    bounds = plumbing.sigma_pqr_bounds(triple)
    if args.json:
        _emit_json(
            {
                "p": triple.p,
                "q": triple.q,
                "r": triple.r,
                "rank": inv.rank,
                "signature": inv.signature,
                "determinant_abs": inv.determinant_abs,
                "bounds": bounds.to_json_dict(),
            }
        )
    else:
        print(f"T({triple.p},{triple.q},{triple.r})")
        print(f"  rank:        {inv.rank}")
        print(f"  signature:   {inv.signature}")
        print(f"  |det|:       {inv.determinant_abs}")
        print(f"  m:           {dec(bounds.m_exact)} (exact)")
        print(f"  mbar:        {dec(bounds.mbar_exact)} (exact)")
        print(f"  rokhlin:     {bounds.rokhlin.value}")
    return 0


def _cmd_montesinos(args) -> int:
    triple = plumbing.MpqrTriple(args.p, args.q, args.r)
    inv = plumbing.montesinos_invariants(triple)
    if args.json:
        _emit_json(
            {
                "p": triple.p,
                "q": triple.q,
                "r": triple.r,
                "slice_genus": inv.slice_genus,
                "unknotting_number": inv.unknotting_number,
                "signature": inv.signature,
            }
        )
    else:
        print(f"Montesinos knot of T({triple.p},{triple.q},{triple.r})")
        print(f"  slice genus:       {inv.slice_genus}")
        print(f"  unknotting number: {inv.unknotting_number}")
        print(f"  signature:         {inv.signature}")
    return 0


def _cmd_surgery_check(args) -> int:
    lens_pair = tuple(args.lens) if args.lens else None
    report = surgery.obstruction_report(
        h=args.h,
        rokhlin=None if args.rokhlin is None else RokhlinClass(args.rokhlin),
        lens_pair=lens_pair,
        det=args.det,
    )
    if args.json:
        _emit_json(report.to_dict())
    else:
        for t in report.tests:
            print(f"{t.name}: {t.verdict} ({t.detail})")
        print(f"conclusion: {report.conclusion}")
    return 0


def _cmd_genus_bound(args) -> int:
    if args.lens is not None:
        if args.h is not None or args.rokhlin is not None or args.m_lower is not None:
            raise UsageError("--lens replaces --h/--rokhlin/--m-lower")
        space = lens.LensSpace(*args.lens)
        cf = contfrac.parse_cf(args.cf) if args.cf else None
        bounds = lens.m_bounds(space, cf)
        h = space.alpha
        rk = bounds.rokhlin
        m_lower = bounds.m_lower
    else:
        if args.h is None or args.rokhlin is None or args.m_lower is None:
            raise UsageError("need --lens ALPHA BETA or --h, --rokhlin and --m-lower")
        h = args.h
        rk = RokhlinClass(args.rokhlin)
        m_lower = args.m_lower
    bound = surgery.slice_genus_lower(h, rk, m_lower)
    if args.json:
        _emit_json(
            {
                "h": h,
                "rokhlin": rk.value,
                "m_lower": str(m_lower),
                "genus_lower": str(bound),
            }
        )
    else:
        print(f"h = {h}, rokhlin = {rk.value}, m_lower = {dec(m_lower)}")
        print(f"any knot with this surgery has slice genus >= {dec(bound)}")
    return 0


def _cmd_table1(args) -> int:
    reports = lens.table1()
    if args.json:
        _emit_json(
            {
                "rows": [
                    {
                        "alpha": row.space.alpha,
                        "beta": row.space.beta,
                        "bounds": row.bounds.to_json_dict(),
                        "cf": contfrac.format_cf(row.cf),
                        "order": row.order,
                    }
                    for row in reports
                ]
            }
        )
    elif args.csv:
        _emit_csv(_csv_row(r) for r in reports)
    else:
        rows = [CSV_HEADER] + [_csv_row(r) for r in reports]
        widths = [max(len(r[i]) for r in rows) for i in range(6)]
        for r in rows:
            print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)))
    return 0


def _scan_cap() -> int:
    raw = os.environ.get(SCAN_CAP_ENV)
    if raw is None:
        return SCAN_CAP_DEFAULT
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SCAN_CAP_ENV} must be an integer, got {raw!r}") from None


def _cmd_scan(args) -> int:
    cap = _scan_cap()
    if args.alpha_max > cap:
        raise DomainError(
            f"scan requires alpha_max <= {SCAN_CAP_ENV} (currently {cap})"
        )
    if args.alpha_max < 3:
        raise DomainError("scan requires alpha_max >= 3")
    reports = lens.census(args.alpha_max)
    if args.json:
        _emit_json(
            {
                "rows": [
                    {
                        "alpha": r.space.alpha,
                        "beta": r.space.beta,
                        "m_lower": str(r.bounds.m_lower),
                        "mbar_upper": str(r.bounds.mbar_upper),
                        "cf": contfrac.format_cf(r.cf),
                        "order": r.order,
                    }
                    for r in reports
                ]
            }
        )
    else:
        _emit_csv(_csv_row(r) for r in reports)
    return 0


def _fraction(text: str) -> Fraction:
    """argparse type for an exact rational such as '-3/2' or '0.25'."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def build_parser() -> Parser:
    parser = Parser(prog="cobkit", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_modes(p, csv_mode=True):
        p.add_argument("--json", action="store_true", help="JSON output")
        if csv_mode:
            p.add_argument("--csv", action="store_true", help="CSV output")

    p = sub.add_parser("lens", help="bounds, Rokhlin class and order of L(alpha, beta)")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.add_argument("--cf", help="use this expansion, e.g. '[2,4,-1]'")
    add_modes(p)
    p.set_defaults(func=_cmd_lens)

    p = sub.add_parser("cf", help="admissible expansion of alpha/beta")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.add_argument("--positive", action="store_true", help="greedy all-positive expansion")
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("twobridge", help="invariants of the 4-plat for an expansion")
    p.add_argument("cf", help="expansion text, e.g. '[2,4,-1]'")
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_twobridge)

    p = sub.add_parser("plumbing", help="invariants of T(p,q,r) and its boundary sphere")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_plumbing)

    p = sub.add_parser("montesinos", help="Montesinos knot invariants for T(p,q,r)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_montesinos)

    p = sub.add_parser("surgery-check", help="integral-surgery obstruction report")
    p.add_argument("--h", type=int, help="|H_1| of the candidate space")
    p.add_argument("--rokhlin", type=int, help="Rokhlin invariant (even, mod 16)")
    p.add_argument("--lens", type=int, nargs=2, metavar=("P", "Q"), help="lens space test")
    p.add_argument("--det", type=int, help="unknotting number one determinant test")
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_surgery_check)

    p = sub.add_parser("genus-bound", help="slice genus a surgery knot would need")
    p.add_argument("--lens", type=int, nargs=2, metavar=("ALPHA", "BETA"))
    p.add_argument("--cf", help="expansion for the --lens pair")
    p.add_argument("--h", type=int)
    p.add_argument("--rokhlin", type=int)
    p.add_argument(
        "--m-lower",
        dest="m_lower",
        type=_fraction,
        help="certified lower bound for m, e.g. '-3/2'",
    )
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_genus_bound)

    p = sub.add_parser("table1", help="bounds table for odd |H_1| <= 13")
    add_modes(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("scan", help="sweep lens spaces with odd alpha <= N")
    p.add_argument("--alpha-max", dest="alpha_max", type=int, required=True)
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: invariant failed ({exc})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
