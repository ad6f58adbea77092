"""Command line driver.

Verbs: lens, cf, twobridge, plumbing, montesinos, surgery-check,
genus-bound, table1, scan.  Output is text by default; --json and --csv
switch modes where they apply.  Rationals are printed as exact decimals
in text and CSV and as 'p/q' strings in JSON.  Exit codes: 0 success,
1 usage or output error (a closed stdout or a failed write), 2 domain
error (a violated precondition is printed), 3 internal invariant
failure.  The environment variable COBKIT_MAX_N (default 1000) caps the
scan sweep size; a value that is not an integer is a usage error.
Numbers are capped at 4000 decimal digits, fewer when
PYTHONINTMAXSTRDIGITS is below 4300: a longer integer or rational
argument is a usage error, and a result that would print a longer
number is a domain error; both messages name the cap.
"""

import argparse
import contextlib
import os
import string
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from typing import NamedTuple

from . import contfrac, lens, plumbing, surgery, twobridge
from .arith import DIGIT_LIMIT, check_digits, dec
from .cobordism import MBounds, RokhlinClass
from .errors import DomainError

SCAN_CAP_ENV = "COBKIT_MAX_N"
SCAN_CAP_DEFAULT = 1000
CSV_HEADER = ["alpha", "beta", "m_lower", "mbar_upper", "cf", "order"]


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class Output(NamedTuple):
    """What a verb prints: the --json document, with Fraction values left
    for _render, or None when the rows are the document, as in scan; the
    text-mode template filled from it (None aligns the CSV cells); and
    the lens rows that CSV and the table print."""

    doc: dict | None
    text: str | None = None
    rows: Iterable[lens.CensusRow] = ()


class _Text(string.Formatter):
    """str.format that prints rationals as exact decimals."""

    def format_field(self, value, format_spec):
        if isinstance(value, Fraction):
            return dec(value)
        return super().format_field(value, format_spec)


def _json_value(value):
    """JSON form of a value json cannot encode itself: a Fraction, as its
    'p/q' string under the digit cap, or the lazily built rows, so a mode
    that does not print them never builds them.  json writes any tuple
    subclass, a record too, as an array without calling this hook, so
    the verbs put records into their documents as dicts."""
    if isinstance(value, Fraction):
        return str(check_digits(value))
    return list(value)


def _bounds(bounds: MBounds) -> dict:
    """An MBounds as a document dict: its fields, the Rokhlin class as
    its int value."""
    rokhlin = bounds.rokhlin
    return {**bounds._asdict(), "rokhlin": None if rokhlin is None else rokhlin.value}


class _Quarters(dict):
    """The printed text of Fraction(n, 4) by quarter count n: the exact
    decimal, or the JSON 'p/q' string, made on the first lookup of each
    n.  A miss is the only way to a text, so every distinct value printed
    passes the digit cap.  One per render, never one per process: a
    long-lived caller prints rows of 100-digit lens spaces through it."""

    def __init__(self, as_json: bool):
        self.text = _json_value if as_json else dec

    def __missing__(self, n: int) -> str:
        self[n] = text = self.text(Fraction(n, 4))
        return text


def _csv_rows(rows: Iterable[lens.CensusRow], texts: _Quarters) -> Iterator[list[str]]:
    """The six cells of each row, as the CSV lines and the aligned text
    table print them, with the expansion unquoted and the bounds' texts
    from the render's one memo."""
    for row in rows:
        yield [
            str(row.alpha),
            str(row.beta),
            texts[row.lower],
            texts[row.upper],
            row.cf,
            row.order,
        ]


def _by_alpha(rows: Iterable[lens.CensusRow]) -> Iterator[list[lens.CensusRow]]:
    """The rows in runs of one alpha each, in the order they come.  A run
    goes out when the first row of the next alpha has been read, or at
    the end."""
    run, alpha = [], None
    for row in rows:
        if row.alpha != alpha:
            if run:
                yield run
                run = []
            alpha = row.alpha
        run.append(row)
    if run:
        yield run


def _csv_lines(rows: Iterable[lens.CensusRow]) -> Iterator[str]:
    """The CSV text of the rows, one block per alpha, the header with the
    first; the header alone when there are no rows."""
    texts = _Quarters(as_json=False)
    lead = ",".join(CSV_HEADER) + "\n"
    for run in _by_alpha(rows):
        lines = [lead]
        for cells in _csv_rows(run, texts):
            if "," in cells[4]:  # the expansion; no cell holds a quote, CR or LF
                cells[4] = f'"{cells[4]}"'
            lines.append(",".join(cells) + "\n")
        yield "".join(lines)
        lead = ""
    if lead:
        yield lead


def _json_rows(rows: Iterable[lens.CensusRow]) -> Iterator[str]:
    """The text json.dumps({"rows": [...]}, indent=2) writes for the rows
    as scan prints them, one block per alpha: the frame's opening goes
    out with the first block and its close after the last.  Each row is
    written as text: no value needs escaping, since alpha and beta are
    ints, the bounds 'p/q' strings, the expansion digits, '-', ',' and
    brackets, and the order one of the kernel's ASCII labels."""
    texts = _Quarters(as_json=True)
    lead, close = '{\n  "rows": [\n', '{\n  "rows": []\n}\n'
    for run in _by_alpha(rows):
        yield lead + ",\n".join([
            f'    {{\n      "alpha": {r.alpha},\n      "beta": {r.beta},\n'
            f'      "m_lower": "{texts[r.lower]}",\n      "mbar_upper": "{texts[r.upper]}",\n'
            f'      "cf": "{r.cf}",\n      "order": "{r.order}"\n    }}'
            for r in run
        ])
        lead, close = ",\n", "\n  ]\n}\n"
    yield close


def _render(args, out: Output) -> Iterable[str]:
    """The one output path: JSON, CSV or text, as the mode flags ask, in
    the blocks main writes.  Rows as CSV or as scan's JSON go out one
    alpha per block, so a sweep is never held whole; every other output,
    the aligned table too, is one block.  A failure in a later block, an
    internal check or a bound past the digit cap, leaves the blocks
    before it written."""
    if args.json:
        if out.doc is None:
            return _json_rows(out.rows)
        import json

        return (json.dumps(out.doc, indent=2, default=_json_value) + "\n",)
    if args.csv:
        return _csv_lines(out.rows)
    if out.text is None:
        rows = [CSV_HEADER, *_csv_rows(out.rows, _Quarters(as_json=False))]
        widths = [max(map(len, column)) for column in zip(*rows)]
        return ("".join("  ".join(map(str.ljust, row, widths)) + "\n" for row in rows),)
    return (_Text().format(out.text, **out.doc),)


_LENS_TEXT = """\
L({alpha},{beta})
  expansion: {cf}
  m_lower:    {bounds[m_lower]}
  mbar_upper: {bounds[mbar_upper]}
  rokhlin:    {bounds[rokhlin]}
  order:      {order}
  reason:     {order_reason}
"""


def _cmd_lens(args) -> Output:
    cf = None if args.cf is None else contfrac.parse_cf(args.cf)
    report = lens.classify_order(lens.LensSpace(args.alpha, args.beta), cf)
    row = report.row
    doc = {
        "alpha": report.space.alpha,
        "beta": report.space.beta,
        "cf": row.cf,
        "bounds": _bounds(report.bounds),
        "order": report.order,
        "order_reason": report.reason,
    }
    return Output(doc, _LENS_TEXT, [row])


def _cmd_cf(args) -> Output:
    find = contfrac.find_positive_cf if args.positive else contfrac.find_admissible_cf
    cf = find(args.alpha, args.beta)
    doc = {
        "alpha": args.alpha,
        "beta": args.beta,
        "positive": args.positive,
        "cf": None if cf is None else contfrac.format_cf(cf),
        "a": None if cf is None else cf.a,
        "b": None if cf is None else cf.b,
    }
    if cf is None:
        return Output(doc, "{alpha}/{beta}: no greedy all-positive expansion\n")
    return Output(doc, "{alpha}/{beta} = {cf}\n")


# %s slots: knot or link, and its slice genus line
_TWOBRIDGE_TEXT = """\
S({alpha},{beta}) = {cf} (%s)
  signature:   {signature}
  determinant: {determinant}
  odd terms:   o+={odd_positive} o-={odd_negative}
  slice genus: %s
"""
_KNOT_GENUS = (
    "<= {slice_genus_upper[value]} (seifert {slice_genus_upper[seifert_genus]}, "
    "changes +{slice_genus_upper[pos_changes]}/-{slice_genus_upper[neg_changes]})"
)


def _cmd_twobridge(args) -> Output:
    cf = contfrac.parse_cf(args.cf)
    inv = twobridge.plat_invariants(cf)
    genus = inv.slice_genus_upper
    doc = {
        "alpha": cf.alpha,
        "beta": cf.beta,
        "cf": contfrac.format_cf(cf),
        **inv._asdict(),
        "slice_genus_upper": None if genus is None else genus._asdict(),
    }
    kind = ("knot", _KNOT_GENUS) if inv.is_knot else ("link", "n/a (links are out of scope)")
    return Output(doc, _TWOBRIDGE_TEXT % kind)


_PLUMBING_TEXT = """\
T({p},{q},{r})
  rank:        {rank}
  signature:   {signature}
  |det|:       {determinant_abs}
  m:           {bounds[m_exact]} (exact)
  mbar:        {bounds[mbar_exact]} (exact)
  rokhlin:     {bounds[rokhlin]}
"""


def _cmd_plumbing(args) -> Output:
    triple = plumbing.MpqrTriple(args.p, args.q, args.r)
    doc = {
        **triple._asdict(),
        **plumbing.tpqr_invariants(triple)._asdict(),
        "bounds": _bounds(plumbing.sigma_pqr_bounds(triple)),
    }
    return Output(doc, _PLUMBING_TEXT)


_MONTESINOS_TEXT = """\
Montesinos knot of T({p},{q},{r})
  slice genus:       {slice_genus}
  unknotting number: {unknotting_number}
  signature:         {signature}
"""


def _cmd_montesinos(args) -> Output:
    triple = plumbing.MpqrTriple(args.p, args.q, args.r)
    doc = {**triple._asdict(), **plumbing.montesinos_invariants(triple)._asdict()}
    return Output(doc, _MONTESINOS_TEXT)


def _cmd_surgery_check(args) -> Output:
    report = surgery.obstruction_report(
        h=args.h,
        rokhlin=None if args.rokhlin is None else RokhlinClass(args.rokhlin),
        lens_pair=tuple(args.lens) if args.lens else None,
        det=args.det,
    )
    test = "{tests[%d][name]}: {tests[%d][verdict]} ({tests[%d][detail]})\n"
    text = "".join(test % (i, i, i) for i in range(len(report.tests)))
    doc = {
        "tests": [t._asdict() for t in report.tests],
        "conclusion": report.conclusion,
    }
    return Output(doc, text + "conclusion: {conclusion}\n")


def _cmd_genus_bound(args) -> Output:
    if args.lens is not None:
        if args.h is not None or args.rokhlin is not None or args.m_lower is not None:
            raise UsageError("--lens replaces --h/--rokhlin/--m-lower")
        space = lens.LensSpace(*args.lens)
        cf = None if args.cf is None else contfrac.parse_cf(args.cf)
        bounds = lens.m_bounds(space, cf)
        h, rk, m_lower = space.alpha, bounds.rokhlin, bounds.m_lower
    else:
        if args.cf is not None:
            raise UsageError("--cf needs --lens")
        if args.h is None or args.rokhlin is None or args.m_lower is None:
            raise UsageError("need --lens ALPHA BETA or --h, --rokhlin and --m-lower")
        h, rk, m_lower = args.h, RokhlinClass(args.rokhlin), args.m_lower
    doc = {
        "h": h,
        "rokhlin": rk.value,
        "m_lower": m_lower,
        "genus_lower": surgery.slice_genus_lower(h, rk, m_lower),
    }
    return Output(
        doc,
        "h = {h}, rokhlin = {rokhlin}, m_lower = {m_lower}\n"
        "any knot with this surgery has slice genus >= {genus_lower}\n",
    )


def _cmd_table1(args) -> Output:
    reports = lens.table1()
    rows = [r.row for r in reports]
    doc = (
        {
            "alpha": r.space.alpha,
            "beta": r.space.beta,
            "bounds": _bounds(r.bounds),
            "cf": row.cf,
            "order": r.order,
        }
        for r, row in zip(reports, rows)
    )
    return Output({"rows": doc}, None, rows)


def _scan_cap() -> int:
    raw = os.environ.get(SCAN_CAP_ENV)
    if raw is None:
        return SCAN_CAP_DEFAULT
    if len(raw) > DIGIT_LIMIT:
        raise UsageError(f"{SCAN_CAP_ENV} exceeds the {DIGIT_LIMIT}-digit cap")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SCAN_CAP_ENV} must be an integer, got {raw!r}") from None


def _cmd_scan(args) -> Output:
    cap = _scan_cap()
    if args.alpha_max > cap:
        raise DomainError(f"scan requires alpha_max <= {SCAN_CAP_ENV} (currently {cap})")
    if args.alpha_max < 3:
        raise DomainError("scan requires alpha_max >= 3")
    # one sweep, read once: by the JSON rows or by the CSV writer
    return Output(None, None, lens.census(args.alpha_max))


def _integer(text: str) -> int:
    """argparse type for an integer of at most DIGIT_LIMIT digits."""
    if len(text) > DIGIT_LIMIT:
        raise argparse.ArgumentTypeError(f"exceeds the {DIGIT_LIMIT}-digit cap")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _fraction(text: str) -> Fraction:
    """argparse type for an exact rational such as '-3/2', '0.25' or '1e-3'.

    The text and the power of ten its exponent asks for count against
    DIGIT_LIMIT before any of it is evaluated.
    """
    exponent = text.lower().partition("e")[2]
    try:
        size = len(text) + abs(int(exponent or 0))
    except ValueError:
        size = len(text)  # not a rational; Fraction says so below
    if size > DIGIT_LIMIT:
        raise argparse.ArgumentTypeError(f"exceeds the {DIGIT_LIMIT}-digit cap")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def build_parser() -> Parser:
    parser = Parser(prog="cobkit", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_modes(p, csv_mode=True):
        p.add_argument("--json", action="store_true", help="JSON output")
        p.set_defaults(csv=False)
        if csv_mode:
            p.add_argument("--csv", action="store_true", help="CSV output")

    p = sub.add_parser("lens", help="bounds, Rokhlin class and order of L(alpha, beta)")
    p.add_argument("alpha", type=_integer)
    p.add_argument("beta", type=_integer)
    p.add_argument("--cf", help="use this expansion, e.g. '[2,4,-1]'")
    add_modes(p)
    p.set_defaults(func=_cmd_lens)

    p = sub.add_parser("cf", help="admissible expansion of alpha/beta")
    p.add_argument("alpha", type=_integer)
    p.add_argument("beta", type=_integer)
    p.add_argument("--positive", action="store_true", help="greedy all-positive expansion")
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("twobridge", help="invariants of the 4-plat for an expansion")
    p.add_argument("cf", help="expansion text, e.g. '[2,4,-1]'")
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_twobridge)

    p = sub.add_parser("plumbing", help="invariants of T(p,q,r) and its boundary sphere")
    p.add_argument("p", type=_integer)
    p.add_argument("q", type=_integer)
    p.add_argument("r", type=_integer)
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_plumbing)

    p = sub.add_parser("montesinos", help="Montesinos knot invariants for T(p,q,r)")
    p.add_argument("p", type=_integer)
    p.add_argument("q", type=_integer)
    p.add_argument("r", type=_integer)
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_montesinos)

    p = sub.add_parser("surgery-check", help="integral-surgery obstruction report")
    p.add_argument("--h", type=_integer, help="|H_1| of the candidate space")
    p.add_argument("--rokhlin", type=_integer, help="Rokhlin invariant (even, mod 16)")
    p.add_argument("--lens", type=_integer, nargs=2, metavar=("P", "Q"), help="lens space test")
    p.add_argument("--det", type=_integer, help="unknotting number one determinant test")
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_surgery_check)

    p = sub.add_parser("genus-bound", help="slice genus a surgery knot would need")
    p.add_argument("--lens", type=_integer, nargs=2, metavar=("ALPHA", "BETA"))
    p.add_argument("--cf", help="expansion for the --lens pair")
    p.add_argument("--h", type=_integer)
    p.add_argument("--rokhlin", type=_integer)
    p.add_argument("--m-lower", type=_fraction, help="certified lower bound for m, e.g. '-3/2'")
    add_modes(p, csv_mode=False)
    p.set_defaults(func=_cmd_genus_bound)

    p = sub.add_parser("table1", help="bounds table for odd |H_1| <= 13")
    add_modes(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("scan", help="sweep lens spaces with odd alpha <= N")
    p.add_argument("--alpha-max", dest="alpha_max", type=_integer, required=True)
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_scan, csv=True)  # CSV is scan's text mode

    return parser


def _to_devnull(stream) -> None:
    """Point the stream's descriptor, when it has one, at the null device:
    else the interpreter's shutdown flush retries the bytes a failed write
    kept, and the process exits 120."""
    with contextlib.suppress(AttributeError, ValueError):  # no descriptor
        fd, null = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def _fail(code: int, message: str) -> int:
    """Print the one failure line on stderr and return the exit code.  A
    missing, closed or failing stderr loses the line, never the code."""
    try:
        sys.stderr.write(message + "\n")  # line-buffered: a failed write raises here
    except (AttributeError, OSError, ValueError):
        _to_devnull(sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for block in _render(args, args.func(args)):
            if sys.stdout is None:
                raise OSError("stdout is closed")
            sys.stdout.write(block)
        sys.stdout.flush()
        return 0
    except UsageError as exc:
        return _fail(1, f"usage error: {exc}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except DomainError as exc:
        return _fail(2, f"domain error: {exc}")
    except AssertionError as exc:
        return _fail(3, f"internal error: invariant failed ({exc})")
    except OSError as exc:
        _to_devnull(sys.stdout)
        return _fail(1, f"output error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
