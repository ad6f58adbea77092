"""Output checks: recorded goldens plus an independent oracle.

Goldens hold, per op, the exit code and a digest of stdout as recorded at
the commit that defined the benchmark.  The oracle needs no recording: it
re-folds every expansion that lens, cf, twobridge and scan print with an
integer convergent fold and requires the value the op asked about, so a
seed without goldens is still checked.
"""

import csv
import hashlib
import io
import json
import re
from pathlib import Path

from inputs import SCAN_ROWS, fold

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
DIGEST_CHARS = 8

_CF_LINE = re.compile(r"(\d+)/(\d+) = (\[[-0-9,]+\])")
_NO_POSITIVE = re.compile(r"(\d+)/(\d+): no greedy all-positive expansion")
_PLAT_LINE = re.compile(r"S\((\d+),(\d+)\) = (\[[-0-9,]+\]) \((knot|link)\)")


def digest(code: int, stdout: str) -> str:
    """Short digest of an op's exit code and stdout."""
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:DIGEST_CHARS]


def load_goldens(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def query_goldens(seed: int) -> str:
    """Concatenated per-op digests recorded for this seed, or ''."""
    return load_goldens("queries")["seeds"].get(str(seed), "")


def _terms(text: str) -> list[int]:
    return [int(t) for t in text[1:-1].split(",")]


def _odd_pair(a: int, b: int) -> tuple[int, int]:
    """The pair whose expansion lens prints: the odd-beta mirror for even b."""
    return (a, b) if b % 2 == 1 else (a, a - b)


def check_fold(cf_text: str, pair: tuple[int, int]) -> str | None:
    if fold(_terms(cf_text)) != pair:
        return f"expansion {cf_text} does not fold to {pair[0]}/{pair[1]}"
    return None


def oracle_query(q, stdout: str) -> str | None:
    """Independent check of one query's output; None when it holds."""
    if q.kind == "lens":
        doc = json.loads(stdout)
        if (doc["alpha"], doc["beta"]) != q.pair:
            return "lens echoed another pair"
        return check_fold(doc["cf"], _odd_pair(*q.pair))
    if q.kind.startswith("cf"):
        line = stdout.rstrip("\n")
        if q.kind == "cf --positive":
            m = _NO_POSITIVE.fullmatch(line)
            if m is not None:
                return None if (int(m[1]), int(m[2])) == q.pair else "cf echoed another pair"
        m = _CF_LINE.fullmatch(line)
        if m is None or (int(m[1]), int(m[2])) != q.pair:
            return "cf output not recognised"
        if q.kind == "cf --positive" and any(t <= 0 for t in _terms(m[3])):
            return "positive expansion has a non-positive term"
        return check_fold(m[3], q.pair)
    if q.kind == "twobridge":
        m = _PLAT_LINE.match(stdout)
        if m is None or _terms(m[3]) != q.terms:
            return "twobridge output not recognised"
        return check_fold(m[3], (int(m[1]), int(m[2])))
    return None


def oracle_scan(stdout: str, as_json: bool) -> str | None:
    """Every scan row folds back to its own alpha/beta, and no row is missing."""
    if as_json:
        rows = [(r["alpha"], r["beta"], r["cf"]) for r in json.loads(stdout)["rows"]]
    else:
        reader = csv.reader(io.StringIO(stdout))
        next(reader)
        rows = [(int(r[0]), int(r[1]), r[4]) for r in reader]
    if len(rows) != SCAN_ROWS:
        return f"scan emitted {len(rows)} rows, not {SCAN_ROWS}"
    for alpha, beta, cf_text in rows:
        why = check_fold(cf_text, (alpha, beta))
        if why is not None:
            return why
    return None
