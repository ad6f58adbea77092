"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed, so one seed always gives
the same argv lists.  The program under test only ever sees these argv
lists; it never sees the seed.
"""

import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple

SCAN_ALPHA_MAX = 399
# Coprime pairs (alpha, beta) with alpha odd in 3..399 and beta odd below it.
SCAN_ROWS = 16182
# One scan op is the census sweep in CSV, then the same sweep in JSON.
SCAN_ARGVS = (
    ["scan", "--alpha-max", str(SCAN_ALPHA_MAX)],
    ["scan", "--alpha-max", str(SCAN_ALPHA_MAX), "--json"],
)
SCAN_WARMUP = ["scan", "--alpha-max", "39"]

QUERY_WARMUP = ["lens", "39", "17", "--json"]
# Ops drawn per seed; the loop wraps round only if a run completes more.
QUERY_OPS = 12000
# Ops of each kind in every 14 ops.  No usage data exists, so this is a
# coverage mix with one rule: each of the seven verbs gets an equal share
# (2 of 14), and cf and surgery-check split theirs between their two forms.
QUERY_MIX = (
    ("lens", 2),
    ("cf", 1),
    ("cf --positive", 1),
    ("twobridge", 2),
    ("genus-bound", 2),
    ("surgery-check --lens", 1),
    ("surgery-check --det", 1),
    ("plumbing", 2),
    ("montesinos", 2),
)
LENS_MAX_DIGITS = 100
# is_square_mod refuses moduli above 10**6, so P and D stay at or below it.
MODULUS_MAX = 10**6

# The README example of every verb but scan; montesinos has none there,
# so it gets the T(2,3,7) triple the plumbing example uses.
COLD_EXAMPLES = (
    ["lens", "39", "17"],
    ["table1", "--csv"],
    ["cf", "21", "17", "--positive"],
    ["twobridge", "[2,4,-1]"],
    ["plumbing", "2", "3", "7", "--json"],
    ["montesinos", "2", "3", "7"],
    ["surgery-check", "--h", "21", "--rokhlin", "8"],
    ["genus-bound", "--lens", "39", "17"],
)
COLD_WARMUP = ["lens", "39", "17"]


class Query(NamedTuple):
    """One generated CLI call: its kind, its argv, and what the oracle
    needs to know about it (the pair or the term list it was built from)."""

    kind: str
    argv: list[str]
    pair: tuple[int, int] | None = None
    terms: list[int] | None = None
    modulus: int | None = None


def fold(terms) -> tuple[int, int] | None:
    """Integer convergent fold of [t1, ..., tm] to (p, q) with q > 0, or
    None when an intermediate denominator is zero."""
    p, q = terms[-1], 1
    for t in reversed(terms[:-1]):
        if p == 0:
            return None
        p, q = t * p + q, p
    if q == 0:
        return None
    return (p, q) if q > 0 else (-p, -q)


class _Deck:
    """Seeded draws without replacement: each pass over `values` is a
    fresh shuffle, so every len(values) draws hold each value once."""

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.left = rng, list(values), []

    def draw(self):
        if not self.left:
            self.left = self.values[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def _digits_number(rng: random.Random, digits: int) -> int:
    return rng.randrange(10 ** (digits - 1), 10**digits)


def _coprime_below(rng: random.Random, a: int, odd: bool) -> int:
    while True:
        b = rng.randrange(1, a)
        if gcd(a, b) == 1 and (b % 2 == 1 or not odd):
            return b


# A modulus is dealt a slot, (bit length, quarter of that length's range),
# so the large moduli that make the slowest queries recur evenly per run.
MODULUS_SLOTS = [(bits, quarter) for bits in range(2, MODULUS_MAX.bit_length() + 1)
                 for quarter in range(4)]


def _odd_in_slot(rng: random.Random, slot: tuple[int, int]) -> int:
    """Odd integer in the given slot, at most 10**6 (integers only)."""
    bits, quarter = slot
    lo, hi = 1 << (bits - 1), min(1 << bits, MODULUS_MAX)
    width = hi - lo
    return lo + (width * quarter + rng.randrange(width)) // 4 | 1


def admissible_terms(rng: random.Random) -> list[int]:
    """A random admissible term list [a1, 2b1, ..., an] of S(alpha, beta)."""
    while True:
        n = rng.randint(1, 6)
        terms = []
        for _ in range(n - 1):
            sign = rng.choice((1, -1))
            terms += [sign * rng.randint(1, 9), 2 * sign * rng.randint(1, 5)]
        terms.append(rng.choice((1, -1)) * rng.randint(1, 9))
        value = fold(terms)
        if value is None:
            continue
        p, q = value
        if 0 < q < p and q % 2 == 1 or (p, q) == (1, 1):
            return terms


def plumbing_triples() -> list[tuple[int, int, int]]:
    """Every (p, q, r) the plumbing and montesinos verbs accept."""
    out = []
    for p in range(2, 21):
        for q in range(p, 21):
            for r in range(q, 23 - p - q):
                if sum(v % 2 == 0 for v in (p, q, r)) != 1:
                    continue
                if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) < 1:
                    out.append((p, q, r))
    return out


def queries(seed: int) -> list[Query]:
    """The seeded query stream: QUERY_OPS single-verb CLI calls.

    Kinds, digit counts, modulus slots and triples are drawn from decks, so
    every 14 ops hold the exact mix, every 100 lens (or cf) queries one
    of each digit count, and so on: runs of different seeds meet the
    same spread of costs and differ only in the values drawn."""
    rng = random.Random(seed)
    kinds = _Deck(rng, [k for k, w in QUERY_MIX for _ in range(w)])
    digits = {
        k: _Deck(rng, range(1, LENS_MAX_DIGITS + 1)) for k in ("lens", "cf", "cf --positive")
    }
    slots = {k: _Deck(rng, MODULUS_SLOTS) for k in ("surgery-check --lens", "surgery-check --det")}
    triples = _Deck(rng, plumbing_triples())
    out = []
    for _ in range(QUERY_OPS):
        kind = kinds.draw()
        if kind == "lens":
            a = max(_digits_number(rng, digits[kind].draw()) | 1, 3)
            b = _coprime_below(rng, a, odd=False)
            out.append(Query(kind, ["lens", str(a), str(b), "--json"], pair=(a, b)))
        elif kind.startswith("cf"):
            positive = kind == "cf --positive"
            a = max(_digits_number(rng, digits[kind].draw()), 2)
            if positive:
                a = max(a | 1, 3)
            b = _coprime_below(rng, a, odd=True)
            argv = ["cf", str(a), str(b)] + (["--positive"] if positive else [])
            out.append(Query(kind, argv, pair=(a, b)))
        elif kind == "twobridge":
            terms = admissible_terms(rng)
            text = "[" + ",".join(map(str, terms)) + "]"
            out.append(Query(kind, ["twobridge", text], terms=terms))
        elif kind == "genus-bound":
            # Valid input: R != 4 mod 8 and h - 1 = -R mod 8.
            r = rng.choice((0, 2, 6, 8, 10, 14))
            h = 8 * rng.randrange(0, 10**4) + (1 - r) % 8
            m = Fraction(rng.randint(-400, 400), 4)
            argv = ["genus-bound", "--h", str(h), "--rokhlin", str(r), f"--m-lower={m}"]
            out.append(Query(kind, argv))
        elif kind == "surgery-check --lens":
            p = _odd_in_slot(rng, slots[kind].draw())
            q = _coprime_below(rng, p, odd=False)
            argv = ["surgery-check", "--lens", str(p), str(q)]
            out.append(Query(kind, argv, modulus=p))
        elif kind == "surgery-check --det":
            d = _odd_in_slot(rng, slots[kind].draw())
            out.append(Query(kind, ["surgery-check", "--det", str(d)], modulus=d))
        else:
            p, q, r = triples.draw()
            argv = [kind, str(p), str(q), str(r)]
            if kind == "plumbing" and rng.random() < 0.5:
                argv.append("--json")
            out.append(Query(kind, argv))
    return out


def cold_order(seed: int) -> list[list[str]]:
    """The README examples in the order this seed cycles through them."""
    order = list(COLD_EXAMPLES)
    random.Random(seed).shuffle(order)
    return order
