"""Lens space invariants through two-bridge branched covers.

L(alpha, beta) with alpha odd is the branched double cover of the
two-bridge knot S(alpha, beta), so any admissible expansion of
alpha/beta yields certified bounds on m and mbar and the exact Rokhlin
invariant sigma(S(alpha, beta)) mod 16.  For even beta the mirror
L(alpha, alpha - beta) is computed and the orientation reversed.
One kernel, _lens_row, goes from a pair to its row in integers, with
the expansion's printed text and the order label of the one verdict
function, cobordism._verdict: census yields its rows, and m_bounds and
classify_order wrap a row in the records and the provenance.  With no
expansion supplied, the row reads one forced walk of the pair, which
makes the terms, their tally and every check in a single pass.  What
comes after the walk depends only on the tally, the sign of the last
a-term, the reversal and the annotation, so census gives the kernel a
memo of its own and computes it once per distinct key in the sweep.
Orientation convention: L(alpha, beta) is -alpha/beta surgery on the
unknot.
"""

from collections.abc import Iterator
from fractions import Fraction
from functools import cache, partial
from math import gcd
from typing import NamedTuple

from .cobordism import MBounds, _cover_line, _cover_quarters, _label, _reason, _verdict
from .contfrac import (
    AdmissibleCF,
    _format_terms,
    _walk,
    admissible_cf,
    find_admissible_cf,
    find_positive_cf,
    format_cf,
)
from .errors import DomainError
from .twobridge import _tally, _tally_invariants


class _LensFields(NamedTuple):
    alpha: int
    beta: int


class LensSpace(_LensFields):
    """L(alpha, beta), alpha odd, 0 < beta < alpha coprime."""

    __slots__ = ()

    def __init__(self, alpha, beta):
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


def _lens_row(
    alpha: int, beta: int, cf=None, positive=None, memo: dict | None = None
) -> tuple[CensusRow, str]:
    """The row of L(alpha, beta), alpha odd and beta coprime to it, and
    its verdict's kind: the branched double cover bounds of the odd-beta
    representative, reversed for even beta, labelled by _verdict with
    ORDER_ANNOTATIONS and classify_order's all-positive search, positive.
    With no cf, one forced walk of the representative gives the tally,
    the last a-term and the text; a supplied cf, an AdmissibleCF of the
    representative (_supplied checks a user's), gives them from its record.

    Past the walk, the bounds, the Rokhlin value, the label and the kind
    depend only on the key (tally, a_n > 0, reversed, annotation).  A
    sweep passes its own memo, a dict from key to those fields, and they
    are computed once per distinct key; a call with a positive search
    never reads or fills it."""
    odd = _odd_beta(alpha, beta)
    if cf is None:
        terms, tally = _walk(alpha, odd)
    else:
        terms, tally = cf.terms, _tally(cf.a)
    last = terms[-1]
    annotated = ORDER_ANNOTATIONS.get((alpha, beta))
    if memo is None or positive is not None:
        fields = _row_fields(tally, last, odd != beta, annotated, positive)
    else:
        key = (tally, last > 0, odd != beta, annotated)
        fields = memo.get(key)
        if fields is None:
            fields = memo[key] = _row_fields(tally, last, odd != beta, annotated)
    lower, upper, rokhlin, label, kind = fields
    text = _format_terms(terms)
    return tuple.__new__(CensusRow, (alpha, beta, lower, upper, rokhlin, text, label)), kind


def _row_fields(tally, last: int, reversed_mirror: bool, annotated, positive=None):
    """(lower, upper, rokhlin, label, kind) of a row from its tally, its
    last a-term, whether beta was reversed to the odd representative and
    its annotation: _tally_invariants with every check, the cover's
    quarter counts, and the verdict."""
    sigma, genus = _tally_invariants(tally, last)[:2]
    lower, upper = _cover_quarters(sigma, genus)
    if reversed_mirror:  # m(-Y) = -mbar(Y), mbar(-Y) = -m(Y), R(-Y) = -R(Y)
        lower, upper, sigma = -upper, -lower, -sigma
    kind = _verdict(lower, upper, positive=positive, annotated=annotated)
    return lower, upper, sigma % 16, _label(kind, annotated), kind


def _supplied(space: LensSpace, cf: AdmissibleCF | None) -> AdmissibleCF | None:
    """A caller's expansion for L(alpha, beta), refused unless it expands
    alpha/beta itself with beta odd; None passes."""
    if cf is not None:
        if space.beta % 2 == 0:
            raise DomainError(
                "supply the expansion for the odd-beta mirror L(alpha, alpha - beta)"
            )
        if (cf.alpha, cf.beta) != space:
            raise DomainError(
                f"expansion targets {cf.alpha}/{cf.beta}, not {space.alpha}/{space.beta}"
            )
    return cf


def _row_bounds(row: CensusRow) -> MBounds:
    """The row's interval as an MBounds with the provenance of its cover.
    sigma(K) and g are read back from the quarter counts 5 sigma(K) -+ 8g,
    which _lens_row negated for even beta."""
    alpha, beta, lower, upper, rokhlin, cf = row[:6]
    odd = _odd_beta(alpha, beta)
    reversed_mirror = odd != beta
    trail = (
        f"L({alpha},{odd}) branched over S({alpha},{odd})",
        f"expansion {cf}",
        _cover_line((lower + upper) // (-10 if reversed_mirror else 10), (upper - lower) // 16),
    )
    if reversed_mirror:
        trail = (f"L({alpha},{beta}) as reversed mirror", *trail, "orientation reversed")
    return MBounds(Fraction(lower, 4), Fraction(upper, 4), rokhlin=rokhlin, provenance=trail)


def m_bounds(space: LensSpace, cf: AdmissibleCF | None = None) -> MBounds:
    """Certified m and mbar bounds and the Rokhlin class of L(alpha, beta).

    An admissible expansion of alpha/beta (found automatically when not
    supplied) presents the two-bridge cover; the branched double cover
    bounds with its signature and slice genus bound give the interval.
    """
    return _row_bounds(_lens_row(space.alpha, space.beta, _supplied(space, cf))[0])


def classify_order(space: LensSpace, cf: AdmissibleCF | None = None) -> OrderReport:
    """Classify the order of [L(alpha, beta)]: infinite if the bound
    certificate fires or an all-positive expansion exists, otherwise an
    annotated known order, otherwise unknown.

    The bounds, the verdict and the label come from the row that m_bounds
    and census read, here from the record of the expansion; this adds
    the verdict's reason.  An all-positive expansion is the forced one,
    and for it sigma = sum(a) - 1 and g <= (sum(a) - 1)/2, so
    m >= (sum(a) - 1)/4 > 0 (mbar < 0 for even beta): the certificate has
    fired.  So only a supplied cf, of alpha/beta itself, whose bounds
    certify nothing, has find_positive_cf run, once.
    """
    alpha, beta = space
    found = _supplied(space, cf)
    if found is None:
        found = find_admissible_cf(alpha, _odd_beta(alpha, beta))
    positive = None if cf is None else cache(partial(find_positive_cf, cf.alpha, cf.beta))
    row, kind = _lens_row(alpha, beta, found, positive)
    bounds = _row_bounds(row)
    text = format_cf(positive()) if kind == "positive_cf" else None
    return OrderReport(space, bounds, kind, _reason(kind, row.order, bounds, text), found, row)


def census(alpha_max: int) -> Iterator[CensusRow]:
    """The _lens_row of every L(alpha, beta) with odd alpha <= alpha_max
    and beta odd and coprime, in (alpha, beta) order: what
    classify_order(LensSpace(alpha, beta)).row reports, without the
    records and provenance no row prints.  Every row makes its own walk
    and text; the sweep's own memo gives the fields past the walk once
    per distinct key, 1,077 of them for the 16,182 rows at
    alpha_max = 399.  Nothing outlives the sweep.  The rows keep the
    quarter counts, which the printers turn into text once per distinct
    value.
    """
    memo: dict = {}
    for alpha in range(3, alpha_max + 1, 2):
        for beta in range(1, alpha, 2):
            if gcd(alpha, beta) == 1:
                yield _lens_row(alpha, beta, memo=memo)[0]


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


def family(name: str, parameter: int) -> tuple[LensSpace, AdmissibleCF]:
    """The named series with a closed-form expansion: '16k+7' is
    L(16k+7, 7k+3) with expansion [2, 4, -1, -2, 1, k, -1] for even
    k >= 2; signature 2, so the Rokhlin invariant is 2.
    """
    if parameter < 1:
        raise DomainError("family requires a positive parameter")
    if name != "16k+7":
        raise DomainError("family name must be '16k+7'")
    k = parameter
    if k % 2 != 0:
        raise DomainError("family '16k+7' requires even k")
    cf = admissible_cf((2, -1, 1, -1), (2, -1, k // 2))
    space = LensSpace(16 * k + 7, 7 * k + 3)
    assert (cf.alpha, cf.beta) == (space.alpha, space.beta)
    return space, cf
