"""Lens space invariants through two-bridge branched covers.

L(alpha, beta) with alpha odd is the branched double cover of the
two-bridge knot S(alpha, beta), so any admissible expansion of
alpha/beta yields certified bounds on m and mbar and the exact Rokhlin
invariant sigma(S(alpha, beta)) mod 16.  For even beta the mirror
L(alpha, alpha - beta) is computed and the orientation reversed.
Orientation convention: L(alpha, beta) is -alpha/beta surgery on the
unknot.
"""

from collections.abc import Iterator
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cobordism import (
    MBounds,
    OrderCertificate,
    _bounds_certify,
    _cover_quarters,
    branched_cover_bounds,
    infinite_order_certificate,
    reverse_orientation,
)
from .contfrac import (
    AdmissibleCF,
    admissible_cf,
    find_admissible_cf,
    find_positive_cf,
    format_cf,
)
from .errors import DomainError
from .twobridge import _knot_invariants


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


def mirror(space: LensSpace) -> LensSpace:
    """L(alpha, alpha - beta), the orientation reversal of L(alpha, beta)."""
    return LensSpace(space.alpha, space.alpha - space.beta)


def _cover_bounds(
    space: LensSpace, cf: AdmissibleCF | None
) -> tuple[MBounds, AdmissibleCF]:
    """m_bounds together with the odd-beta expansion it was computed from."""
    reversed_mirror = space.beta % 2 == 0
    odd = mirror(space) if reversed_mirror else space
    if cf is None:
        cf = find_admissible_cf(odd.alpha, odd.beta)
    elif reversed_mirror:
        raise DomainError(
            "supply the expansion for the odd-beta mirror L(alpha, alpha - beta)"
        )
    elif (cf.alpha, cf.beta) != (space.alpha, space.beta):
        raise DomainError(
            f"expansion targets {cf.alpha}/{cf.beta}, not {space.alpha}/{space.beta}"
        )
    head = (
        (f"L({space.alpha},{space.beta}) as reversed mirror",) if reversed_mirror else ()
    )
    sigma, genus = _knot_invariants(cf)[:2]
    bounds = branched_cover_bounds(
        sigma,
        genus,
        provenance=head
        + (
            f"L({odd.alpha},{odd.beta}) branched over S({odd.alpha},{odd.beta})",
            f"expansion {format_cf(cf)}",
        ),
    )
    return (reverse_orientation(bounds) if reversed_mirror else bounds), cf


def m_bounds(space: LensSpace, cf: AdmissibleCF | None = None) -> MBounds:
    """Certified m and mbar bounds and the Rokhlin class of L(alpha, beta).

    An admissible expansion of alpha/beta (found automatically when not
    supplied) presents the two-bridge cover; the branched double cover
    bounds with its signature and slice genus bound give the interval.
    """
    return _cover_bounds(space, cf)[0]


# Known order facts that the certificates here cannot derive.  Values
# are (order label, reason); they are reported verbatim, never computed.
ORDER_ANNOTATIONS: dict[tuple[int, int], tuple[str, str]] = {
    (5, 3): (
        "<=2",
        "admits an orientation-reversing self-diffeomorphism, so the class has order at most 2",
    ),
    (13, 5): (
        "<=2",
        "admits an orientation-reversing self-diffeomorphism, so the class has order at most 2",
    ),
    (9, 5): (
        "0",
        "bounds a Z/2-acyclic 4-manifold, so the class is 0",
    ),
}


class CensusRow(NamedTuple):
    """What a census or table line prints for L(alpha, beta): the
    certified interval, the Rokhlin value, the expansion the bounds came
    from (of the odd-beta representative) and the order label."""

    alpha: int
    beta: int
    m_lower: Fraction
    mbar_upper: Fraction
    rokhlin: int
    cf: AdmissibleCF
    order: str


class OrderReport(NamedTuple):
    """Order classification of [L] in the homology cobordism group.

    order is 'inf', an annotated label like '<=2' or '0', or '?'.  cf is
    the expansion the bounds came from: of alpha/beta, or of the
    odd-beta mirror alpha/(alpha - beta) when beta is even.  reason is
    the annotation when there is one, otherwise the certificate's reason.
    """

    space: LensSpace
    order: str
    bounds: MBounds
    certificate: OrderCertificate
    annotation: str | None
    cf: AdmissibleCF

    @property
    def reason(self) -> str:
        return self.certificate.reason if self.annotation is None else self.annotation

    @property
    def row(self) -> CensusRow:
        """This report as the census prints it."""
        b = self.bounds
        return CensusRow(
            self.space.alpha,
            self.space.beta,
            b.m_lower,
            b.mbar_upper,
            b.rokhlin.value,
            self.cf,
            self.order,
        )


def classify_order(space: LensSpace, cf: AdmissibleCF | None = None) -> OrderReport:
    """Classify the order of [L(alpha, beta)]: infinite if the bound
    certificate fires or an all-positive expansion exists, otherwise an
    annotated known order, otherwise unknown.

    An all-positive expansion is the forced one, and for it
    sigma = sum(a) - 1 and g <= (sum(a) - 1)/2, so m >= (sum(a) - 1)/4 > 0
    (mbar < 0 after reversal for even beta): the certificate has fired.
    So find_positive_cf runs only on a supplied cf, which is of
    alpha/beta itself, whose certificate did not fire.
    """
    bounds, used = _cover_bounds(space, cf)
    cert = infinite_order_certificate(bounds)
    if cert.verdict == "unknown" and cf is not None:
        positive = find_positive_cf(cf.alpha, cf.beta)
        if positive is not None:
            cert = OrderCertificate(
                "infinite",
                f"all-positive expansion {format_cf(positive)} certifies infinite order",
            )
    if cert.verdict == "infinite":
        return OrderReport(space, "inf", bounds, cert, None, used)
    label, note = ORDER_ANNOTATIONS.get((space.alpha, space.beta), ("?", None))
    return OrderReport(space, label, bounds, cert, note, used)


class _Quarters(dict):
    """Fraction(n, 4) by n, built on the first lookup of each n."""

    def __missing__(self, n: int) -> Fraction:
        self[n] = x = Fraction(n, 4)
        return x


def census(alpha_max: int) -> Iterator[CensusRow]:
    """Rows of every L(alpha, beta) with odd alpha <= alpha_max and beta
    odd and coprime, in (alpha, beta) order.

    Each row is what classify_order(LensSpace(alpha, beta)) reports,
    reached by the same checked expansion and the same bound and verdict
    rules on quarter counts, without the records and provenance no row
    prints.  With beta odd there is no mirror to take, and with no
    supplied expansion no all-positive one to look for.
    """
    quarters = _Quarters()  # one Fraction per distinct value, this sweep only
    for alpha in range(3, alpha_max + 1, 2):
        for beta in range(1, alpha, 2):
            if gcd(alpha, beta) != 1:
                continue
            cf = find_admissible_cf(alpha, beta)
            sigma, genus = _knot_invariants(cf)[:2]
            lower, upper = _cover_quarters(sigma, genus)
            if _bounds_certify(lower, upper):
                order = "inf"
            else:
                order = ORDER_ANNOTATIONS.get((alpha, beta), ("?",))[0]
            yield CensusRow(
                alpha, beta, quarters[lower], quarters[upper], sigma % 16, cf, order
            )


# Fixed presentations for every lens space with odd |H_1| <= 13 (beta
# odd, one per mirror pair).  table1 checks each one when it builds it.
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
    rows = []
    for alpha, beta, a, b in _TABLE_CFS:
        cf = admissible_cf(a, b)
        assert (cf.alpha, cf.beta) == (alpha, beta)
        rows.append(classify_order(LensSpace(alpha, beta), cf))
    return tuple(rows)


def family(name: str, parameter: int) -> tuple[LensSpace, AdmissibleCF]:
    """Named infinite families with closed-form expansions.

    '10n+1': L(10n+1, 8n+1) with expansion [1, 4, 2n], n >= 1; all
    positive, so every member has infinite order.
    '16k+7': L(16k+7, 7k+3) with expansion [2, 4, -1, -2, 1, k, -1]
    for even k >= 2; signature 2, so the Rokhlin invariant is 2.
    """
    if parameter < 1:
        raise DomainError("family requires a positive parameter")
    if name == "10n+1":
        n = parameter
        cf = admissible_cf((1, 2 * n), (2,))
        space = LensSpace(10 * n + 1, 8 * n + 1)
    elif name == "16k+7":
        k = parameter
        if k % 2 != 0:
            raise DomainError("family '16k+7' requires even k")
        cf = admissible_cf((2, -1, 1, -1), (2, -1, k // 2))
        space = LensSpace(16 * k + 7, 7 * k + 3)
    else:
        raise DomainError("family name must be '10n+1' or '16k+7'")
    assert (cf.alpha, cf.beta) == (space.alpha, space.beta)
    return space, cf
