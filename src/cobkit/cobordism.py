"""Core records for the homology cobordism invariants m and mbar.

For a Z/2-homology 3-sphere, m is the maximum of (5/4) sigma(X) - b2(X)
and mbar the minimum of (5/4) sigma(X) + b2(X) over smooth spin fillings
X.  Both are invariants of the Z/2-homology cobordism class; m <= mbar
with equality only when both vanish together with the Rokhlin invariant;
m is superadditive and mbar subadditive under connected sum, and
orientation reversal swaps them with a sign.  Exact values are multiples
of 1/2, certified bounds multiples of 1/4, and both reduce mod 2 to a
quarter of the Rokhlin invariant.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError


class _RokhlinFields(NamedTuple):
    value: int


class RokhlinClass(_RokhlinFields):
    """Rokhlin invariant in Z/16, stored as the even representative 0..14."""

    __slots__ = ()

    def __new__(cls, value: int):
        v = value % 16
        if v % 2 != 0:
            raise DomainError("Rokhlin invariant of a Z/2-homology sphere is even")
        return tuple.__new__(cls, (v,))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __neg__(self) -> "RokhlinClass":
        return RokhlinClass(-self.value)


def _on_grid(x, step: int, what: str) -> Fraction:
    """x as a Fraction, refused unless it is a multiple of 1/step."""
    if type(x) is not Fraction:
        x = Fraction(x)
    if step % x.denominator != 0:
        raise DomainError(f"{what} must be a multiple of 1/{step}")
    return x


def _quarters(x: Fraction) -> int:
    """4x, an integer for x on the quarter grid."""
    return x.numerator * (4 // x.denominator)


class _MBoundsFields(NamedTuple):
    m_lower: Fraction
    mbar_upper: Fraction
    m_exact: Fraction | None = None
    mbar_exact: Fraction | None = None
    rokhlin: RokhlinClass | None = None
    provenance: tuple[str, ...] = ()


class MBounds(_MBoundsFields):
    """Certified interval m >= m_lower, mbar <= mbar_upper for one class.

    m_exact and mbar_exact are set only for the handful of cases with a
    proved exact value (the T(p,q,r) plumbing spheres and their
    orientation reversals); when present they coincide with the
    corresponding bound.  rokhlin carries the Rokhlin class when known.
    provenance lists, in order, the certificates the numbers came from.
    """

    __slots__ = ()

    def __new__(
        cls,
        m_lower,
        mbar_upper,
        m_exact=None,
        mbar_exact=None,
        rokhlin=None,
        provenance=(),
    ):
        m_lower = _on_grid(m_lower, 4, "m_lower")
        mbar_upper = _on_grid(mbar_upper, 4, "mbar_upper")
        if m_exact is not None:
            m_exact = _on_grid(m_exact, 2, "m_exact")
        if mbar_exact is not None:
            mbar_exact = _on_grid(mbar_exact, 2, "mbar_exact")
        if isinstance(rokhlin, int):
            rokhlin = RokhlinClass(rokhlin)
        provenance = tuple(provenance)
        # every rule below compares quarter counts: 4x is an integer
        lower, upper = _quarters(m_lower), _quarters(mbar_upper)
        if lower > upper:
            raise DomainError("m_lower must not exceed mbar_upper")
        m4 = None if m_exact is None else _quarters(m_exact)
        mbar4 = None if mbar_exact is None else _quarters(mbar_exact)
        if m4 is not None and m4 != lower:
            raise DomainError("an exact m must coincide with m_lower")
        if mbar4 is not None and mbar4 != upper:
            raise DomainError("an exact mbar must coincide with mbar_upper")
        if m4 is not None and mbar4 is not None:
            diff = mbar4 - m4
            if diff % 8 != 0:
                raise DomainError("mbar - m must be an even integer when both exact")
            if diff == 0 and m4 != 0:
                raise DomainError("m = mbar forces both to vanish")
            if diff == 0 and rokhlin is not None and rokhlin.value != 0:
                raise DomainError("m = mbar forces a vanishing Rokhlin invariant")
        if rokhlin is not None:
            for exact in (m4, mbar4):
                if exact is not None and (exact - rokhlin.value) % 8 != 0:
                    raise DomainError(
                        "exact values must equal rokhlin/4 modulo 2"
                    )
        return tuple.__new__(
            cls, (m_lower, mbar_upper, m_exact, mbar_exact, rokhlin, provenance)
        )

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def to_json_dict(self) -> dict:
        return {
            "m_lower": str(self.m_lower),
            "mbar_upper": str(self.mbar_upper),
            "m_exact": None if self.m_exact is None else str(self.m_exact),
            "mbar_exact": None if self.mbar_exact is None else str(self.mbar_exact),
            "rokhlin": None if self.rokhlin is None else self.rokhlin.value,
            "provenance": list(self.provenance),
        }


def merge_bounds(x: MBounds, y: MBounds) -> MBounds:
    """Intersect two certified intervals for the same class.

    Takes the larger lower and smaller upper bound; exact markers are
    not propagated.  Conflicting Rokhlin classes or an empty
    intersection mean the records do not describe the same class.
    """
    if x.rokhlin is not None and y.rokhlin is not None and x.rokhlin != y.rokhlin:
        raise DomainError("merge_bounds requires matching Rokhlin classes")
    lower = max(x.m_lower, y.m_lower)
    upper = min(x.mbar_upper, y.mbar_upper)
    if lower > upper:
        raise DomainError("merge_bounds got incompatible intervals")
    return MBounds(
        m_lower=lower,
        mbar_upper=upper,
        rokhlin=x.rokhlin if x.rokhlin is not None else y.rokhlin,
        provenance=x.provenance + y.provenance,
    )


def reverse_orientation(x: MBounds) -> MBounds:
    """m(-Y) = -mbar(Y), mbar(-Y) = -m(Y), R(-Y) = -R(Y)."""
    return MBounds(
        m_lower=-x.mbar_upper,
        mbar_upper=-x.m_lower,
        m_exact=None if x.mbar_exact is None else -x.mbar_exact,
        mbar_exact=None if x.m_exact is None else -x.m_exact,
        rokhlin=None if x.rokhlin is None else -x.rokhlin,
        provenance=x.provenance + ("orientation reversed",),
    )


class OrderCertificate(NamedTuple):
    """Verdict 'infinite' or 'unknown' with the reason that decided it."""

    verdict: str
    reason: str


def _bounds_certify(lower: int, upper: int) -> bool:
    """Whether the interval certifies infinite order, m > 0 or mbar < 0,
    read on the quarter counts lower = 4 m_lower and upper = 4 mbar_upper."""
    return lower > 0 or upper < 0


def infinite_order_certificate(x: MBounds) -> OrderCertificate:
    """Infinite order in the homology cobordism group when m > 0, or
    mbar < 0, or m = 0 with nonzero Rokhlin invariant."""
    lower, upper = _quarters(x.m_lower), _quarters(x.mbar_upper)
    if _bounds_certify(lower, upper):
        reason = f"m >= {x.m_lower} > 0" if lower > 0 else f"mbar <= {x.mbar_upper} < 0"
        return OrderCertificate("infinite", reason)
    if (
        x.m_exact == 0
        and x.rokhlin is not None
        and x.rokhlin.value != 0
    ):
        return OrderCertificate(
            "infinite", f"m = 0 with Rokhlin invariant {x.rokhlin.value} != 0"
        )
    return OrderCertificate("unknown", "no certificate applies")


def _cover_quarters(sigma_knot: int, genus_upper: int) -> tuple[int, int]:
    """(4 m_lower, 4 mbar_upper) = (5 sigma(K) - 8g, 5 sigma(K) + 8g) for
    the branched double cover of a knot, refused unless g >= 0, sigma(K)
    is even and the interval is not empty."""
    if genus_upper < 0:
        raise DomainError("branched_cover_bounds requires genus_upper >= 0")
    if sigma_knot % 2 != 0:
        raise DomainError("knot signatures are even")
    lower, upper = 5 * sigma_knot - 8 * genus_upper, 5 * sigma_knot + 8 * genus_upper
    if lower > upper:
        raise DomainError("m_lower must not exceed mbar_upper")
    return lower, upper


def branched_cover_bounds(
    sigma_knot: int, genus_upper: int, provenance: tuple[str, ...] = ()
) -> MBounds:
    """Bounds for the branched double cover of a knot.

    (5/4) sigma(K) - 2g <= m <= mbar <= (5/4) sigma(K) + 2g for any g
    at least the smooth slice genus, and the Rokhlin invariant is
    sigma(K) mod 16.  provenance lines, if given, precede the cover's own.
    """
    lower, upper = _cover_quarters(sigma_knot, genus_upper)
    return MBounds(
        m_lower=Fraction(lower, 4),
        mbar_upper=Fraction(upper, 4),
        rokhlin=RokhlinClass(sigma_knot),
        provenance=tuple(provenance)
        + (
            f"branched double cover (sigma(K)={sigma_knot}, slice genus <= {genus_upper})",
        ),
    )
