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

from .arith import _index
from .errors import DomainError


class _RokhlinFields(NamedTuple):
    value: int


class RokhlinClass(_RokhlinFields):
    """Rokhlin invariant in Z/16, stored as the even representative 0..14.
    Takes an integer, or a RokhlinClass (returned unchanged); anything
    else, a bool, a float, a Fraction or a str, is a TypeError."""

    __slots__ = ()

    def __new__(cls, value):
        if isinstance(value, RokhlinClass):
            return value
        v = _index(value) % 16
        if v % 2 != 0:
            raise DomainError("Rokhlin invariant of a Z/2-homology sphere is even")
        return tuple.__new__(cls, (v,))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __neg__(self) -> "RokhlinClass":
        return RokhlinClass(-self.value)


def _on_grid(x, step: int, what: str) -> Fraction:
    """x, an int or a Fraction (anything else is a TypeError), as a
    Fraction, refused unless it is a multiple of 1/step."""
    if type(x) is not Fraction:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError(f"{what} must be an int or a Fraction, not {type(x).__name__}")
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
    corresponding bound.  rokhlin carries the Rokhlin class when known,
    read through RokhlinClass.
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
        if rokhlin is not None:
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


# Every order verdict by kind: each label it gives, with its reason's
# template, read with the bounds b.  Only an annotation gives more than
# one label; the annotated space names its own (lens.ORDER_ANNOTATIONS).
_VERDICTS: dict[str, dict[str, str]] = {
    "m_pos": {"inf": "m >= {b.m_lower} > 0"},
    "mbar_neg": {"inf": "mbar <= {b.mbar_upper} < 0"},
    "exact_rokhlin": {"inf": "{side} = 0 with Rokhlin invariant {b.rokhlin.value} != 0"},
    "positive_cf": {"inf": "all-positive expansion {expansion} certifies infinite order"},
    "annotation": {
        "<=2": "admits an orientation-reversing self-diffeomorphism,"
        " so the class has order at most 2",
        "0": "bounds a Z/2-acyclic 4-manifold, so the class is 0",
    },
    "none": {"?": "no certificate applies"},
}


def _verdict(
    lower, upper, m_exact=None, mbar_exact=None, rokhlin=None, positive=None, annotated=None
) -> str:
    """The kind of the order verdict, read on the quarter counts lower = 4 m_lower and
    upper = 4 mbar_upper, the exact markers and the RokhlinClass: m > 0, mbar < 0, or
    an exact m or mbar of 0 with R != 0 certify infinite order, alike for Y and -Y.
    Past them, positive (called only then) finds an all-positive expansion or None,
    and an annotated space keeps its known order."""
    if lower > 0:
        return "m_pos"
    if upper < 0:
        return "mbar_neg"
    if rokhlin is not None and rokhlin.value != 0 and 0 in (m_exact, mbar_exact):
        return "exact_rokhlin"
    if positive is not None and positive() is not None:
        return "positive_cf"
    return "none" if annotated is None else "annotation"


def _label(kind: str, annotated: str | None = None) -> str:
    """The order label of a verdict; an annotation's is the annotated one."""
    [label] = (annotated,) if kind == "annotation" else _VERDICTS[kind]
    return label


def _reason(kind: str, label: str, b: MBounds, expansion: str | None = None) -> str:
    """The verdict's reason, read with the bounds and the all-positive expansion."""
    side = "m" if b.m_exact == 0 else "mbar"
    return _VERDICTS[kind][label].format(b=b, side=side, expansion=expansion)


def infinite_order_certificate(x: MBounds) -> OrderCertificate:
    """Infinite order when m > 0, or mbar < 0, or m or mbar is exactly 0 with
    R != 0, alike for x and reverse_orientation(x); else 'unknown'."""
    lower, upper = _quarters(x.m_lower), _quarters(x.mbar_upper)
    kind = _verdict(lower, upper, x.m_exact, x.mbar_exact, x.rokhlin)
    label = _label(kind)
    return OrderCertificate("infinite" if label == "inf" else "unknown", _reason(kind, label, x))
