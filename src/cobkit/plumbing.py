"""Star-shaped plumbings T(p, q, r) and their boundary homology spheres.

T(p, q, r) is the tree with a central vertex joined to three chains of
p-1, q-1, and r-1 vertices, every vertex weighted -2.  Its intersection
matrix has rank p+q+r-2, signature 4-p-q-r and determinant of absolute
value |pqr - pq - pr - qr| (the sign depends on the vertex ordering, so
only the absolute value is reported).  tpqr_invariants reports these
closed forms without building the matrix.  When exactly one of p, q, r
is even, 1/p + 1/q + 1/r < 1, and p+q+r <= 22, the boundary is a
Z/2-homology sphere that embeds in the K3 surface with spin complement,
which pins the invariants exactly: m = -(p+q+r)/4 + 1 and mbar = m + 2.
"""

from fractions import Fraction
from typing import NamedTuple

from .arith import _index
from .cobordism import MBounds, RokhlinClass
from .errors import DomainError


class _TripleFields(NamedTuple):
    p: int
    q: int
    r: int


class MpqrTriple(_TripleFields):
    """Parameters of a plumbing sphere with the K3 embedding available.

    Requires p <= q <= r, exactly one even, 1/p + 1/q + 1/r < 1, and
    p + q + r <= 22; all three read with arith._index, so a bool or a
    float is a TypeError.
    """

    __slots__ = ()

    def __new__(cls, p, q, r):
        p, q, r = _index(p), _index(q), _index(r)
        if not (1 <= p <= q <= r):
            raise DomainError("MpqrTriple requires 1 <= p <= q <= r")
        if sum(1 for v in (p, q, r) if v % 2 == 0) != 1:
            raise DomainError("MpqrTriple requires exactly one even parameter")
        if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) >= 1:
            raise DomainError("MpqrTriple requires 1/p + 1/q + 1/r < 1")
        if p + q + r > 22:
            raise DomainError("MpqrTriple requires p + q + r <= 22")
        return tuple.__new__(cls, (p, q, r))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def total(self) -> int:
        return self.p + self.q + self.r


class TpqrInvariants(NamedTuple):
    rank: int
    signature: int
    determinant_abs: int


def tpqr_invariants(t: MpqrTriple) -> TpqrInvariants:
    """Rank p+q+r-2, signature 4-p-q-r (inertia (1, 0, p+q+r-3)) and
    |det| = |pqr - pq - pr - qr|, odd, of the T(p, q, r) matrix.

    These are the closed forms; the tests check them against exact
    elimination on every triple MpqrTriple admits.
    """
    det = t.p * t.q * t.r - t.p * t.q - t.p * t.r - t.q * t.r
    assert det % 2 != 0
    return TpqrInvariants(
        rank=t.total - 2, signature=4 - t.total, determinant_abs=abs(det)
    )


def sigma_pqr_bounds(t: MpqrTriple) -> MBounds:
    """Exact invariants of the plumbing sphere bounded by T(p, q, r).

    The K3 embedding with spin complement gives m = -(p+q+r)/4 + 1,
    mbar = m + 2, and Rokhlin invariant (4 - p - q - r) mod 16.
    """
    total = t.total
    m = -Fraction(total, 4) + 1
    return MBounds(
        m_lower=m,
        mbar_upper=m + 2,
        m_exact=m,
        mbar_exact=m + 2,
        rokhlin=RokhlinClass(4 - total),
        provenance=(
            f"plumbing sphere on T({t.p},{t.q},{t.r})",
            "K3 embedding with spin complement",
        ),
    )


class MontesinosInvariants(NamedTuple):
    slice_genus: int
    unknotting_number: int
    signature: int


def montesinos_invariants(t: MpqrTriple) -> MontesinosInvariants:
    """The Montesinos knot whose branched double cover is the plumbing
    sphere: slice genus = unknotting number = (p+q+r)/2 - 1 and
    signature p+q+r-4."""
    g, rem = divmod(t.total, 2)
    assert rem == 0
    return MontesinosInvariants(
        slice_genus=g - 1,
        unknotting_number=g - 1,
        signature=t.total - 4,
    )
