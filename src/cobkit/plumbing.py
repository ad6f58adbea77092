"""Star-shaped plumbings T(p, q, r) and their boundary homology spheres.

T(p, q, r) is the tree with a central vertex joined to three chains of
p-1, q-1, and r-1 vertices, every vertex weighted -2.  Its intersection
matrix has rank p+q+r-2 and determinant of absolute value
|pqr - pq - pr - qr| (the sign depends on the vertex ordering, so only
the absolute value is reported).  When exactly one of p, q, r is even,
1/p + 1/q + 1/r < 1, and p+q+r <= 22, the boundary is a Z/2-homology
sphere that embeds in the K3 surface with spin complement, which pins
the invariants exactly: m = -(p+q+r)/4 + 1 and mbar = m + 2.
"""

from dataclasses import dataclass
from fractions import Fraction

from .cobordism import MBounds, RokhlinClass
from .errors import DomainError


@dataclass(frozen=True)
class StarPlumbing:
    """The plumbing tree T(p, q, r), all weights -2.

    Vertex order: first chain leaf-to-center, second chain, third chain,
    central vertex last.
    """

    p: int
    q: int
    r: int

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 1:
            raise DomainError("StarPlumbing requires p, q, r >= 1")

    @property
    def size(self) -> int:
        return self.p + self.q + self.r - 2

    def matrix(self) -> list[list[int]]:
        n = self.size
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = -2
        center = n - 1
        start = 0
        for arm in (self.p - 1, self.q - 1, self.r - 1):
            for k in range(arm):
                if k + 1 < arm:
                    m[start + k][start + k + 1] = 1
                    m[start + k + 1][start + k] = 1
                else:
                    m[start + k][center] = 1
                    m[center][start + k] = 1
            start += arm
        return m


def _check_symmetric(mat) -> list[list[Fraction]]:
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    for row in m:
        if len(row) != n:
            raise DomainError("inertia requires a square matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise DomainError("inertia requires a symmetric matrix")
    return m


def inertia(mat) -> tuple[int, int, int]:
    """(positive, zero, negative) inertia of a symmetric rational matrix.

    Exact symmetric congruence reduction: pivot on the lowest active
    index with nonzero diagonal; when every active diagonal vanishes,
    split off a hyperbolic plane from the lowest nonzero off-diagonal
    entry (contributing one positive and one negative), realized by the
    basis change e_i -> e_i + e_j followed by an ordinary pivot.
    """
    m = _check_symmetric(mat)
    n = len(m)
    pos = neg = zero = 0
    active = list(range(n))
    while active:
        pivot = next((i for i in active if m[i][i] != 0), None)
        if pivot is None:
            pair = None
            for ii, i in enumerate(active):
                for j in active[ii + 1:]:
                    if m[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(active)
                break
            i0, j0 = pair
            for l in range(n):
                m[i0][l] += m[j0][l]
            for l in range(n):
                m[l][i0] += m[l][j0]
            pivot = i0
        d = m[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active = [i for i in active if i != pivot]
        for i in active:
            c = m[i][pivot] / d
            if c:
                for l in range(n):
                    m[i][l] -= c * m[pivot][l]
                for l in range(n):
                    m[l][i] -= c * m[l][pivot]
    return pos, zero, neg


def det_exact(mat) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in mat]
    n = len(m)
    for row in m:
        if len(row) != n:
            raise DomainError("det_exact requires a square matrix")
        for x in row:
            if not isinstance(x, int):
                raise DomainError("det_exact requires integer entries")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            row_i, row_k = m[i], m[k]
            head = row_i[k]
            if head == 0:
                for j in range(k + 1, n):
                    row_i[j] = row_i[j] * row_k[k] // prev
            else:
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * row_k[k] - head * row_k[j]) // prev
            row_i[k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class MpqrTriple:
    """Parameters of a plumbing sphere with the K3 embedding available.

    Requires p <= q <= r, exactly one even, 1/p + 1/q + 1/r < 1, and
    p + q + r <= 22.
    """

    p: int
    q: int
    r: int

    def __post_init__(self):
        p, q, r = self.p, self.q, self.r
        if not (1 <= p <= q <= r):
            raise DomainError("MpqrTriple requires 1 <= p <= q <= r")
        if sum(1 for v in (p, q, r) if v % 2 == 0) != 1:
            raise DomainError("MpqrTriple requires exactly one even parameter")
        if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) >= 1:
            raise DomainError("MpqrTriple requires 1/p + 1/q + 1/r < 1")
        if p + q + r > 22:
            raise DomainError("MpqrTriple requires p + q + r <= 22")

    @property
    def total(self) -> int:
        return self.p + self.q + self.r


@dataclass(frozen=True)
class TpqrInvariants:
    rank: int
    signature: int
    determinant_abs: int


def tpqr_invariants(t: MpqrTriple) -> TpqrInvariants:
    """Rank, signature, and |det| of T(p, q, r), computed exactly.

    The computed values are checked against the closed forms: rank
    p+q+r-2, signature 4-p-q-r (inertia (1, 0, p+q+r-3)), determinant
    of absolute value |pqr - pq - pr - qr|, odd.
    """
    tree = StarPlumbing(t.p, t.q, t.r)
    mat = tree.matrix()
    pos, zero, neg = inertia(mat)
    det = det_exact(mat)
    closed = t.p * t.q * t.r - t.p * t.q - t.p * t.r - t.q * t.r
    assert abs(det) == abs(closed)
    assert det % 2 != 0
    assert zero == 0 and pos == 1
    assert pos - neg == 4 - t.total
    return TpqrInvariants(
        rank=tree.size, signature=pos - neg, determinant_abs=abs(det)
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


@dataclass(frozen=True)
class MontesinosInvariants:
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
