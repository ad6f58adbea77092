"""Reference computations that only the tests run.

The package answers by closed forms and one-pass integer folds; these
are the independent routes the tests hold it to: Dedekind sums, one
spin filling's bounds and the spin surgery model that produces it, the
value of an expansion from its a and b sequences, the admissibility
rules walked one by one, the JSON reader of an MBounds record, and
exact elimination on the T(p, q, r) intersection matrix.  Each refuses
input outside its domain with DomainError.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from cobkit.cobordism import MBounds, RokhlinClass
from cobkit.contfrac import _fold, eval_terms
from cobkit.errors import DomainError
from cobkit.plumbing import MpqrTriple


def sawtooth(x: Fraction) -> Fraction:
    """((x)): 0 at integers, otherwise x - floor(x) - 1/2.  The
    definition TestDedekindSum checks dedekind_sum against."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum(q: int, p: int) -> Fraction:
    """Dedekind sum s(q, p) = sum_{k=1}^{p-1} ((k/p)) ((kq/p)) for p >= 1.

    Requires gcd(q, p) = 1.  The terms are computed in integer form,
    ((k/p)) = (2k - p)/(2p) for 0 < k < p, so the whole sum is a single
    exact division at the end.  TestDedekindLink checks it against the
    pipeline's Rokhlin classes, R(L(p,q)) = 4 p^2 s(q,p) mod 8, and
    criterion 7c against jacobi.
    """
    if p < 1:
        raise DomainError("dedekind_sum requires p >= 1")
    if gcd(q, p) != 1:
        raise DomainError("dedekind_sum requires gcd(q, p) = 1")
    total = 0
    for k in range(1, p):
        r = (k * q) % p
        if r == 0:
            continue
        total += (2 * k - p) * (2 * r - p)
    return Fraction(total, 4 * p * p)


@dataclass(frozen=True)
class SpinFillingData:
    """Signature and second Betti number of one smooth spin filling.
    Criterion 7d checks the spin surgery model's filling, through
    bound_from_filling, against m_bounds_from_surgery."""

    sigma: int
    b2: int

    def __post_init__(self):
        if self.b2 < 0:
            raise DomainError("a filling needs b2 >= 0")


def bound_from_filling(filling: SpinFillingData) -> MBounds:
    """Both one-filling bounds: (5/4) sigma -+ b2, and sigma mod 16
    (checked against m_bounds_from_surgery by criterion 7d)."""
    s = Fraction(5, 4) * filling.sigma
    return MBounds(
        m_lower=s - filling.b2,
        mbar_upper=s + filling.b2,
        rokhlin=RokhlinClass(filling.sigma),
        provenance=(f"spin filling (sigma={filling.sigma}, b2={filling.b2})",),
    )


@dataclass(frozen=True)
class CharSurfaceData:
    """A characteristic surface F in a 4-manifold W: its self-intersection,
    genus, the Arf invariant it carries, and sigma(W), b2(W).  Criterion
    7d feeds it to spin_surgery_model against m_bounds_from_surgery."""

    self_intersection: int
    genus: int
    arf: int
    ambient_sigma: int
    ambient_b2: int

    def __post_init__(self):
        if self.self_intersection == 0:
            raise DomainError("CharSurfaceData requires nonzero self-intersection")
        if self.genus < 0 or self.ambient_b2 < 0:
            raise DomainError("CharSurfaceData requires genus >= 0 and b2 >= 0")
        if self.arf not in (0, 1):
            raise DomainError("CharSurfaceData requires arf in {0, 1}")


def spin_surgery_model(c: CharSurfaceData) -> SpinFillingData:
    """Spin filling obtained by trading the characteristic surface away.

    With e = sign(F.F): sigma' = sigma(W) - (F.F + 8 e Arf) and
    b2' = b2(W) + 2(genus - 1) + |F.F + 8 e Arf| + 4 Arf.  Criterion 7d
    checks that its filling bounds equal m_bounds_from_surgery.
    """
    eps = 1 if c.self_intersection > 0 else -1
    shifted = c.self_intersection + 8 * eps * c.arf
    return SpinFillingData(
        sigma=c.ambient_sigma - shifted,
        b2=c.ambient_b2 + 2 * (c.genus - 1) + abs(shifted) + 4 * c.arf,
    )


def interleave(a, b) -> tuple[int, ...]:
    """(a1, 2b1, a2, 2b2, ..., an) from a and b with len(a) = len(b) + 1."""
    out = [0] * (len(a) + len(b))
    out[0::2] = a
    out[1::2] = [2 * x for x in b]
    return tuple(out)


def eval_cf(a, b) -> Fraction:
    """Exact value of [a1, 2b1, a2, ..., an] from the a and b sequences."""
    a = tuple(int(x) for x in a)
    b = tuple(int(x) for x in b)
    if len(a) != len(b) + 1:
        raise DomainError("eval_cf requires len(a) = len(b) + 1")
    return eval_terms(interleave(a, b))


def admissible_violation(a, b, alpha, beta) -> str | None:
    """Why AdmissibleCF(a, b, alpha, beta) is refused, or None: the shape
    and sign rules walked in order, then the target rules, as the record
    checked itself before the common case was decided with C builtins.
    TestRuleFastPath holds the record's messages to it."""
    why = rule_violation(a, b)
    if why is None:
        cf = SimpleNamespace(alpha=alpha, beta=beta, terms=interleave(a, b))
        why = target_violation(cf)
    return why


def target_violation(cf) -> str | None:
    """The first target rule cf breaks, the value last.

    The fold is in integers.  Its pair (p, q), signs moved so that q > 0,
    is in lowest terms, and so is (alpha, beta) once the target rules
    hold, so the pairs are equal exactly when the values are.
    """
    alpha, beta = cf.alpha, cf.beta
    if not (0 < beta <= alpha):
        return "target requires 0 < beta <= alpha"
    if beta == alpha and alpha != 1:
        return "target beta = alpha only for the unknot 1/1"
    if gcd(alpha, beta) != 1:
        return "target requires gcd(alpha, beta) = 1"
    if beta % 2 == 0:
        return "target requires odd beta"
    p, q = _fold(cf.terms)
    if q < 0:
        p, q = -p, -q
    if (p, q) != (alpha, beta):
        return f"expansion evaluates to {Fraction(p, q)}, not {alpha}/{beta}"
    return None


def rule_violation(a, b) -> str | None:
    """The first shape or sign rule the terms a, b break.

    The sign rule keeps every tail of the fold nonzero, so folding terms
    that passed it never meets a zero denominator.
    """
    if len(a) == 0:
        return "a must be nonempty"
    if len(a) != len(b) + 1:
        return "len(a) must equal len(b) + 1"
    if 0 in a:
        return "all a_i must be nonzero"
    if 0 in b:
        return "all b_i must be nonzero"
    for i, (x, y) in enumerate(zip(a, b)):
        if x * y <= 0:
            return f"a_{i + 1} * b_{i + 1} > 0 violated"
    return None


def bounds_from_json_dict(d: dict) -> MBounds:
    """Re-validate an MBounds.to_json_dict document (TestLens::test_bounds_round_trip
    reads the CLI's lens --json back through it)."""
    return MBounds(
        m_lower=Fraction(d["m_lower"]),
        mbar_upper=Fraction(d["mbar_upper"]),
        m_exact=None if d.get("m_exact") is None else Fraction(d["m_exact"]),
        mbar_exact=None
        if d.get("mbar_exact") is None
        else Fraction(d["mbar_exact"]),
        rokhlin=None if d.get("rokhlin") is None else RokhlinClass(d["rokhlin"]),
        provenance=tuple(d.get("provenance", ())),
    )


def all_valid_triples() -> list[MpqrTriple]:
    """Every triple MpqrTriple admits, in (p, q, r) order."""
    out = []
    for p in range(1, 23):
        for q in range(p, 23):
            for r in range(q, 23 - p - q + 1):
                try:
                    out.append(MpqrTriple(p, q, r))
                except DomainError:
                    continue
    return out


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
