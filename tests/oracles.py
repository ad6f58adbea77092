"""Reference computations and records that only the tests use.

The package answers by closed forms and one-pass integer folds; these
are the independent routes the tests hold it to: Dedekind sums, one
spin filling's bounds and the spin surgery model that produces it,
the branched double cover's bounds by their closed form, Murasugi's
lattice-point signature of S(p, q), Levine's Arf invariant of a torus
knot from its Alexander polynomial, the separate sums behind a
plat's signature, odd counts and genus bound, the Euclid step count
behind the expansion's overrun bound, the Fraction fold of an
expansion that the integer fold is checked against, the admissibility
rules walked one by one, the JSON reader of an MBounds record, the
orientation reversal of a lens space as a pair, the paper's order
certificate read on both orientations, exact elimination on the
T(p, q, r) intersection matrix, and the Jacobi symbol by quadratic
reciprocity, against which the package's Euler-criterion residue test
and the Dedekind sums are checked.  Two records that no verb, script or
README example needs are built here from the package's own parts: the
surgery model's interval as an MBounds (m_bounds_from_surgery), and
the all-positive series L(10n+1, 8n+1) (positive_family).  Each
refuses input outside its domain with DomainError.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from cobkit.arith import _index
from cobkit.cobordism import MBounds, RokhlinClass, infinite_order_certificate, reverse_orientation
from cobkit.contfrac import AdmissibleCF, admissible_cf
from cobkit.errors import DomainError
from cobkit.lens import LensSpace
from cobkit.plumbing import MpqrTriple
from cobkit.surgery import _surgery_quarters, arf_from_surgery
from cobkit.twobridge import GenusBound, PlatInvariants


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0.

    Computed by quadratic reciprocity with the standard rules for factors
    of two; returns 0 when gcd(a, n) > 1, and 1 for n = 1.  TestJacobi
    checks is_square_mod against it on odd primes, and criterion 7c
    checks the Dedekind sums.
    """
    if n <= 0 or n % 2 == 0:
        raise DomainError("jacobi requires odd n > 0")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


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


def m_bounds_from_surgery(n: int, rokhlin, genus_upper: int) -> MBounds:
    """m and mbar bounds for n-surgery on a knot of slice genus <= g: the
    package's one surgery formula, surgery._surgery_quarters, at the Arf
    invariant arf_from_surgery forces.  Criterion 7d checks it against
    the spin filling of spin_surgery_model.

    A negative g, an even or zero n, and a framing whose n - sign(n) is
    not -R mod 8 are domain errors.  n and g are read as
    arf_from_surgery reads n: a bool, a float or a str is a TypeError.
    """
    n, genus_upper = _index(n), _index(genus_upper)
    if genus_upper < 0:
        raise DomainError("m_bounds_from_surgery requires genus_upper >= 0")
    rokhlin = RokhlinClass(rokhlin)
    mu = arf_from_surgery(n, rokhlin)
    if mu is None:
        raise DomainError("framing incompatible: n - sign(n) != -R mod 8, no such knot")
    lower, upper = _surgery_quarters(n, mu, genus_upper)
    return MBounds(
        m_lower=Fraction(lower, 4),
        mbar_upper=Fraction(upper, 4),
        rokhlin=rokhlin,
        provenance=(f"surgery model (n={n}, Arf={mu}, slice genus <= {genus_upper})",),
    )


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


def branched_cover_bounds(
    sigma_knot: int, genus_upper: int, provenance: tuple[str, ...] = ()
) -> MBounds:
    """Bounds for the branched double cover of a knot from the closed
    form: (5/4) sigma(K) - 2g <= m <= mbar <= (5/4) sigma(K) + 2g for
    any g at least the smooth slice genus, and R = sigma(K) mod 16.
    provenance lines, if given, precede the cover's own.  The lens
    kernel reaches the same record through integer quarter counts."""
    s = Fraction(5, 4) * sigma_knot
    return MBounds(
        m_lower=s - 2 * genus_upper,
        mbar_upper=s + 2 * genus_upper,
        rokhlin=RokhlinClass(sigma_knot),
        provenance=(
            *provenance,
            f"branched double cover (sigma(K)={sigma_knot}, slice genus <= {genus_upper})",
        ),
    )


def murasugi_signature(p: int, q: int) -> int:
    """sigma(S(p, q)) = sum_{i=1}^{p-1} (-1)^floor(iq/p), Murasugi's
    lattice-point formula: a route that needs no expansion."""
    return sum(1 - 2 * (i * q // p % 2) for i in range(1, p))


def torus_knot_arf(p: int, q: int) -> int:
    """Arf(T(p, q)) for coprime p, q >= 1 by Levine (1966): Arf(K) = 0
    exactly when Delta_K(-1) = +-1 mod 8.  The Alexander polynomial
    Delta_{T(p,q)}(t) = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) is found
    by exact integer division, one factor t^k - 1 at a time, on
    coefficient lists lowest degree first; T(1, q) is the unknot."""
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise DomainError("torus_knot_arf requires coprime p, q >= 1")
    f = [0] * (p * q + 2)
    for degree, c in ((0, 1), (1, -1), (p * q, -1), (p * q + 1, 1)):
        f[degree] += c
    for k in (p, q):
        # f = (t^k - 1) g reads f_i = g_{i-k} - g_i, the last k terms g_{i-k}
        g = [0] * (len(f) - k)
        for i in range(len(g)):
            g[i] = (g[i - k] if i >= k else 0) - f[i]
        assert f[len(g):] == g[len(g) - k:], "not divisible"
        f = g
    delta = sum(c if i % 2 == 0 else -c for i, c in enumerate(f))
    return 0 if delta % 8 in (1, 7) else 1


def five_sum_invariants(cf: AdmissibleCF) -> PlatInvariants:
    """Oracle: the invariants of cf's plat by the separate sums the
    one-pass tally replaced, the determinant by the Fraction fold."""
    a = cf.a
    sig = sum(a) - (1 if a[-1] > 0 else -1)
    o_pos = sum(1 for x in a if x > 0 and x % 2 != 0)
    o_neg = sum(1 for x in a if x < 0 and x % 2 != 0)
    det = eval_cf(a, cf.b).numerator
    if sum(a) % 2 != 1:
        return PlatInvariants(False, sig, det, o_pos, o_neg, None)
    s_minus = sum(abs(x) - x for x in a)
    s_plus = sum(abs(x) + x for x in a)
    pos_changes, rem_p = divmod(s_minus - 2 * o_neg, 4)
    neg_changes, rem_n = divmod(s_plus - 2 * o_pos, 4)
    seifert_genus, rem_g = divmod(o_pos + o_neg - 1, 2)
    value, rem = divmod(max(s_minus + 2 * o_pos - 2, s_plus + 2 * o_neg - 2), 4)
    assert rem_p == rem_n == rem_g == rem == 0
    genus = GenusBound(value, pos_changes, neg_changes, seifert_genus)
    return PlatInvariants(True, sig, det, o_pos, o_neg, genus)


def euclid_steps(a: int, b: int) -> int:
    """Number of division steps in the ordinary Euclid gcd of (a, b): the
    count the forced walk's overrun bound 2 * euclid_steps + 4 is read
    from (the walk runs its Euclid divisions beside its b-steps)."""
    n = 0
    while b:
        a, b = b, a % b
        n += 1
    return n


def interleave(a, b) -> tuple[int, ...]:
    """(a1, 2b1, a2, 2b2, ..., an) from a and b with len(a) = len(b) + 1."""
    out = [0] * (len(a) + len(b))
    out[0::2] = a
    out[1::2] = [2 * x for x in b]
    return tuple(out)


def fraction_fold(terms) -> Fraction:
    """Exact value of [t1, t2, ..., tm] in Fraction arithmetic, innermost
    term first: the reference the package's integer fold, contfrac._fold,
    is held to.  A tail of value 0 left to invert is a zero intermediate
    denominator."""
    if not terms:
        raise DomainError("fraction_fold requires at least one term")
    value = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        if value == 0:
            raise DomainError("zero intermediate denominator")
        value = t + 1 / value
    return value


def eval_cf(a, b) -> Fraction:
    """Exact value of [a1, 2b1, a2, ..., an] from the a and b sequences."""
    a = tuple(int(x) for x in a)
    b = tuple(int(x) for x in b)
    if len(a) != len(b) + 1:
        raise DomainError("eval_cf requires len(a) = len(b) + 1")
    return fraction_fold(interleave(a, b))


def admissible_violation(a, b, alpha, beta) -> str | None:
    """Why AdmissibleCF(a, b, alpha, beta) is refused, or None: the shape
    and sign rules walked in order, then the target rules, read by
    fraction_fold instead of the record's integer fold.  TestRuleFastPath
    holds the record's messages to it."""
    why = rule_violation(a, b)
    if why is None:
        cf = SimpleNamespace(alpha=alpha, beta=beta, terms=interleave(a, b))
        why = target_violation(cf)
    return why


def target_violation(cf) -> str | None:
    """The first target rule cf breaks, the value last, read by
    fraction_fold: once the target rules hold, alpha/beta is in lowest
    terms with beta > 0, so the value prints as the package words it."""
    alpha, beta = cf.alpha, cf.beta
    if not (0 < beta <= alpha):
        return "target requires 0 < beta <= alpha"
    if beta == alpha and alpha != 1:
        return "target beta = alpha only for the unknot 1/1"
    if gcd(alpha, beta) != 1:
        return "target requires gcd(alpha, beta) = 1"
    if beta % 2 == 0:
        return "target requires odd beta"
    value = fraction_fold(cf.terms)
    if value != Fraction(alpha, beta):
        return f"expansion evaluates to {value}, not {alpha}/{beta}"
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


def positive_family(n: int) -> tuple[LensSpace, AdmissibleCF]:
    """L(10n+1, 8n+1), n >= 1, with its expansion [1, 4, 2n]: all terms
    positive, so every member has infinite order."""
    if n < 1:
        raise DomainError("positive_family requires n >= 1")
    cf = admissible_cf((1, 2 * n), (2,))
    space = LensSpace(10 * n + 1, 8 * n + 1)
    assert (cf.alpha, cf.beta) == space
    return space, cf


def mirror(space: LensSpace) -> LensSpace:
    """L(alpha, alpha - beta), the orientation reversal of L(alpha, beta)."""
    return LensSpace(space.alpha, space.alpha - space.beta)


def paper_verdict(x: MBounds) -> str:
    """'infinite' when the paper's certificate, m > 0, or mbar < 0, or
    m = 0 exactly with R != 0, holds for x or for its reversal -Y
    (m(-Y) = -mbar(Y), mbar(-Y) = -m(Y), R(-Y) = -R(Y)), since
    [-Y] = -[Y]; else 'unknown'.  Read on the Fractions, one side at a time."""

    rokhlin = 0 if x.rokhlin is None else x.rokhlin.value

    def fires(m_lower, mbar_upper, m_exact):
        return m_lower > 0 or mbar_upper < 0 or (m_exact == 0 and rokhlin != 0)

    minus = None if x.mbar_exact is None else -x.mbar_exact
    both = fires(x.m_lower, x.mbar_upper, x.m_exact) or fires(-x.mbar_upper, -x.m_lower, minus)
    return "infinite" if both else "unknown"


def reversal_verdict(x: MBounds) -> str:
    """The verdict infinite_order_certificate gives x, checked equal to the
    one it gives reverse_orientation(x) and to paper_verdict(x)."""
    verdict = infinite_order_certificate(x).verdict
    assert verdict == infinite_order_certificate(reverse_orientation(x)).verdict, x
    assert verdict == paper_verdict(x), x
    return verdict


def bounds_from_json_dict(d: dict) -> MBounds:
    """Re-validate the bounds dict of a CLI JSON document
    (TestLens::test_bounds_round_trip reads lens --json back through it)."""
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
