"""Obstructions to presenting a Z/2-homology sphere as integral surgery
on a knot, and the slice genus such a knot would need.

For n-surgery (n odd) on a knot K in S^3 with |H_1| = h = |n|: the Arf
invariant is forced by n - sign(n) + R = 8 Arf mod 16, so in particular
n - sign(n) = -R mod 8.  Framing sign conventions: '+' framing needs
h - 1 = -R mod 8 and '-' framing needs h - 1 = +R mod 8, with R the
representative in 0..14.  A characteristic surface of genus g carrying
the Arf invariant converts the surgery into a spin filling, which turns
the m and mbar machinery into genus bounds.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .arith import is_square_mod
from .cobordism import MBounds, RokhlinClass
from .errors import DomainError


def _rk(rokhlin) -> RokhlinClass:
    return rokhlin if isinstance(rokhlin, RokhlinClass) else RokhlinClass(rokhlin)


def arf_from_surgery(n: int, rokhlin) -> int | None:
    """Arf invariant of a knot with odd framing n yielding Rokhlin class R.

    Returns None when n - sign(n) != -R mod 8, in which case no such
    knot exists.  Otherwise Arf = (n - sign(n) + R)/8 mod 2 with R the
    representative in 0..14.
    """
    if n == 0 or n % 2 == 0:
        raise DomainError("arf_from_surgery requires odd nonzero n")
    r = _rk(rokhlin).value
    eps = 1 if n > 0 else -1
    if (n - eps + r) % 8 != 0:
        return None
    return ((n - eps + r) // 8) % 2


def congruence_obstruction(h: int, rokhlin) -> frozenset[str]:
    """Set of framing signs compatible with h = |H_1| and the Rokhlin class.

    '+' is allowed when h - 1 = -R mod 8 and '-' when h - 1 = +R mod 8;
    an empty set means the space is not integral surgery on a knot.
    """
    if h < 1 or h % 2 == 0:
        raise DomainError("congruence_obstruction requires odd h >= 1")
    r = _rk(rokhlin).value
    allowed = set()
    if (h - 1 + r) % 8 == 0:
        allowed.add("+")
    if (h - 1 - r) % 8 == 0:
        allowed.add("-")
    return frozenset(allowed)


def m_bounds_from_surgery(n: int, rokhlin, genus_upper: int) -> MBounds:
    """m and mbar bounds for n-surgery on a knot of slice genus <= g.

    With eps = sign(n), h = |n|, and mu the forced Arf invariant:
    mu = 0:  ((-4-5 eps)/4)(h-1) - 2g <= m <= mbar <= ((4-5 eps)/4)(h-1) + 2g
    mu = 1:  the same with h-1 replaced by h+7 and the constants -4, +4.
    A negative g, an even or zero n, and a framing whose n - sign(n) is
    not -R mod 8 are domain errors.
    """
    if genus_upper < 0:
        raise DomainError("m_bounds_from_surgery requires genus_upper >= 0")
    rokhlin = _rk(rokhlin)
    mu = arf_from_surgery(n, rokhlin)
    if mu is None:
        raise DomainError("framing incompatible: n - sign(n) != -R mod 8, no such knot")
    eps = 1 if n > 0 else -1
    base = abs(n) - 1 if mu == 0 else abs(n) + 7
    extra = 0 if mu == 0 else 4
    lower = Fraction(-4 - 5 * eps, 4) * base - 2 * genus_upper - extra
    upper = Fraction(4 - 5 * eps, 4) * base + 2 * genus_upper + extra
    return MBounds(
        m_lower=lower,
        mbar_upper=upper,
        rokhlin=rokhlin,
        provenance=(f"surgery model (n={n}, Arf={mu}, slice genus <= {genus_upper})",),
    )


def slice_genus_lower(h: int, rokhlin, m_lower) -> Fraction:
    """Slice genus any knot needs for its +h surgery to yield a space
    with the given Rokhlin class and m >= m_lower.

    Requires R != 4 mod 8 and h - 1 = -R mod 8, the '+' framing.  The
    '-' framing is not considered, though at R = 0 mod 8 it is allowed
    too.  With mu = arf_from_surgery(h, R) the bound is
    (1/8)(h - 1 + 4 m_lower) - mu, clamped at 0.
    """
    if h < 1 or h % 2 == 0:
        raise DomainError("slice_genus_lower requires odd h >= 1")
    rokhlin = _rk(rokhlin)
    if rokhlin.value % 8 == 4:
        raise DomainError("slice_genus_lower requires R != 4 mod 8")
    mu = arf_from_surgery(h, rokhlin)
    if mu is None:
        raise DomainError("slice_genus_lower requires h - 1 = -R mod 8")
    bound = Fraction(h - 1 + 4 * Fraction(m_lower), 8) - mu
    return max(Fraction(0), bound)


class ObstructionTest(NamedTuple):
    name: str
    verdict: str  # "pass" or "obstructed"
    detail: str


class ObstructionReport(NamedTuple):
    tests: tuple[ObstructionTest, ...]
    conclusion: str


def qr_obstruction(p: int, q: int) -> ObstructionTest:
    """Quadratic residue test for L(p, q) as surgery on a knot.

    If L(p, q) is integral surgery on a knot then q or -q is a square
    mod p; when neither is, the lens space is obstructed.
    """
    if p < 1 or p % 2 == 0:
        raise DomainError("qr_obstruction requires odd p >= 1")
    if gcd(p, q) != 1:
        raise DomainError("qr_obstruction requires gcd(p, q) = 1")
    ok = is_square_mod(q, p) or is_square_mod(-q, p)
    if ok:
        return ObstructionTest(
            "square_class",
            "pass",
            f"q or -q is a square mod {p}; no obstruction",
        )
    return ObstructionTest(
        "square_class",
        "obstructed",
        f"neither {q % p} nor {-q % p} is a square mod {p}",
    )


def unknotting_one_obstruction(det: int) -> ObstructionTest:
    """Branched-cover surgery test for an unknotting number one knot.

    The branched double cover of an unknotting number one knot is
    half-integral surgery, hence +-2 times a square class: when neither
    2 nor -2 is a square mod |det| the cover is not integral surgery on
    a knot with that determinant pattern.
    """
    if det % 2 == 0 or abs(det) <= 1:
        raise DomainError("unknotting_one_obstruction requires odd |det| > 1")
    d = abs(det)
    ok = is_square_mod(2, d) or is_square_mod(-2, d)
    if ok:
        return ObstructionTest(
            "unknotting_determinant",
            "pass",
            f"2 or -2 is a square mod {d}; no obstruction",
        )
    return ObstructionTest(
        "unknotting_determinant",
        "obstructed",
        f"neither 2 nor -2 is a square mod {d}",
    )


def obstruction_report(
    h: int | None = None,
    rokhlin=None,
    lens_pair: tuple[int, int] | None = None,
    det: int | None = None,
) -> ObstructionReport:
    """Run the applicable obstruction tests and draw the one conclusion.

    Conclusions: 'not_integral_surgery_on_knot' when some test rules
    both framings out (the space may still be surgery on a link),
    'framing_sign_forced:+' or 'framing_sign_forced:-' when only one
    framing sign survives the congruence test, otherwise 'inconclusive'.
    """
    tests: list[ObstructionTest] = []
    forced: str | None = None
    if h is not None or rokhlin is not None:
        if h is None or rokhlin is None:
            raise DomainError("the congruence test needs both h and the Rokhlin class")
        allowed = congruence_obstruction(h, rokhlin)
        signs = ",".join(sorted(allowed)) if allowed else "none"
        if not allowed:
            tests.append(
                ObstructionTest(
                    "congruence",
                    "obstructed",
                    f"h - 1 = {h - 1} matches neither -R nor +R mod 8; "
                    "not integral surgery on a knot (a link remains possible)",
                )
            )
        else:
            tests.append(
                ObstructionTest(
                    "congruence", "pass", f"allowed framing signs: {signs}"
                )
            )
            if len(allowed) == 1:
                forced = next(iter(allowed))
    if lens_pair is not None:
        tests.append(qr_obstruction(*lens_pair))
    if det is not None:
        tests.append(unknotting_one_obstruction(det))
    if not tests:
        raise DomainError("obstruction_report needs at least one input group")
    if any(t.verdict == "obstructed" for t in tests):
        conclusion = "not_integral_surgery_on_knot"
    elif forced is not None:
        conclusion = f"framing_sign_forced:{forced}"
    else:
        conclusion = "inconclusive"
    return ObstructionReport(tests=tuple(tests), conclusion=conclusion)

