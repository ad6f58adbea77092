"""Obstructions to presenting a Z/2-homology sphere as integral surgery
on a knot, and the slice genus such a knot would need.

For n-surgery (n odd) on a knot K in S^3 with |H_1| = h = |n|: the Arf
invariant is forced by n - sign(n) + R = 8 Arf mod 16, so in particular
n - sign(n) = -R mod 8.  Framing sign conventions: '+' framing needs
h - 1 = -R mod 8 and '-' framing needs h - 1 = +R mod 8, with R the
representative in 0..14.  A characteristic surface of genus g carrying
the Arf invariant converts the surgery into a spin filling, which turns
the m and mbar machinery into the interval _surgery_quarters counts.
The slice-genus bound reads the +h framing's upper count; the -h
framing, allowed too when R = 0 mod 8, is ROADMAP item 1.
"""

from fractions import Fraction
from math import gcd
from numbers import Rational
from typing import NamedTuple

from .arith import _index, is_square_mod
from .cobordism import RokhlinClass
from .errors import DomainError


def arf_from_surgery(n: int, rokhlin) -> int | None:
    """Arf invariant of a knot with odd framing n yielding Rokhlin class R.

    Returns None when n - sign(n) != -R mod 8, in which case no such
    knot exists.  Otherwise Arf = (n - sign(n) + R)/8 mod 2 with R the
    representative in 0..14.  n is read with operator.index, so a float
    or a str is a TypeError, and so is a bool.
    """
    n = _index(n)
    if n == 0 or n % 2 == 0:
        raise DomainError("arf_from_surgery requires odd nonzero n")
    eps = 1 if n > 0 else -1
    eighths, rest = divmod(n - eps + RokhlinClass(rokhlin).value, 8)
    return None if rest else eighths % 2


def congruence_obstruction(h: int, rokhlin) -> frozenset[str]:
    """Set of framing signs compatible with h = |H_1| and the Rokhlin class.

    '+' is allowed when arf_from_surgery(h, R) exists and '-' when
    arf_from_surgery(-h, R) does; an empty set means the space is not
    integral surgery on a knot.  h is read as arf_from_surgery reads n.
    """
    h = _index(h)
    if h < 1 or h % 2 == 0:
        raise DomainError("congruence_obstruction requires odd h >= 1")
    rokhlin = RokhlinClass(rokhlin)
    return frozenset(
        sign for sign, n in (("+", h), ("-", -h)) if arf_from_surgery(n, rokhlin) is not None
    )


def _surgery_quarters(n: int, mu: int, genus_upper: int) -> tuple[int, int]:
    """(4 m_lower, 4 mbar_upper) for n-surgery on a knot with Arf
    invariant mu and slice genus <= g.  With eps = sign(n), h = |n|:
    mu = 0:  (-4-5 eps)(h-1) - 8g <= 4m <= 4mbar <= (4-5 eps)(h-1) + 8g
    mu = 1:  the same with h-1 replaced by h+7, widened by 16 at each end."""
    eps = 1 if n > 0 else -1
    base = abs(n) - 1 + 8 * mu
    extra = 8 * genus_upper + 16 * mu
    return (-4 - 5 * eps) * base - extra, (4 - 5 * eps) * base + extra


def slice_genus_lower(h: int, rokhlin, m_lower) -> Fraction:
    """Slice genus any knot needs for its +h surgery to yield a space
    with the given Rokhlin class and m >= m_lower.

    Requires R != 4 mod 8 and h - 1 = -R mod 8, the '+' framing.  A knot
    of slice genus g gives 4 mbar <= U + 8g, with U the +h model's upper
    count at g = 0 (_surgery_quarters), and m <= mbar; so the bound is
    (4 m_lower - U)/8, clamped at 0.  The '-' framing, allowed too at
    R = 0 mod 8, is not considered: that is ROADMAP item 1.  h is read
    as arf_from_surgery reads n, and m_lower must be an int or a
    Fraction; a bool, a float or a str is a TypeError.
    """
    h = _index(h)
    if isinstance(m_lower, bool) or not isinstance(m_lower, Rational):
        raise TypeError(f"m_lower must be an int or a Fraction, not {type(m_lower).__name__}")
    if h < 1 or h % 2 == 0:
        raise DomainError("slice_genus_lower requires odd h >= 1")
    rokhlin = RokhlinClass(rokhlin)
    if rokhlin.value % 8 == 4:
        raise DomainError("slice_genus_lower requires R != 4 mod 8")
    mu = arf_from_surgery(h, rokhlin)
    if mu is None:
        raise DomainError("slice_genus_lower requires h - 1 = -R mod 8")
    upper = _surgery_quarters(h, mu, 0)[1]
    return max(Fraction(0), Fraction(4 * Fraction(m_lower) - upper, 8))


class ObstructionTest(NamedTuple):
    name: str
    verdict: str  # "pass" or "obstructed"
    detail: str


class ObstructionReport(NamedTuple):
    tests: tuple[ObstructionTest, ...]
    conclusion: str


def _square_class(
    name: str, x: int, d: int, either: str, neither: tuple[int, int]
) -> ObstructionTest:
    """The test that x or -x is a square mod d: 'pass' names the pair
    as either, 'obstructed' names the two residues in neither."""
    if is_square_mod(x, d) or is_square_mod(-x, d):
        return ObstructionTest(name, "pass", f"{either} is a square mod {d}; no obstruction")
    a, b = neither
    return ObstructionTest(name, "obstructed", f"neither {a} nor {b} is a square mod {d}")


def qr_obstruction(p: int, q: int) -> ObstructionTest:
    """Quadratic residue test for L(p, q) as surgery on a knot.

    If L(p, q) is integral surgery on a knot then q or -q is a square
    mod p; when neither is, the lens space is obstructed.
    """
    if p < 1 or p % 2 == 0:
        raise DomainError("qr_obstruction requires odd p >= 1")
    if gcd(p, q) != 1:
        raise DomainError("qr_obstruction requires gcd(p, q) = 1")
    return _square_class("square_class", q, p, "q or -q", (q % p, -q % p))


def unknotting_one_obstruction(det: int) -> ObstructionTest:
    """Branched-cover surgery test for an unknotting number one knot.

    The branched double cover of an unknotting number one knot is
    half-integral surgery, hence +-2 times a square class: when neither
    2 nor -2 is a square mod |det| the cover is not integral surgery on
    a knot with that determinant pattern.
    """
    if det % 2 == 0 or abs(det) <= 1:
        raise DomainError("unknotting_one_obstruction requires odd |det| > 1")
    return _square_class("unknotting_determinant", 2, abs(det), "2 or -2", (2, -2))


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
            signs = ",".join(sorted(allowed))
            tests.append(ObstructionTest("congruence", "pass", f"allowed framing signs: {signs}"))
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

