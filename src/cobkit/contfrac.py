"""Admissible continued fractions for two-bridge presentations.

alpha/beta = [a1, 2b1, a2, 2b2, ..., an] with all entries nonzero and
a_i * b_i > 0 for i < n.  Every coprime pair with 0 < beta < alpha and
beta odd admits such an expansion; find_admissible_cf produces one in a
single pass, each term forced by the value still to expand.  The
all-positive expansion, when it exists, is that forced expansion, so
find_positive_cf only checks the signs of its terms.  An AdmissibleCF
checks the rules when it is built, so every record is admissible.
"""

from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple

from .arith import check_digits
from .errors import DomainError, EvaluationError


def _interleave(a, b) -> tuple[int, ...]:
    """(a1, 2b1, a2, 2b2, ..., an) from a and b with len(a) = len(b) + 1."""
    out = [0] * (len(a) + len(b))
    out[0::2] = a
    out[1::2] = [x + x for x in b]
    return tuple(out)


class _AdmissibleFields(NamedTuple):
    a: tuple[int, ...]
    b: tuple[int, ...]
    alpha: int
    beta: int


class AdmissibleCF(_AdmissibleFields):
    """An admissible expansion: a-terms, b-terms, and the target alpha/beta.

    Construction checks shape, sign pattern and target and raises
    DomainError on the first violation, so every record is admissible.
    target beta = alpha = 1 is allowed as the unknot presentation [1].
    It also sets terms, the interleaved form (a1, 2b1, a2, 2b2, ..., an),
    and its text, once: the check folds terms and format_cf prints the text.
    """

    # no __slots__: terms and the text live in the instance dict, which
    # __setattr__ keeps read-only like the fields

    def __new__(cls, a, b, alpha, beta):
        why = _rule_violation(a, b)
        if why is None:
            terms = _interleave(a, b)
            why = _target_violation(terms, alpha, beta)
        if why is not None:
            raise DomainError(f"not admissible: {why}")
        self = tuple.__new__(cls, (a, b, alpha, beta))
        attrs = vars(self)
        attrs["terms"] = terms
        attrs["_text"] = "[" + ",".join(map(str, terms)) + "]"
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _target_violation(terms, alpha, beta) -> str | None:
    """The first target rule the expansion terms of alpha/beta break,
    the value last.

    The fold is in integers.  Its pair (p, q), signs moved so that q > 0,
    is in lowest terms, and so is (alpha, beta) once the target rules
    hold, so the pairs are equal exactly when the values are.
    """
    if not (0 < beta <= alpha):
        return "target requires 0 < beta <= alpha"
    if beta == alpha and alpha != 1:
        return "target beta = alpha only for the unknot 1/1"
    if gcd(alpha, beta) != 1:
        return "target requires gcd(alpha, beta) = 1"
    if beta % 2 == 0:
        return "target requires odd beta"
    p, q = _fold(terms)
    if q < 0:
        p, q = -p, -q
    if (p, q) != (alpha, beta):
        return f"expansion evaluates to {Fraction(p, q)}, not {alpha}/{beta}"
    return None


def _rule_violation(a, b) -> str | None:
    """The first shape or sign rule the terms a, b break.

    The sign rule keeps every tail of the fold nonzero, so folding terms
    that passed it never meets a zero denominator.  The common case, every
    rule kept, is decided first with C builtins: the lengths match, which
    makes a nonempty, a_n is nonzero, and every product a_i * b_i is
    positive, which makes the other terms nonzero.  The rules are walked
    in order only to word a failure.
    """
    if len(a) == len(b) + 1 and a[-1] != 0 and (not b or min(map(mul, a, b)) > 0):
        return None
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


def _fold(terms) -> tuple[int, int]:
    """Fold a nonempty continued fraction [t1, t2, ..., tm] in integers,
    innermost first: the value p/q of the tail folds as
    (p, q) <- (t*p + q, p).  Each step has determinant -1, so p and q
    stay coprime and only the sign is left to fix.
    """
    p, q = terms[-1], 1
    for t in terms[-2::-1]:
        if p == 0:
            raise EvaluationError(
                "zero intermediate denominator while evaluating continued fraction"
            )
        p, q = t * p + q, p
    return p, q


def eval_terms(terms) -> Fraction:
    """Exact value of a continued fraction [t1, t2, ..., tm], by the same
    integer fold the admissibility check runs."""
    if not terms:
        raise DomainError("eval requires at least one term")
    return Fraction(*_fold(terms))


def admissible_cf(a, b) -> AdmissibleCF:
    """Build an AdmissibleCF, deriving the target by evaluation."""
    a = tuple(int(x) for x in a)
    b = tuple(int(x) for x in b)
    if len(a) != len(b) + 1:
        raise DomainError("admissible_cf requires len(a) = len(b) + 1")
    why = _rule_violation(a, b)
    if why is not None:
        raise DomainError(f"not admissible: {why}")
    value = eval_terms(_interleave(a, b))
    if value <= 0:
        raise DomainError("admissible_cf requires a positive value")
    return AdmissibleCF(a=a, b=b, alpha=value.numerator, beta=value.denominator)


def euclid_steps(a: int, b: int) -> int:
    """Number of division steps in the ordinary Euclid gcd of (a, b)."""
    n = 0
    while b:
        a, b = b, a % b
        n += 1
    return n


def _check_pair(alpha: int, beta: int) -> None:
    if not 0 < beta < alpha:
        raise DomainError("requires 0 < beta < alpha")
    if gcd(alpha, beta) != 1:
        raise DomainError("requires gcd(alpha, beta) = 1")
    if beta % 2 == 0:
        raise DomainError("requires odd beta")


def find_admissible_cf(alpha: int, beta: int) -> AdmissibleCF:
    """Deterministic admissible expansion of alpha/beta (beta odd).

    One pass with no choices.  The value still to expand is p/q in
    lowest terms with q > 0, and q is odd at every a-position.  There a
    value with q = 1 is the last term; any other is truncated toward
    zero.  At a b-position the term is the even integer nearest p/q, the
    lower one when p/q is an odd integer.  Then (p, q) <- (q, p - t*q),
    signs moved so that q > 0.  Each remainder has |p - t*q| <= q, so
    every a-position value after the first is an integer or has
    |x| > 1: its term is nonzero and has the sign the next b-term takes.
    The term count is bounded by 2 * euclid_steps(alpha, beta) + 4; a
    longer or invalid expansion is an internal failure.
    """
    _check_pair(alpha, beta)
    a, b = [], []
    p, q = alpha, beta
    while q != 1:
        t = p // q if p > 0 else -(-p // q)
        a.append(t)
        p, q = q, p - t * q
        if q < 0:
            p, q = -p, -q
        t = -((q - p) // (2 * q))  # half the b-term
        b.append(t)
        p, q = q, p - 2 * t * q
        if q < 0:
            p, q = -p, -q
    a.append(p)
    assert len(a) + len(b) <= 2 * euclid_steps(alpha, beta) + 4, (
        f"admissible expansion overran its bound for {alpha}/{beta}"
    )
    try:
        return AdmissibleCF(tuple(a), tuple(b), alpha, beta)
    except DomainError as exc:
        raise AssertionError(f"expansion invalid for {alpha}/{beta}: {exc}") from None


def find_positive_cf(alpha: int, beta: int) -> AdmissibleCF | None:
    """The all-positive expansion of alpha/beta, both odd, or None.

    The all-positive expansion, when it exists, is the forced one of
    find_admissible_cf.  A positive tail after an a-term is more than 2
    and after a b-term at least 1, so an all-positive expansion takes
    floor(x) at every a-position and the even integer in [x - 1, x) at
    every b-position.  On such a value those are exactly the forced
    terms: truncation toward zero, and the nearest even integer, the
    lower one on a tie.  So the expansion is unique when it exists, and
    None means that none exists.
    """
    _check_pair(alpha, beta)
    if alpha % 2 == 0:
        raise DomainError("requires odd alpha")
    cf = find_admissible_cf(alpha, beta)
    return cf if all(t > 0 for t in cf.a + cf.b) else None


def format_cf(cf: AdmissibleCF) -> str:
    """Bracketed text form of the interleaved terms, e.g. [2,4,-1].

    The text is built once per record.
    """
    return cf._text


def parse_cf(text: str) -> AdmissibleCF:
    """Parse the bracketed interleaved form back into a record.

    An expansion whose value alpha/beta has more than DIGIT_LIMIT digits
    raises ResourceLimitError: its numbers could not be printed.
    """
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise DomainError("continued fraction text must look like [a1,2b1,...,an]")
    body = s[1:-1].strip()
    if not body:
        raise DomainError("continued fraction text must contain terms")
    try:
        terms = [int(part.strip()) for part in body.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad continued fraction term: {exc}") from None
    if len(terms) % 2 == 0:
        raise DomainError("continued fraction must have an odd number of terms")
    evens = terms[1::2]
    if any(t % 2 for t in evens):
        raise DomainError("terms at even positions must be even integers")
    cf = admissible_cf(terms[0::2], [t // 2 for t in evens])
    check_digits(cf.alpha)
    return cf
