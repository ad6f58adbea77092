"""Admissible continued fractions for two-bridge presentations.

alpha/beta = [a1, 2b1, a2, 2b2, ..., an] with all entries nonzero and
a_i * b_i > 0 for i < n.  Every coprime pair with 0 < beta < alpha and
beta odd admits such an expansion; _walk produces one in a single
pass, each term forced by the value still to expand and checked as it
is made.  find_admissible_cf and the lens rows both read that walk.
The all-positive expansion, when it exists, is the forced expansion, so
find_positive_cf only checks the signs of its terms.  _build alone
reads a supplied expansion and checks the rules, so every record is
admissible.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .arith import _index, check_digits
from .errors import DomainError


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

    Construction, _make and _replace go through _build, which raises
    DomainError on the first violation, so every record is admissible;
    find_admissible_cf makes its records from a walk that checked each
    term as it made it.
    target beta = alpha = 1 is allowed as the unknot presentation [1].
    terms, the interleaved form (a1, 2b1, a2, 2b2, ..., an), is computed
    from a and b when it is read.
    """

    __slots__ = ()

    def __new__(cls, a, b, alpha, beta):
        return _build(cls, a, b, (alpha, beta))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def terms(self) -> tuple[int, ...]:
        return _interleave(self.a, self.b)


def _build(cls, a, b, target=None):
    """The one reader of a supplied AdmissibleCF: the terms and the
    target read with arith._index, a and b kept as tuples, then the
    shape and sign rules, one fold of the terms, the target rules and the
    value.  Past the sign rules the fold cannot fail, so the first rule
    broken is still the one reported.  With no target the fold's value,
    which must be positive, is the target."""
    a, b = tuple(map(_index, a)), tuple(map(_index, b))
    if target is not None:
        target = tuple(map(_index, target))
    why = _rule_violation(a, b)
    if why is None:
        p, q = _fold(_interleave(a, b))
        if q < 0:
            p, q = -p, -q
        if target is None:
            if p <= 0:
                raise DomainError("admissible_cf requires a positive value")
            target = p, q
        why = _target_violation(p, q, *target)
    if why is not None:
        raise DomainError(f"not admissible: {why}")
    return tuple.__new__(cls, (a, b, *target))


def _target_violation(p, q, alpha, beta) -> str | None:
    """The first target rule alpha/beta breaks, the value last: the
    expansion folds to p/q, signs moved so that q > 0.

    The fold's pair is in lowest terms, and so is (alpha, beta) once the
    target rules hold, so the pairs are equal exactly when the values are.
    """
    if not (0 < beta <= alpha):
        return "target requires 0 < beta <= alpha"
    if beta == alpha and alpha != 1:
        return "target beta = alpha only for the unknot 1/1"
    if gcd(alpha, beta) != 1:
        return "target requires gcd(alpha, beta) = 1"
    if beta % 2 == 0:
        return "target requires odd beta"
    if (p, q) != (alpha, beta):
        return f"expansion evaluates to {Fraction(p, q)}, not {alpha}/{beta}"
    return None


def _rule_violation(a, b) -> str | None:
    """The first shape or sign rule the terms a, b break.

    The sign rule keeps every tail of the fold nonzero, so folding terms
    that passed it never meets a zero denominator.  Only supplied
    expansions are checked here; a walk checks its own terms as it makes
    them.
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


def _fold(terms) -> tuple[int, int]:
    """Fold a nonempty continued fraction [t1, t2, ..., tm] in integers,
    innermost first: the value p/q of the tail folds as
    (p, q) <- (t*p + q, p).  Each step has determinant -1, so p and q
    stay coprime and only the sign is left to fix.  Only terms past the
    sign rule are folded, so no tail p is zero.
    """
    p, q = terms[-1], 1
    for t in terms[-2::-1]:
        p, q = t * p + q, p
    return p, q


def admissible_cf(a, b) -> AdmissibleCF:
    """Build an AdmissibleCF, deriving the target by evaluation.  Terms
    must be integers: a float, a Fraction or a str is a TypeError."""
    return _build(AdmissibleCF, a, b)


def _walk(alpha: int, beta: int) -> tuple[list[int], tuple[int, int, int, int]]:
    """The forced expansion of alpha/beta, 0 < beta < alpha coprime and
    beta odd, in one pass: its terms in printed order [a1, 2b1, ..., an]
    and the tally (S-, S+, o+, o-) of its a-terms that
    twobridge._tally_invariants reads.

    No choices.  The value still to expand is p/q in lowest terms, with
    q > 0 and q odd at every a-position.  There the term is p/q truncated
    toward zero; with q = 1 that is p, the last term.  At a b-position
    the term is the even integer nearest p/q, the lower one when p/q is
    an odd integer.  Then (p, q) <- (q, p - t*q), signs moved after the
    b-step so that q > 0; the b-term and the pair after it do not change
    when p and q both change sign.  Each remainder has |p - t*q| <= |q|,
    so every a-position value after the first is an integer or has
    |x| > 1: its term is nonzero and has the sign the next b-term takes.

    Every check is made as the terms are.  Each b-term must share its
    a-term's sign, and a_n must be nonzero.  A Euclid division of
    (alpha + beta, alpha), one step ahead of (alpha, beta), runs beside
    each b-step, so a walk of more than 2 * euclid_steps(alpha, beta) + 4
    terms stops as an overrun.  The forward convergents h/k of the terms
    are carried along and must equal alpha/beta at the end.  A failed
    check is an internal failure, worded by the record builder.
    """
    terms = []
    s_minus = s_plus = o_pos = o_neg = 0
    h0, h, k0, k = 0, 1, 1, 0  # the convergents before the first term
    x, y = alpha + beta, alpha
    signs_kept = True
    p, q = alpha, beta
    while True:
        t = p // q if p > 0 else -(-p // q)
        if t > 0:
            s_plus += t
            o_pos += t & 1
        else:
            s_minus -= t
            o_neg += t & 1
        h0, h = h, t * h + h0
        k0, k = k, t * k + k0
        if q == 1:
            terms.append(t)
            break
        if not y:
            raise AssertionError(f"admissible expansion overran its bound for {alpha}/{beta}")
        x, y = y, x % y
        p, q = q, p - t * q
        half = -((q - p) // (2 * q))
        if t * half <= 0:
            signs_kept = False
        p, q = q, p - 2 * half * q
        if q < 0:
            p, q = -p, -q
        u = half + half
        h0, h = h, u * h + h0
        k0, k = k, u * k + k0
        terms += t, u
    if not (signs_kept and t and h * beta == k * alpha):
        _refuse(alpha, beta, terms)
    return terms, (2 * s_minus, 2 * s_plus, o_pos, o_neg)


def _refuse(alpha: int, beta: int, terms: list[int]):
    """Raise the internal failure of a walk that failed a check, in the
    words of the record builder: the first rule or target rule broken."""
    try:
        _build(AdmissibleCF, *_split(terms), (alpha, beta))
    except DomainError as exc:
        raise AssertionError(f"expansion invalid for {alpha}/{beta}: {exc}") from None
    raise AssertionError(
        f"expansion invalid for {alpha}/{beta}: the walk refused {_format_terms(terms)}"
    )


def _split(terms) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(a, b) from the interleaved terms [a1, 2b1, ..., an]."""
    return tuple(terms[0::2]), tuple(u // 2 for u in terms[1::2])


def find_admissible_cf(alpha: int, beta: int) -> AdmissibleCF:
    """Deterministic admissible expansion of alpha/beta (beta odd): the
    forced expansion of _walk, as a record.  A walk that fails its checks
    is an internal failure."""
    alpha, beta = _check_pair(alpha, beta)
    return _record(_walk(alpha, beta)[0], alpha, beta)


def _check_pair(alpha: int, beta: int) -> tuple[int, int]:
    """The pair read with arith._index, or its refusal by the first rule
    it breaks; both finders run this before they walk."""
    alpha, beta = _index(alpha), _index(beta)
    if not 0 < beta < alpha:
        raise DomainError("requires 0 < beta < alpha")
    if gcd(alpha, beta) != 1:
        raise DomainError("requires gcd(alpha, beta) = 1")
    if beta % 2 == 0:
        raise DomainError("requires odd beta")
    return alpha, beta


def _record(terms, alpha: int, beta: int) -> AdmissibleCF:
    """The AdmissibleCF of alpha/beta from the terms of its forced walk,
    which checked them as it made them."""
    return tuple.__new__(AdmissibleCF, (*_split(terms), alpha, beta))


def find_positive_cf(alpha: int, beta: int) -> AdmissibleCF | None:
    """The all-positive expansion of alpha/beta, both odd, or None.

    The all-positive expansion, when it exists, is the forced one of
    find_admissible_cf.  A positive tail after an a-term is more than 2
    and after a b-term at least 1, so an all-positive expansion takes
    floor(x) at every a-position and the even integer in [x - 1, x) at
    every b-position.  On such a value those are exactly the forced
    terms: truncation toward zero, and the nearest even integer, the
    lower one on a tie.  So the expansion is unique when it exists, and
    None means that none exists.  An even alpha is refused after the
    pair's own refusals and before the walk.
    """
    alpha, beta = _check_pair(alpha, beta)
    if alpha % 2 == 0:
        raise DomainError("requires odd alpha")
    terms = _walk(alpha, beta)[0]
    return _record(terms, alpha, beta) if all(t > 0 for t in terms) else None


def format_cf(cf: AdmissibleCF) -> str:
    """Bracketed text form of the interleaved terms, e.g. [2,4,-1]."""
    return _format_terms(cf.terms)


def _format_terms(terms) -> str:
    """Bracketed text form of interleaved terms [a1, 2b1, ..., an]."""
    return "[" + ",".join(map(str, terms)) + "]"


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
    if any(t % 2 for t in terms[1::2]):
        raise DomainError("terms at even positions must be even integers")
    cf = admissible_cf(*_split(terms))
    check_digits(cf.alpha)
    return cf
