"""Admissible continued fractions for two-bridge presentations.

alpha/beta = [a1, 2b1, a2, 2b2, ..., an] with all entries nonzero and
a_i * b_i > 0 for i < n.  Every coprime pair with 0 < beta < alpha and
beta odd admits such an expansion; find_admissible_cf produces one by
deterministic bounded backtracking.  The all-positive variant, when it
exists, certifies infinite order of the associated lens space class.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .arith import check_digits
from .errors import DomainError, EvaluationError


@dataclass(frozen=True)
class AdmissibleCF:
    """A candidate expansion: a-terms, b-terms, and the target alpha/beta.

    The record itself does not enforce admissibility; build through
    admissible_cf or find_admissible_cf to get a validated instance,
    or run validate_admissible on raw data.  target beta = alpha = 1
    is allowed as the unknot presentation [1].  A record remembers that
    it passed validate_admissible, so later checks do not refold it, and
    its format_cf text, so it is built once.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    alpha: int
    beta: int
    _valid: bool = field(default=False, init=False, repr=False, compare=False)
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def terms(self) -> tuple[int, ...]:
        """Interleaved form (a1, 2b1, a2, 2b2, ..., an)."""
        out = []
        for i, ai in enumerate(self.a):
            out.append(ai)
            if i < len(self.b):
                out.append(2 * self.b[i])
        return tuple(out)


def eval_terms(terms) -> Fraction:
    """Fold a continued fraction [t1, t2, ..., tm] exactly, innermost first.

    The value p/q of the tail folds as (p, q) <- (t*p + q, p).  Each step
    has determinant -1, so p and q stay coprime and the final Fraction
    only fixes the sign.
    """
    if not terms:
        raise DomainError("eval requires at least one term")
    p, q = terms[-1], 1
    for t in reversed(terms[:-1]):
        if p == 0:
            raise EvaluationError(
                "zero intermediate denominator while evaluating continued fraction"
            )
        p, q = t * p + q, p
    return Fraction(p, q)


def eval_cf(a, b) -> Fraction:
    """Exact value of [a1, 2b1, a2, ..., an] from the a and b sequences."""
    a = tuple(int(x) for x in a)
    b = tuple(int(x) for x in b)
    if len(a) != len(b) + 1:
        raise DomainError("eval_cf requires len(a) = len(b) + 1")
    terms = []
    for i, ai in enumerate(a):
        terms.append(ai)
        if i < len(b):
            terms.append(2 * b[i])
    return eval_terms(terms)


def validate_admissible(cf: AdmissibleCF) -> tuple[bool, str | None]:
    """Check shape, sign pattern, and target; return (ok, first violation).

    A pass is remembered on the record, and a remembered pass is
    returned without checking again.
    """
    if cf._valid:
        return True, None
    a, b = cf.a, cf.b
    if len(a) == 0:
        return False, "a must be nonempty"
    if len(a) != len(b) + 1:
        return False, "len(a) must equal len(b) + 1"
    if any(x == 0 for x in a):
        return False, "all a_i must be nonzero"
    if any(x == 0 for x in b):
        return False, "all b_i must be nonzero"
    for i in range(len(b)):
        if a[i] * b[i] <= 0:
            return False, f"a_{i + 1} * b_{i + 1} > 0 violated"
    alpha, beta = cf.alpha, cf.beta
    if not (0 < beta <= alpha):
        return False, "target requires 0 < beta <= alpha"
    if beta == alpha and alpha != 1:
        return False, "target beta = alpha only for the unknot 1/1"
    if gcd(alpha, beta) != 1:
        return False, "target requires gcd(alpha, beta) = 1"
    if beta % 2 == 0:
        return False, "target requires odd beta"
    try:
        value = eval_cf(a, b)
    except EvaluationError:
        return False, "expansion hits a zero intermediate denominator"
    if value != Fraction(alpha, beta):
        return False, f"expansion evaluates to {value}, not {alpha}/{beta}"
    object.__setattr__(cf, "_valid", True)
    return True, None


def admissible_cf(a, b) -> AdmissibleCF:
    """Build a validated AdmissibleCF, deriving the target by evaluation."""
    a = tuple(int(x) for x in a)
    b = tuple(int(x) for x in b)
    if len(a) != len(b) + 1:
        raise DomainError("admissible_cf requires len(a) = len(b) + 1")
    value = eval_cf(a, b)
    if value <= 0:
        raise DomainError("admissible_cf requires a positive value")
    cf = AdmissibleCF(a=a, b=b, alpha=value.numerator, beta=value.denominator)
    ok, why = validate_admissible(cf)
    if not ok:
        raise DomainError(f"not admissible: {why}")
    return cf


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


def _a_candidates(p: int, q: int) -> list[int]:
    """Terms to try at an a-position with value p/q, q > 0.

    floor leaves a positive remainder and ceil a negative one, so the
    candidate whose remainder sign matches its own sign is the one
    nearer zero.
    """
    lo = p // q
    cands = [cand for cand in (lo, lo + 1) if cand != 0 and cand * q != p]
    cands.sort(key=abs)
    return cands


def _b_candidates(p: int, q: int, sign: int) -> list[int]:
    """Terms to try at a b-position with value p/q after an a-term of this sign."""
    even_floor = 2 * ((p // q) // 2)
    cands = []
    for cand in (even_floor, even_floor + 2, 2 * sign):
        if cand == 0 or (cand > 0) != (sign > 0):
            continue
        if cand * q == p or cand in cands:
            continue
        cands.append(cand)
    return cands


def _search_terms(alpha: int, beta: int, max_terms: int) -> list[int] | None:
    """Depth-first search for the interleaved terms; the first success wins.

    A node is the value p/q (lowest terms, q > 0) still to expand and
    the sign of the preceding a-term (0 at an a-position); its depth is
    the number of terms chosen so far.  The stack holds each open
    node's untried candidates in order, so the search visits nodes in
    the order of a recursive descent without using the interpreter's
    stack.
    """
    path: list[int] = []
    stack = []
    p, q, sign = alpha, beta, 0
    while True:
        if len(path) < max_terms:
            if sign == 0:
                if q == 1 and p != 0:
                    path.append(p)
                    return path
                cands = _a_candidates(p, q)
            else:
                cands = _b_candidates(p, q, sign)
            stack.append((p, q, sign, iter(cands)))
        while stack:
            p, q, sign, untried = stack[-1]
            cand = next(untried, None)
            if cand is not None:
                break
            stack.pop()
        else:
            return None
        del path[len(stack) - 1 :]
        path.append(cand)
        p, q = q, p - cand * q
        if q < 0:
            p, q = -p, -q
        sign = (1 if cand > 0 else -1) if sign == 0 else 0


def find_admissible_cf(alpha: int, beta: int) -> AdmissibleCF:
    """Deterministic admissible expansion of alpha/beta (beta odd).

    Depth-first search over rounding choices.  At an a-position with
    value x the candidates are floor(x) and ceil(x), the one whose
    remainder sign matches the term sign first; a value that is already
    a nonzero integer terminates the expansion.  At a b-position the
    term must be even, nonzero, of the same sign as the preceding
    a-term, and must not consume the whole value; the two bracketing
    even integers are tried before the minimal fallback of the forced
    sign.  The first success in this fixed order is returned.  The term
    count is bounded by 2 * euclid_steps(alpha, beta) + 4; exhausting
    the bound would contradict the existence of an expansion and is an
    internal failure.
    """
    _check_pair(alpha, beta)
    terms = _search_terms(alpha, beta, 2 * euclid_steps(alpha, beta) + 4)
    assert terms is not None, (
        f"admissible expansion search exhausted for {alpha}/{beta}"
    )
    cf = AdmissibleCF(
        a=tuple(terms[0::2]),
        b=tuple(t // 2 for t in terms[1::2]),
        alpha=alpha,
        beta=beta,
    )
    ok, why = validate_admissible(cf)
    assert ok, f"search produced invalid expansion for {alpha}/{beta}: {why}"
    return cf


def find_positive_cf(alpha: int, beta: int) -> AdmissibleCF | None:
    """Greedy all-positive expansion of alpha/beta, both odd, or None.

    Takes floors at every step: the a-term is floor(x) and must be
    positive, the b-term is floor(x) rounded down to an even integer
    and must be positive with a nonzero remainder.  Returns None as
    soon as a step fails; None means the greedy expansion fails, not
    that no all-positive expansion exists.
    """
    _check_pair(alpha, beta)
    if alpha % 2 == 0:
        raise DomainError("requires odd alpha")
    max_terms = 2 * euclid_steps(alpha, beta) + 4
    terms = []
    p, q = alpha, beta
    while True:
        assert len(terms) <= max_terms, (
            f"greedy positive expansion overran bound for {alpha}/{beta}"
        )
        # a-position
        a = p // q
        if a <= 0:
            return None
        if a * q == p:
            terms.append(a)
            break
        terms.append(a)
        p, q = q, p - a * q
        # b-position
        even_floor = 2 * ((p // q) // 2)
        if even_floor <= 0 or even_floor * q == p:
            return None
        terms.append(even_floor)
        p, q = q, p - even_floor * q
    cf = AdmissibleCF(
        a=tuple(terms[0::2]),
        b=tuple(t // 2 for t in terms[1::2]),
        alpha=alpha,
        beta=beta,
    )
    ok, why = validate_admissible(cf)
    assert ok, f"greedy positive expansion invalid for {alpha}/{beta}: {why}"
    assert all(t > 0 for t in cf.terms)
    return cf


def format_cf(cf: AdmissibleCF) -> str:
    """Bracketed text form of the interleaved terms, e.g. [2,4,-1].

    The text is remembered on the record.
    """
    if cf._text is None:
        object.__setattr__(cf, "_text", "[" + ",".join(map(str, cf.terms)) + "]")
    return cf._text


def parse_cf(text: str) -> AdmissibleCF:
    """Parse the bracketed interleaved form back into a validated record.

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
