"""Exact elementary number theory: quadratic residues by factoring the
modulus and Euler's criterion, an integer reader that refuses a bool
or a float, and the exact decimal form of a rational under a cap on
the digits printed.

Everything here is integer or Fraction arithmetic, no floating point.
"""

import sys
from fractions import Fraction
from operator import index

from .errors import DomainError, ResourceLimitError

# Largest modulus is_square_mod accepts; a larger one raises
# ResourceLimitError.  Below it, trial division takes O(sqrt(n)) steps.
SQUARE_ENUM_LIMIT = 10**6

# Largest number of decimal digits read or printed.  Python refuses to
# convert an int of more than 4300 digits to text by default; the margin
# keeps the few digits a bound gains over its inputs printable.  Where
# PYTHONINTMAXSTRDIGITS sets a lower limit, the cap keeps the same
# margin below it (read once, at import).
_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
DIGIT_LIMIT = min(4000, _STR_DIGITS - 300) if _STR_DIGITS else 4000
_DIGIT_BOUND = 10**DIGIT_LIMIT


def check_digits(x):
    """x, an int or Fraction, unless its numerator or denominator has
    more than DIGIT_LIMIT digits: that raises ResourceLimitError."""
    if abs(x.numerator) < _DIGIT_BOUND and x.denominator < _DIGIT_BOUND:
        return x
    raise ResourceLimitError(f"a number exceeds the {DIGIT_LIMIT}-digit cap")


def is_square_mod(a: int, n: int) -> bool:
    """Whether a is congruent to a square modulo n >= 1.

    Factors n by trial division and decides each prime power p^k apart:
    a = 0 mod p^k is a square; otherwise write a = p^v * u with p not
    dividing u and v < k.  Then v must be even, and for odd p the unit u
    a residue, u^((p-1)/2) = 1 mod p by Euler's criterion; for p = 2 the
    unit must be 1 mod 8 when k - v >= 3 and 1 mod 4 when k - v = 2.
    a and n are read with _index, so a bool or a float is a TypeError.
    """
    a, n = _index(a), _index(n)
    if n < 1:
        raise DomainError("is_square_mod requires n >= 1")
    if n > SQUARE_ENUM_LIMIT:
        raise ResourceLimitError(
            f"is_square_mod enumeration capped at n <= {SQUARE_ENUM_LIMIT}"
        )
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k and not _is_square_mod_prime_power(a % p**k, p, k):
            return False
        p += 1 if p == 2 else 2
    return True


def _is_square_mod_prime_power(a: int, p: int, k: int) -> bool:
    """is_square_mod(a, p^k) for a prime p and 0 <= a < p^k."""
    if a == 0:
        return True
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v % 2:
        return False
    if p == 2:
        return a % min(8, 2 ** (k - v)) == 1
    return pow(a, (p - 1) // 2, p) == 1


def _index(x) -> int:
    """x read with operator.index, so a float, a Fraction or a str is a
    TypeError; so is a bool, which index would read as 0 or 1."""
    if isinstance(x, bool):
        raise TypeError("a bool is not a number")
    return index(x)


def dec(x) -> str:
    """Exact decimal form of a rational with denominator 2^a 5^b, else p/q.

    Takes an int or a Fraction.  A float, whose binary value is not the
    number it was written as, a bool or anything else is a TypeError.
    Raises ResourceLimitError rather than print a number of more than
    DIGIT_LIMIT digits.
    """
    if not isinstance(x, Fraction):
        x = Fraction(_index(x))
    num, den = x.numerator, x.denominator
    check_digits(x)
    d, k2, k5 = den, 0, 0
    while d % 2 == 0:
        d //= 2
        k2 += 1
    while d % 5 == 0:
        d //= 5
        k5 += 1
    if d != 1:
        return f"{num}/{den}"
    k = max(k2, k5)
    scaled = check_digits(abs(num) * 10**k // den)
    s = str(scaled).rjust(k + 1, "0")
    ip, fp = (s[:-k], s[-k:]) if k else (s, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{ip}.{fp}"
