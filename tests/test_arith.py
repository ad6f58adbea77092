import math
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cobkit.arith import (
    DIGIT_LIMIT,
    TRIAL_DIVISION_LIMIT,
    check_digits,
    dec,
    is_square_mod,
)
from cobkit.contfrac import admissible_cf, find_admissible_cf, find_positive_cf
from cobkit.errors import DomainError, ResourceLimitError
from cobkit.lens import LensSpace, classify_order, m_bounds
from cobkit.plumbing import MpqrTriple
from cobkit.surgery import qr_obstruction, unknotting_one_obstruction
from oracles import dedekind_sum, jacobi, sawtooth


def brute_square_mod(a, n):
    return any((k * k - a) % n == 0 for k in range(n))


def square_residues(n):
    """Every square modulo n, by enumeration."""
    return {k * k % n for k in range(n // 2 + 1)}


def reference_dec(x: Fraction) -> str:
    """Oracle: the exact decimal by the general rule, for any denominator
    2^a 5^b, with the digit cap checked on x and on the digits printed."""
    num, den = check_digits(x).numerator, x.denominator
    k = 0
    while 10**k % den:
        k += 1
    s = str(check_digits(abs(num) * 10**k // den)).rjust(k + 1, "0")
    ip, fp = (s[:-k], s[-k:]) if k else (s, "0")
    return ("-" if num < 0 else "") + f"{ip}.{fp}"


def dec_outcome(fn, x):
    try:
        return fn(x)
    except ResourceLimitError as exc:
        return str(exc)


def sawtooth_sum(q, p):
    return sum(
        sawtooth(Fraction(k, p)) * sawtooth(Fraction(k * q, p)) for k in range(1, p)
    )


class TestJacobi:
    def test_small_cases(self):
        assert jacobi(3, 7) == -1
        assert jacobi(2, 7) == 1
        assert jacobi(2, 15) == 1  # composite: +1 without being a square
        assert not is_square_mod(2, 15)
        assert jacobi(0, 9) == 0
        assert jacobi(6, 9) == 0
        assert jacobi(5, 1) == 1

    def test_rejects_even_or_nonpositive_modulus(self):
        for n in (8, 0, -3):
            with pytest.raises(DomainError, match=r"^jacobi requires odd n > 0$"):
                jacobi(2, n)

    def test_matches_square_test_on_odd_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for a in range(1, p):
                assert (jacobi(a, p) == 1) == is_square_mod(a, p)

    @given(
        st.integers(-200, 200),
        st.integers(-200, 200),
        st.integers(1, 120).map(lambda k: 2 * k + 1),
    )
    def test_multiplicative(self, a, b, n):
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    @given(st.integers(-500, 500), st.integers(1, 120).map(lambda k: 2 * k + 1))
    def test_periodic(self, a, n):
        assert jacobi(a, n) == jacobi(a % n, n)


class TestIsSquareMod:
    def test_matches_brute_force(self):
        for n in range(1, 40):
            for a in range(-5, n + 5):
                assert is_square_mod(a, n) == brute_square_mod(a, n)

    def test_matches_enumeration_for_every_residue(self):
        for n in range(1, 400):
            squares = square_residues(n)
            for a in range(n):
                assert is_square_mod(a, n) == (a in squares), (a, n)

    def test_matches_enumeration_on_large_moduli(self):
        rng = random.Random(20261018)
        # random moduli, and high powers of small primes for the 2-adic
        # and odd prime power rules
        moduli = [rng.randint(1, TRIAL_DIVISION_LIMIT) for _ in range(6)]
        moduli += [2**19, 3**12, 7**7, 2**6 * 3**4 * 5**3]
        for n in moduli:
            squares = square_residues(n)
            divisors = [d for d in range(1, 1001) if n % d == 0]
            cases = [rng.randrange(n) for _ in range(100)]
            cases += [rng.randrange(n) ** 2 % n for _ in range(100)]
            cases += [rng.choice(divisors) * rng.randrange(n) % n for _ in range(100)]
            cases += [d * d * rng.randrange(n) ** 2 % n for d in divisors]
            for a in cases:
                assert is_square_mod(a, n) == (a in squares), (a, n)

    def test_lens_relevant_values(self):
        assert not is_square_mod(2, 5)
        assert not is_square_mod(-2, 5)
        assert is_square_mod(2, 7)
        assert not is_square_mod(2, 15)
        assert not is_square_mod(-2, 15)

    def test_cap(self):
        assert is_square_mod(4, TRIAL_DIVISION_LIMIT)
        cap = f"^is_square_mod trial division capped at n <= {TRIAL_DIVISION_LIMIT}$"
        with pytest.raises(ResourceLimitError, match=cap):
            is_square_mod(2, TRIAL_DIVISION_LIMIT + 1)
        with pytest.raises(DomainError, match=r"^is_square_mod requires n >= 1$"):
            is_square_mod(2, 0)

    def test_trial_division_stops_at_the_square_root(self):
        # a prime modulus near the cap takes about 500 trial divisions; a
        # search that ran on to n itself would take about 500,000 per call
        p = 999983  # prime; the Jacobi symbol, by reciprocity, is the reference
        start = time.perf_counter()
        for a in range(200):
            assert is_square_mod(a, p) == (jacobi(a, p) in (0, 1)), a
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"200 calls took {elapsed:.2f}s, budget 2s"


class TestDedekindSum:
    def test_small_cases(self):
        assert dedekind_sum(1, 1) == 0
        assert dedekind_sum(1, 3) == Fraction(1, 18)
        assert dedekind_sum(2, 5) == 0
        assert dedekind_sum(3, 7) == Fraction(-1, 14)

    def test_closed_form_for_q_one(self):
        for p in range(1, 51):
            assert dedekind_sum(1, p) == Fraction((p - 1) * (p - 2), 12 * p)

    def test_matches_sawtooth_definition(self):
        for p in range(1, 41):
            for q in range(1, p + 1):
                if math.gcd(q, p) != 1:
                    continue
                assert dedekind_sum(q, p) == sawtooth_sum(q, p)

    def test_antisymmetry(self):
        for p in range(2, 40):
            for q in range(1, p):
                if math.gcd(q, p) != 1:
                    continue
                assert dedekind_sum(p - q, p) == -dedekind_sum(q, p)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            dedekind_sum(2, 4)
        with pytest.raises(DomainError):
            dedekind_sum(1, 0)


class TestSawtooth:
    def test_values(self):
        assert sawtooth(Fraction(0)) == 0
        assert sawtooth(Fraction(5)) == 0
        assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
        assert sawtooth(Fraction(1, 2)) == 0
        assert sawtooth(Fraction(7, 4)) == Fraction(1, 4)

    @given(st.fractions(max_denominator=50))
    def test_odd_and_periodic(self, x):
        assert sawtooth(-x) == -sawtooth(x)
        assert sawtooth(x + 1) == sawtooth(x)


class TestDigitCap:
    def test_boundary(self):
        top = 10**DIGIT_LIMIT - 1
        assert check_digits(top) == top and check_digits(-top) == -top
        assert check_digits(Fraction(1, top)) == Fraction(1, top)
        for x in (top + 1, -top - 1, Fraction(1, top + 1)):
            with pytest.raises(ResourceLimitError, match=f"{DIGIT_LIMIT}-digit cap"):
                check_digits(x)

    def test_quarters_match_general_rule(self):
        # quarters, what the CLI prints most, against the reference rule,
        # near zero and where the cap on the printed digits bites
        top = 10**DIGIT_LIMIT
        nums = list(range(-2000, 2001))
        for edge in (top, top // 2, top // 5, top // 10, top // 25, top // 100):
            nums += [sign * (edge + d) for sign in (1, -1) for d in range(-3, 4)]
        for den in (1, 2, 4):
            for n in nums:
                if math.gcd(n, den) == 1:
                    x = Fraction(n, den)
                    assert dec_outcome(dec, x) == dec_outcome(reference_dec, x), x

    def test_every_denominator(self):
        # denominators 2^a 5^b print as exact decimals, any other as p/q
        for den in range(1, 1001):
            for n in range(-30, 31):
                x = Fraction(n, den)
                if x.denominator != den:
                    continue
                if 10**12 % den == 0:
                    assert dec(x) == reference_dec(x), x
                else:
                    assert dec(x) == f"{n}/{den}", x

    def test_dec_takes_only_ints_and_fractions(self):
        # a float would print its binary value, 0.1 as 55 digits
        for value in (0.1, 1.0, True, False, "1", Decimal("0.1"), None, 1 + 0j):
            with pytest.raises(TypeError):
                dec(value)
        assert [dec(n) for n in (0, 3, -7, 10**20)] == ["0.0", "3.0", "-7.0", "1" + "0" * 20 + ".0"]
        assert [dec(Fraction(n, d)) for n, d in ((1, 4), (-1, 8), (1, 3), (6, 4))] == [
            "0.25", "-0.125", "1/3", "1.5"
        ]

    def test_dec_refuses_long_output(self):
        # the numerator fits, but the exact decimal of x/8 has 3 more digits
        x = Fraction(10**DIGIT_LIMIT - 1, 8)
        with pytest.raises(ResourceLimitError):
            dec(x)
        assert dec(Fraction(10 ** (DIGIT_LIMIT - 4) + 1, 8)).endswith(".125")


@pytest.mark.parametrize(
    "entry, args",
    [
        (unknotting_one_obstruction, (7.0,)),
        (unknotting_one_obstruction, (True,)),
        (is_square_mod, (2.0, 7)),
        (is_square_mod, (2, True)),
        (LensSpace, (9, True)),
        (find_admissible_cf, (3, True)),
        (find_positive_cf, (3, True)),
        (admissible_cf, ((True,), ())),
        (admissible_cf, ((2, -1), (True,))),
        (qr_obstruction, (9, True)),
        (classify_order, ((9, True),)),
        (m_bounds, ((9, True),)),
        (MpqrTriple, (True, 3, 7)),
        (MpqrTriple, (2.0, 3, 7)),
    ],
)
def test_integer_entries_refuse_bools_and_floats(entry, args):
    # every public integer entry reads through arith._index: a float is
    # not exact, and a bool would be read as 0 or 1
    with pytest.raises(TypeError):
        entry(*args)


@pytest.mark.parametrize(
    "space, message",
    [((9, 3), "LensSpace requires gcd(alpha, beta) = 1"), ((8, 3), "LensSpace requires odd alpha >= 1")],
    ids=["9-3", "8-3"],
)
def test_lens_entries_read_the_space_through_lens_space(space, message):
    # a bare pair gets LensSpace's own refusal, not a failure inside the walk
    for entry in (classify_order, m_bounds):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            entry(space)
