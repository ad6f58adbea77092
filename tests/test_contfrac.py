import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cobkit import contfrac
from cobkit.contfrac import (
    AdmissibleCF,
    admissible_cf,
    find_admissible_cf,
    find_positive_cf,
    format_cf,
    parse_cf,
)
from cobkit.arith import DIGIT_LIMIT
from cobkit.errors import DomainError, ResourceLimitError
from cobkit.lens import LensSpace, classify_order
from cobkit.twobridge import _tally
from oracles import (
    admissible_violation,
    euclid_steps,
    eval_cf,
    fraction_fold,
    rule_violation,
)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _a_candidates(p: int, q: int) -> list[int]:
    """Search oracle: terms to try at an a-position with value p/q, q > 0.

    floor leaves a positive remainder and ceil a negative one, so the
    candidate whose remainder sign matches its own sign is the one
    nearer zero.
    """
    lo = p // q
    cands = [cand for cand in (lo, lo + 1) if cand != 0 and cand * q != p]
    cands.sort(key=abs)
    return cands


def _b_candidates(p: int, q: int, sign: int) -> list[int]:
    """Search oracle: terms to try at a b-position with value p/q after
    an a-term of this sign."""
    even_floor = 2 * ((p // q) // 2)
    cands = []
    for cand in (even_floor, even_floor + 2, 2 * sign):
        if cand == 0 or (cand > 0) != (sign > 0):
            continue
        if cand * q == p or cand in cands:
            continue
        cands.append(cand)
    return cands


def search_terms(alpha: int, beta: int) -> list[int] | None:
    """The depth-first search find_admissible_cf once ran, kept as an
    oracle: it tries the rounding choices in a fixed order, backtracks
    on dead ends and returns the first success within the term bound.

    A node is the value p/q (lowest terms, q > 0) still to expand and
    the sign of the preceding a-term (0 at an a-position); its depth is
    the number of terms chosen so far.  The stack holds each open
    node's untried candidates in order.
    """
    max_terms = 2 * euclid_steps(alpha, beta) + 4
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


def assert_forced_steps(alpha: int, beta: int, terms) -> None:
    """Replay the expansion: every remainder satisfies |p - t*q| <= q
    (strictly below q at a-positions), q stays positive, and only the
    last term leaves nothing."""
    p, q = alpha, beta
    for i, t in enumerate(terms[:-1]):
        r = p - t * q
        assert r != 0 and abs(r) <= q, (alpha, beta, i)
        assert i % 2 == 1 or abs(r) < q, (alpha, beta, i)
        p, q = (q, r) if r > 0 else (-q, -r)
    assert q == 1 and p == terms[-1], (alpha, beta)


coprime_pairs = st.tuples(st.integers(3, 301), st.integers(1, 299)).filter(
    lambda t: t[1] < t[0] and t[1] % 2 == 1 and math.gcd(t[0], t[1]) == 1
)


def all_positive_expansions(p: int, q: int, at_b: bool = False):
    """Every all-positive admissible expansion of p/q > 0, by exhaustion.

    At an a-position any term 1 <= a <= p/q is tried, at a b-position
    any even 2 <= t <= p/q.  A term that leaves nothing ends the
    expansion at an a-position and is refused at a b-position; a larger
    term leaves a negative remainder, which positive terms cannot
    continue.
    """
    for t in range(2 if at_b else 1, p // q + 1, 2 if at_b else 1):
        r = p - t * q
        if r == 0:
            if not at_b:
                yield [t]
            continue
        for tail in all_positive_expansions(q, r, not at_b):
            yield [t, *tail]


@st.composite
def large_pairs(draw):
    """Coprime (alpha, beta), beta odd, with alpha of 1 to 100 digits."""
    digits = draw(st.integers(1, 100))
    alpha = draw(st.integers(max(3, 10 ** (digits - 1)), 10**digits - 1))
    beta = draw(st.integers(0, (alpha - 2) // 2)) * 2 + 1
    assume(math.gcd(alpha, beta) == 1)
    return alpha, beta


class TestEval:
    def test_single_term(self):
        assert eval_cf((3,), ()) == Fraction(3)
        assert eval_cf((1,), ()) == Fraction(1)

    def test_two_layers(self):
        assert eval_cf((2, -1), (2,)) == Fraction(7, 3)
        assert eval_cf((1, 2), (2,)) == Fraction(11, 9)

    def test_deep_expansion(self):
        assert eval_cf((2, -1, 1, -1), (2, -1, 1)) == Fraction(39, 17)
        assert eval_cf((2, -1, 1, -1), (2, -1, 2)) == Fraction(71, 31)

    def test_interleaving_matters(self):
        assert fraction_fold([2, 4, -1]) == Fraction(7, 3)
        assert fraction_fold([1, 2, 2]) == Fraction(7, 5)

    def test_zero_intermediate_rejected(self):
        # innermost layers fold to 2 + 1/0
        with pytest.raises(DomainError, match="zero intermediate denominator"):
            eval_cf((1, 1, 1), (1, -1))
        with pytest.raises(DomainError, match="zero intermediate denominator"):
            fraction_fold([3, 0])

    def test_needs_matching_shape(self):
        with pytest.raises(DomainError):
            eval_cf((2,), (2,))
        with pytest.raises(DomainError):
            fraction_fold([])

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(-6, 6) | st.integers(-(10**30), 10**30), min_size=1, max_size=12))
    def test_integer_fold_matches_fraction_fold(self, terms):
        # the package folds only terms past the sign rule, where no tail is
        # zero; wherever the reference meets no zero denominator they agree
        try:
            expected = fraction_fold(terms)
        except DomainError:
            assume(False)
        p, q = contfrac._fold(terms)
        assert math.gcd(p, q) == 1 and Fraction(p, q) == expected

    def test_zero_terms(self):
        assert Fraction(*contfrac._fold([0])) == fraction_fold([0]) == 0
        assert Fraction(*contfrac._fold([2, 0, 3])) == fraction_fold([2, 0, 3]) == 5
        for terms in ([1, 0], [1, 1, -1, 1]):
            with pytest.raises(DomainError, match="zero intermediate denominator"):
                fraction_fold(terms)


class TestValidate:
    """AdmissibleCF checks itself when built."""

    def test_accepts_search_output(self):
        # find_admissible_cf raises AssertionError when its record is refused
        for alpha in range(3, 80, 2):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                cf = find_admissible_cf(alpha, beta)
                assert AdmissibleCF(cf.a, cf.b, alpha, beta) == cf

    def test_accepts_unknot(self):
        cf = admissible_cf((1,), ())
        assert cf.alpha == 1 and cf.beta == 1
        assert AdmissibleCF((1,), (), 1, 1) == cf

    def test_admissible_cf_takes_only_integer_terms(self):
        # terms are read with operator.index, never truncated
        for term in (2.5, 2.0, Fraction(5, 2), Fraction(2), "2"):
            with pytest.raises(TypeError):
                admissible_cf((term,), ())
            with pytest.raises(TypeError):
                admissible_cf((3, 1), (term,))
        assert admissible_cf((2,), ()) == AdmissibleCF((2,), (), 2, 1)
        cf = find_admissible_cf(39, 17)
        assert admissible_cf(list(cf.a), iter(cf.b)) == cf

    def test_sign_condition(self):
        # a2 * b2 < 0 breaks the interior sign rule
        with pytest.raises(DomainError, match="violated"):
            AdmissibleCF(a=(1, -1, -1), b=(1, 1), alpha=1, beta=3)

    def test_target_mismatch(self):
        with pytest.raises(DomainError, match="not admissible"):
            AdmissibleCF(a=(3,), b=(), alpha=5, beta=1)

    def test_even_beta_rejected(self):
        with pytest.raises(DomainError, match="odd"):
            AdmissibleCF(a=(3,), b=(), alpha=3, beta=2)

    def test_zero_term_rejected(self):
        with pytest.raises(DomainError, match="not admissible"):
            AdmissibleCF(a=(2, 0), b=(1,), alpha=7, beta=3)

    @pytest.mark.parametrize(
        "a, b, alpha, beta, why",
        [
            ((), (), 1, 1, "a must be nonempty"),
            ((1, 2), (), 3, 1, "len(a) must equal len(b) + 1"),
            ((2, 0), (1,), 7, 3, "all a_i must be nonzero"),
            ((2, 1), (0,), 3, 1, "all b_i must be nonzero"),
            ((1, -1, -1), (1, 1), 1, 3, "a_2 * b_2 > 0 violated"),
            ((3,), (), 3, 5, "target requires 0 < beta <= alpha"),
            ((3,), (), 3, 3, "target beta = alpha only for the unknot 1/1"),
            ((3,), (), 9, 3, "target requires gcd(alpha, beta) = 1"),
            ((3,), (), 3, 2, "target requires odd beta"),
            ((2, -1), (2,), 11, 3, "expansion evaluates to 7/3, not 11/3"),
        ],
    )
    def test_violation_messages(self, a, b, alpha, beta, why):
        with pytest.raises(DomainError, match=f"^{re.escape('not admissible: ' + why)}$"):
            AdmissibleCF(a=a, b=b, alpha=alpha, beta=beta)

    def test_sign_rule_keeps_fold_nonzero(self):
        # why no violation names a zero denominator: past the sign rule,
        # every tail of the fold is nonzero
        values = [t for t in range(-3, 4) if t]
        folded = 0
        for n in (1, 2, 3):
            for a in itertools.product(values, repeat=n):
                for b in itertools.product(values, repeat=n - 1):
                    if all(x * y > 0 for x, y in zip(a, b)):
                        eval_cf(a, b)
                        folded += 1
        assert folded == 6 + 18 * 6 + 18 * 18 * 6  # a_i any, b_i of a_i's sign

    def test_one_fold_per_report(self, monkeypatch):
        # a supplied expansion is folded once, by its builder; the forced
        # one is never folded: its walk checks the target with convergents
        folds = []
        fold = contfrac._fold

        def counting(terms):
            folds.append(tuple(terms))
            return fold(terms)

        monkeypatch.setattr("cobkit.contfrac._fold", counting)
        report = classify_order(LensSpace(39, 17), parse_cf("[2,4,-1,-2,2]"))
        assert folds == [report.cf.terms]
        folds.clear()
        report = classify_order(LensSpace(39, 22))
        assert folds == [] and report.cf.terms == (2, 4, -1, -2, 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: parse_cf("[2,4,-1,-2,2]"),
            lambda: admissible_cf((2, -1, 2), (2, -1)),
            lambda: AdmissibleCF((2, -1, 2), (2, -1), 39, 17),
            lambda cf=find_admissible_cf(39, 17): cf._replace(beta=17),
        ],
        ids=["parse_cf", "admissible_cf", "AdmissibleCF", "_replace"],
    )
    def test_one_fold_per_record(self, monkeypatch, build):
        # the rules and the fold run once, in the one builder every path shares
        folds = []
        fold = contfrac._fold

        def counting(terms):
            folds.append(tuple(terms))
            return fold(terms)

        monkeypatch.setattr("cobkit.contfrac._fold", counting)
        cf = build()
        assert folds == [(2, 4, -1, -2, 2)] and (cf.alpha, cf.beta) == (39, 17)

    def test_record_holds_only_its_fields(self):
        cf = find_admissible_cf(39, 17)
        assert not hasattr(cf, "__dict__")
        with pytest.raises(AttributeError):
            cf.text = "[2,4,-1,-2,2]"


def _message(build, *args) -> str | None:
    """The DomainError message of build(*args), or None when it succeeds."""
    try:
        build(*args)
    except DomainError as exc:
        return str(exc)
    return None


_FAULTS = ("empty a", "longer b", "shorter b", "zero in a", "zero in b", "sign", "target")


@st.composite
def faulty_expansions(draw):
    """(a, b, alpha, beta): an admissible expansion with its own target,
    then none, one or several faults in the drawn order: an empty a, a
    length mismatch, a zero in a or in b, a b-term whose sign differs
    from its a-term's, a wrong target."""
    n = draw(st.integers(1, 5))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    terms = st.integers(1, 9) | st.integers(1, 10**30)
    a = [s * draw(terms) for s in signs]
    b = [s * draw(terms) for s in signs[:-1]]
    value = eval_cf(a, b)
    alpha, beta = value.numerator, value.denominator
    for fault in draw(st.lists(st.sampled_from(_FAULTS), unique=True, max_size=3)):
        if fault == "empty a":
            a = []
        elif fault == "longer b":
            b.append(draw(st.integers(-3, 3)))
        elif fault == "shorter b" and b:
            b.pop()
        elif fault == "zero in a" and a:
            a[draw(st.integers(0, len(a) - 1))] = 0
        elif fault == "zero in b" and b:
            b[draw(st.integers(0, len(b) - 1))] = 0
        elif fault == "sign" and b:
            i = draw(st.integers(0, len(b) - 1))
            b[i] = -b[i]
        elif fault == "target":
            alpha, beta = draw(st.integers(-3, 60)), draw(st.integers(-3, 60))
    return tuple(a), tuple(b), alpha, beta


class TestRuleFastPath:
    """The record and admissible_cf word a failure by walking the rules in
    order, and give the messages of the oracle that walks them one by one
    (tests/oracles.py)."""

    @settings(max_examples=250, deadline=None)
    @given(faulty_expansions())
    def test_record_messages(self, case):
        why = admissible_violation(*case)
        want = None if why is None else f"not admissible: {why}"
        assert _message(AdmissibleCF, *case) == want

    @settings(max_examples=250, deadline=None)
    @given(faulty_expansions())
    def test_admissible_cf_messages(self, case):
        a, b, _, _ = case
        if rule_violation(a, b) is not None:
            want = f"not admissible: {rule_violation(a, b)}"
        elif eval_cf(a, b) <= 0:
            want = "admissible_cf requires a positive value"
        else:
            value = eval_cf(a, b)
            why = admissible_violation(a, b, value.numerator, value.denominator)
            want = None if why is None else f"not admissible: {why}"
        assert _message(admissible_cf, a, b) == want


class TestSearch:
    def test_known_expansions(self):
        assert find_admissible_cf(3, 1).a == (3,)
        cf = find_admissible_cf(11, 9)
        assert cf.a == (1, 2) and cf.b == (2,)
        cf = find_admissible_cf(5, 3)
        assert eval_cf(cf.a, cf.b) == Fraction(5, 3)

    def test_series_member(self):
        cf = find_admissible_cf(39, 17)
        assert eval_cf(cf.a, cf.b) == Fraction(39, 17)

    def test_search_requires_proper_fraction(self):
        with pytest.raises(DomainError):
            find_admissible_cf(1, 1)

    def test_rejects_bad_pairs(self):
        for pair, message in (
            ((4, 2), "requires gcd(alpha, beta) = 1"),
            ((9, 3), "requires gcd(alpha, beta) = 1"),
            ((5, 2), "requires odd beta"),
            ((3, 5), "requires 0 < beta < alpha"),
            ((3, 0), "requires 0 < beta < alpha"),
            ((7, 7), "requires 0 < beta < alpha"),
            ((1, 1), "requires 0 < beta < alpha"),
        ):
            for find in (find_admissible_cf, find_positive_cf):
                assert _message(find, *pair) == message, (find, pair)
        assert _message(find_positive_cf, 8, 3) == "requires odd alpha"

    def test_euclid_steps(self):
        # the overrun bound counts the division steps exactly
        assert [euclid_steps(*pair) for pair in ((7, 0), (3, 1), (5, 3), (39, 17))] == [0, 1, 3, 4]
        assert euclid_steps(fibonacci(2002), fibonacci(2001)) == 2000

    def test_term_count_on_large_pairs(self):
        # the forced expansion takes at most 2 * euclid_steps - 1 terms, five
        # fewer than its overrun assert allows, on a seeded sample of 1-100
        # digit pairs, the range the queries bench draws; the small-pair
        # sweep of TestDirectRule checks every pair with alpha < 400
        rng = random.Random(0)
        for digits in range(1, 101):
            for _ in range(20):
                alpha = max(rng.randrange(10 ** (digits - 1), 10**digits), 3)
                beta = rng.randrange(1, alpha) | 1
                if beta < alpha and math.gcd(alpha, beta) == 1:
                    terms = find_admissible_cf(alpha, beta).terms
                    assert len(terms) <= 2 * euclid_steps(alpha, beta) - 1, (alpha, beta)

    def test_long_euclid_chain(self):
        # about 2,000 Euclid steps: deeper than the interpreter's recursion limit
        alpha, beta = fibonacci(2002), fibonacci(2000)
        cf = find_admissible_cf(alpha, beta)
        assert fraction_fold(cf.terms) == Fraction(alpha, beta)
        assert len(cf.terms) <= 2 * euclid_steps(alpha, beta) + 4

    @settings(max_examples=150, deadline=None)
    @given(coprime_pairs)
    def test_round_trip_and_depth(self, pair):
        alpha, beta = pair
        cf = find_admissible_cf(alpha, beta)
        assert cf.alpha == alpha and cf.beta == beta
        assert eval_cf(cf.a, cf.b) == Fraction(alpha, beta)
        assert len(cf.terms) <= 2 * euclid_steps(alpha, beta) + 4


class TestWalk:
    """The forced walk checks each term as it makes it.  On the pairs the
    callers pass no check can fail, so the checks are driven here with
    pairs outside that domain, and their wording read from _refuse."""

    @staticmethod
    def _refusal(alpha, beta) -> str:
        with pytest.raises(AssertionError) as info:
            contfrac._walk(alpha, beta)
        return str(info.value)

    def test_sign_rule_is_checked_per_b_term(self):
        # 1/-3 walks [-1, 2, -2]: a_1 = -1 and b_1 = 1 differ in sign;
        # 3/5 walks a_1 = 0
        assert self._refusal(1, -3) == "expansion invalid for 1/-3: not admissible: a_1 * b_1 > 0 violated"
        assert self._refusal(3, 5) == "expansion invalid for 3/5: not admissible: all a_i must be nonzero"

    def test_last_term_must_be_nonzero(self):
        # 0/1 walks [0]: no b-term, so only the a_n check can refuse it
        assert self._refusal(0, 1) == "expansion invalid for 0/1: not admissible: all a_i must be nonzero"

    def test_overrun_bound_is_exact(self):
        # 1/-3 takes one b-step, the most euclid_steps(-2, 1) = 1 allows, and
        # goes on to fail its sign rule; 1/-5 asks for a second and overruns
        assert euclid_steps(1 + -3, 1) == 1 and euclid_steps(1 + -5, 1) == 1
        assert "a_1 * b_1 > 0 violated" in self._refusal(1, -3)
        assert self._refusal(1, -5) == "admissible expansion overran its bound for 1/-5"
        # the Euclid pair is (alpha + beta, alpha): both pairs below take three
        # b-steps, which euclid_steps(-9, 4) = 3 allows and euclid_steps(-17, -4) = 2 does not
        assert "a_1 * b_1 > 0 violated" in self._refusal(4, -13)
        assert self._refusal(-4, -13) == "admissible expansion overran its bound for -4/-13"

    def test_refusal_is_worded_by_the_builder(self):
        # the target rule, as _target_violation words it
        with pytest.raises(AssertionError, match=r"^expansion invalid for 39/17: not admissible: "
                           r"expansion evaluates to 62/27, not 39/17$"):
            contfrac._refuse(39, 17, [2, 4, -1, -2, 3])
        # terms the builder accepts: the walk's own check was at fault
        with pytest.raises(AssertionError, match=r"^expansion invalid for 39/17: the walk refused \[2,4,-1,-2,2\]$"):
            contfrac._refuse(39, 17, [2, 4, -1, -2, 2])

    def test_walk_and_tally(self):
        terms, tally = contfrac._walk(39, 17)
        assert terms == [2, 4, -1, -2, 2] and tally == (2, 8, 0, 1)

    def test_long_walk_matches_the_record_route(self):
        # F(19079)/F(19078) has 3,987 digits, under the default digit cap,
        # and a forced expansion of 12,719 terms
        alpha, beta = fibonacci(19079), fibonacci(19078)
        start = time.perf_counter()
        terms, tally = contfrac._walk(alpha, beta)
        row = classify_order(LensSpace(alpha, beta)).row
        elapsed = time.perf_counter() - start
        assert len(terms) == 12719
        record = AdmissibleCF(*find_admissible_cf(alpha, beta))  # the full builder
        assert list(record.terms) == terms and tally == _tally(record.a)
        assert row == classify_order(LensSpace(alpha, beta), record).row
        assert row.cf == format_cf(record)
        assert elapsed < 2.0, f"walk and row took {elapsed:.2f}s, budget 2s"


class TestDirectRule:
    """Each term is forced, so the one-pass expansion is the expansion
    the backtracking search finds first."""

    def test_matches_search_on_every_small_pair(self):
        start = time.perf_counter()
        pairs = 0
        for alpha in range(3, 400):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                terms = list(find_admissible_cf(alpha, beta).terms)
                assert terms == search_terms(alpha, beta), (alpha, beta)
                assert_forced_steps(alpha, beta, terms)
                assert len(terms) <= 2 * euclid_steps(alpha, beta) - 1, (alpha, beta)
                pairs += 1
        assert pairs == 32334
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"

    @settings(max_examples=100, deadline=None)
    @given(large_pairs())
    def test_matches_search_on_large_pairs(self, pair):
        alpha, beta = pair
        terms = list(find_admissible_cf(alpha, beta).terms)
        assert terms == search_terms(alpha, beta)
        assert_forced_steps(alpha, beta, terms)


class TestPositive:
    def test_known_cases(self):
        cf = find_positive_cf(11, 9)
        assert cf.terms == (1, 4, 2)
        cf = find_positive_cf(21, 17)
        assert cf.terms == (1, 4, 4)
        assert find_positive_cf(3, 1).terms == (3,)

    def test_obstructed_case(self):
        assert find_positive_cf(5, 3) is None

    def test_requires_odd_pair(self):
        with pytest.raises(DomainError):
            find_positive_cf(4, 3)
        with pytest.raises(DomainError):
            find_positive_cf(7, 2)

    def test_outputs_are_positive_and_exact(self):
        found = 0
        for alpha in range(3, 100, 2):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                cf = find_positive_cf(alpha, beta)
                if cf is None:
                    continue
                found += 1
                assert all(t > 0 for t in cf.terms)
                assert eval_cf(cf.a, cf.b) == Fraction(alpha, beta)
        assert found > 0

    def test_greedy_is_forced(self):
        # None means no all-positive expansion exists, and one found is the only one
        pairs = found = 0
        for alpha in range(3, 200, 2):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                every = list(all_positive_expansions(alpha, beta))
                cf = find_positive_cf(alpha, beta)
                assert len(every) <= 1, (alpha, beta, every)
                assert (cf is None) == (not every), (alpha, beta)
                if every:
                    assert list(cf.terms) == every[0], (alpha, beta)
                    found += 1
                pairs += 1
        assert pairs == 4075 and found > 0


class TestFormatting:
    def test_format(self):
        assert format_cf(find_admissible_cf(11, 9)) == "[1,4,2]"
        assert format_cf(find_admissible_cf(3, 1)) == "[3]"

    def test_parse(self):
        cf = parse_cf("[2,4,-1]")
        assert cf.a == (2, -1) and cf.b == (2,)
        assert cf.alpha == 7 and cf.beta == 3

    def test_round_trip(self):
        for text in ("[3]", "[1,4,2]", "[2,4,-1,-2,2]", "[1,2,-2]"):
            assert format_cf(parse_cf(text)) == text

    def test_parse_rejects_garbage(self):
        shape = "continued fraction text must look like [a1,2b1,...,an]"
        bad_term = "bad continued fraction term: invalid literal for int() with base 10: "
        for text, message in (
            ("1,2,3", shape),
            ("[1,2,3", shape),
            ("[]", "continued fraction text must contain terms"),
            (" [ ] ", "continued fraction text must contain terms"),
            ("[2,2]", "continued fraction must have an odd number of terms"),
            ("[1,3,2]", "terms at even positions must be even integers"),
            ("[1,x,2]", bad_term + "'x'"),
            ("[1 2 3]", bad_term + "'1 2 3'"),
            ("[1,-2,3]", "not admissible: a_1 * b_1 > 0 violated"),
        ):
            assert _message(parse_cf, text) == message, text

    def test_rebuilt_record_is_the_same(self):
        cf = find_admissible_cf(39, 17)
        fresh = AdmissibleCF(cf.a, cf.b, cf.alpha, cf.beta)
        assert format_cf(fresh) == format_cf(cf) == "[2,4,-1,-2,2]"
        assert fresh == cf and hash(fresh) == hash(cf)
        assert repr(fresh) == "AdmissibleCF(a=(2, -1, 2), b=(2, -1), alpha=39, beta=17)"

    def test_parse_caps_the_value(self):
        # 3,001 terms whose value alpha/beta has more than DIGIT_LIMIT digits
        text = "[" + ",".join(map(str, [99, 98] * 1500 + [99])) + "]"
        with pytest.raises(ResourceLimitError, match=f"{DIGIT_LIMIT}-digit cap"):
            parse_cf(text)


all_positive_terms = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.tuples(*[st.integers(1, 5)] * n),
        st.tuples(*[st.integers(1, 5)] * (n - 1)),
    )
)


class TestMonotonicity:
    """Raising a term moves the value up or down according to its depth:
    outer-layer terms push the value up, interleaved-layer terms pull it
    down.
    """

    @given(all_positive_terms)
    def test_alternating_directions(self, ab):
        a, b = ab
        base = eval_cf(a, b)
        for i in range(len(a)):
            bumped = list(a)
            bumped[i] += 1
            assert eval_cf(tuple(bumped), b) > base
        for i in range(len(b)):
            bumped = list(b)
            bumped[i] += 1
            assert eval_cf(a, tuple(bumped)) < base
