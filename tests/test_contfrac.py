import itertools
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cobkit import contfrac
from cobkit.contfrac import (
    AdmissibleCF,
    admissible_cf,
    euclid_steps,
    eval_terms,
    find_admissible_cf,
    find_positive_cf,
    format_cf,
    parse_cf,
)
from cobkit.arith import DIGIT_LIMIT
from cobkit.errors import DomainError, EvaluationError, ResourceLimitError
from cobkit.lens import LensSpace, classify_order
from oracles import admissible_violation, eval_cf, rule_violation


def fraction_fold(terms) -> Fraction:
    """Reference fold with Fraction arithmetic, innermost term first."""
    value = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        if value == 0:
            raise EvaluationError("zero intermediate denominator")
        value = t + 1 / value
    return value


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
        assert eval_terms([2, 4, -1]) == Fraction(7, 3)
        assert eval_terms([1, 2, 2]) == Fraction(7, 5)

    def test_zero_intermediate_rejected(self):
        # innermost layers fold to 2 + 1/0
        with pytest.raises(EvaluationError):
            eval_cf((1, 1, 1), (1, -1))
        with pytest.raises(EvaluationError):
            eval_terms([3, 0])

    def test_needs_matching_shape(self):
        with pytest.raises(DomainError):
            eval_cf((2,), (2,))
        with pytest.raises(DomainError):
            eval_terms([])

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(-6, 6) | st.integers(-(10**30), 10**30), min_size=1, max_size=12))
    def test_integer_fold_matches_fraction_fold(self, terms):
        try:
            expected = fraction_fold(terms)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                eval_terms(terms)
        else:
            value = eval_terms(terms)
            assert isinstance(value, Fraction) and value == expected

    def test_zero_terms(self):
        assert eval_terms([0]) == 0
        assert eval_terms([2, 0, 3]) == fraction_fold([2, 0, 3]) == 5
        with pytest.raises(EvaluationError):
            eval_terms([1, 0])
        with pytest.raises(EvaluationError):
            eval_terms([1, 1, -1, 1])


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
        folds = []
        fold = contfrac._fold

        def counting(terms):
            folds.append(tuple(terms))
            return fold(terms)

        monkeypatch.setattr("cobkit.contfrac._fold", counting)
        report = classify_order(LensSpace(39, 22))
        assert folds == [report.cf.terms]


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
    """The common case of the rules is decided with C builtins; a failure
    is still worded by walking them in order.  The record and admissible_cf give
    the messages of the rules walked one by one (tests/oracles.py)."""

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
        if len(a) != len(b) + 1:
            want = "admissible_cf requires len(a) = len(b) + 1"
        elif rule_violation(a, b) is not None:
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
        with pytest.raises(DomainError):
            find_admissible_cf(4, 2)
        with pytest.raises(DomainError):
            find_admissible_cf(5, 2)
        with pytest.raises(DomainError):
            find_admissible_cf(3, 5)
        with pytest.raises(DomainError):
            find_admissible_cf(3, 0)

    def test_long_euclid_chain(self):
        # about 2,000 Euclid steps: deeper than the interpreter's recursion limit
        alpha, beta = fibonacci(2002), fibonacci(2000)
        cf = find_admissible_cf(alpha, beta)
        assert eval_terms(cf.terms) == Fraction(alpha, beta)
        assert len(cf.terms) <= 2 * euclid_steps(alpha, beta) + 4

    @settings(max_examples=150, deadline=None)
    @given(coprime_pairs)
    def test_round_trip_and_depth(self, pair):
        alpha, beta = pair
        cf = find_admissible_cf(alpha, beta)
        assert cf.alpha == alpha and cf.beta == beta
        assert eval_cf(cf.a, cf.b) == Fraction(alpha, beta)
        assert len(cf.terms) <= 2 * euclid_steps(alpha, beta) + 4


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
        for text in ("1,2,3", "[]", "[2,2]", "[1,3,2]", "[1,x,2]", "[1 2 3]"):
            with pytest.raises(DomainError):
                parse_cf(text)

    def test_text_is_remembered(self, monkeypatch):
        cf = find_admissible_cf(39, 17)
        fresh = AdmissibleCF(cf.a, cf.b, cf.alpha, cf.beta)
        text = format_cf(cf)
        # terms is set on each record, so the property shadows it from the class
        monkeypatch.setattr(
            AdmissibleCF, "terms", property(lambda self: 1 / 0), raising=False
        )
        assert format_cf(cf) is text
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
