import math
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from cobkit.contfrac import (
    AdmissibleCF,
    admissible_cf,
    find_admissible_cf,
    parse_cf,
)
from cobkit.errors import DomainError
from cobkit.twobridge import (
    GenusBound,
    OddCounts,
    _knot_invariants,
    is_knot,
    odd_counts,
    signature,
    slice_genus_upper,
)
from oracles import eval_cf, five_sum_invariants, murasugi_signature


def one_pass_invariants(cf: AdmissibleCF) -> tuple[int, OddCounts, GenusBound | None]:
    try:
        genus = slice_genus_upper(cf)
    except DomainError:
        assert not is_knot(cf)
        genus = None
    else:
        # lens reads the signature and the bound from the same tally
        assert _knot_invariants(cf) == (signature(cf), *genus)
    return signature(cf), odd_counts(cf), genus


@st.composite
def big_term_expansions(draw):
    """Admissible expansions of 1-8 a-terms, each term up to 100 digits."""
    n = draw(st.integers(1, 8))
    size = st.integers(1, 9) | st.integers(1, 10**100 - 1)
    signs = [1] + [draw(st.sampled_from((1, -1))) for _ in range(n - 1)]
    a = [sign * draw(size) for sign in signs]
    b = [sign * draw(size) for sign in signs[:-1]]
    # a_1 > 0 makes the value at least 1, so only an even beta is refused
    assume(eval_cf(a, b).denominator % 2 == 1)
    return admissible_cf(a, b)


class TestOnePassOracle:
    """The one-pass tally gives what the separate sums gave."""

    def test_every_small_pair(self):
        start = time.perf_counter()
        pairs = 0
        for alpha in range(3, 400):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                cf = find_admissible_cf(alpha, beta)
                assert one_pass_invariants(cf) == five_sum_invariants(cf.a), (alpha, beta)
                pairs += 1
        assert pairs == 32334
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"

    @settings(max_examples=200, deadline=None)
    @given(big_term_expansions())
    def test_big_terms(self, cf):
        assert one_pass_invariants(cf) == five_sum_invariants(cf.a)


class TestFourPlat:
    """A 4-plat presentation is an admissible expansion; the record
    refuses anything else."""

    def test_rejects_inadmissible(self):
        with pytest.raises(DomainError, match="not admissible: all a_i must be nonzero"):
            AdmissibleCF(a=(2, 0), b=(1,), alpha=7, beta=3)

    def test_rejects_hand_built_wrong_target(self):
        # shape and signs are admissible; only folding shows 7/3 != 11/3
        with pytest.raises(DomainError, match="evaluates to 7/3, not 11/3"):
            AdmissibleCF(a=(2, -1), b=(2,), alpha=11, beta=3)

    def test_knot_detection(self):
        assert is_knot(parse_cf("[3]"))
        assert is_knot(parse_cf("[1,2,-2]"))
        assert not is_knot(admissible_cf((2,), ()))  # Hopf link


class TestSignature:
    def test_trefoil_convention(self):
        assert signature(parse_cf("[3]")) == 2

    def test_small_cases(self):
        assert signature(parse_cf("[2,4,-1]")) == 2
        assert signature(parse_cf("[1,2,-2]")) == 0  # figure eight
        assert signature(parse_cf("[7]")) == 6
        assert signature(parse_cf("[2,4,-1,-2,1,4,-1]")) == 2

    def test_parity_matches_knot_or_link(self):
        for alpha in range(3, 60):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                cf = find_admissible_cf(alpha, beta)
                assert signature(cf) % 2 == (0 if is_knot(cf) else 1)

    def test_matches_lattice_point_formula(self):
        start = time.perf_counter()
        pairs = 0
        for alpha in range(3, 300, 2):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                cf = find_admissible_cf(alpha, beta)
                assert signature(cf) == murasugi_signature(alpha, beta), (alpha, beta)
                pairs += 1
        assert pairs == 9116
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"


class TestOddCounts:
    def test_cases(self):
        assert odd_counts(parse_cf("[3]")) == OddCounts(pos=1, neg=0)
        assert odd_counts(parse_cf("[2,4,-1]")) == OddCounts(pos=0, neg=1)
        assert odd_counts(parse_cf("[1,2,-2]")) == OddCounts(pos=1, neg=0)
        assert odd_counts(parse_cf("[2,4,-1,-2,1,4,-1]")) == OddCounts(pos=1, neg=2)


class TestSliceGenus:
    def test_unknot(self):
        bound = slice_genus_upper(admissible_cf((1,), ()))
        assert bound == GenusBound(value=0, pos_changes=0, neg_changes=0, seifert_genus=0)

    def test_trefoil(self):
        bound = slice_genus_upper(parse_cf("[3]"))
        assert bound == GenusBound(value=1, pos_changes=0, neg_changes=1, seifert_genus=0)

    def test_figure_eight(self):
        bound = slice_genus_upper(parse_cf("[1,2,-2]"))
        assert bound == GenusBound(value=1, pos_changes=1, neg_changes=0, seifert_genus=0)

    def test_seven_one(self):
        assert slice_genus_upper(parse_cf("[7]")).value == 3

    def test_series_members(self):
        assert slice_genus_upper(parse_cf("[2,4,-1,-2,2]")).value == 2
        bound = slice_genus_upper(parse_cf("[2,4,-1,-2,1,4,-1]"))
        assert bound == GenusBound(value=2, pos_changes=0, neg_changes=1, seifert_genus=1)

    def test_rejects_links(self):
        with pytest.raises(DomainError):
            slice_genus_upper(admissible_cf((2,), ()))

    def test_dominates_half_signature(self):
        # the slice genus bound can never undercut |signature| / 2
        start = time.perf_counter()
        pairs = 0
        for alpha in range(3, 300, 2):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                cf = find_admissible_cf(alpha, beta)
                assert 2 * slice_genus_upper(cf).value >= abs(signature(cf))
                pairs += 1
        assert pairs == 9116
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"

    def test_crossing_change_identity(self):
        for alpha in range(3, 90, 2):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                b = slice_genus_upper(find_admissible_cf(alpha, beta))
                assert b.value == b.seifert_genus + max(b.pos_changes, b.neg_changes)
                assert b.value >= b.seifert_genus
