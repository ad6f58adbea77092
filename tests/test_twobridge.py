import math
import time

import pytest

from cobkit.contfrac import AdmissibleCF, admissible_cf, find_admissible_cf, parse_cf
from cobkit.errors import DomainError
from cobkit.twobridge import (
    FourPlat,
    GenusBound,
    OddCounts,
    determinant,
    odd_counts,
    signature,
    slice_genus_upper,
)


def plat(text: str) -> FourPlat:
    return FourPlat(parse_cf(text))


def murasugi_signature(p: int, q: int) -> int:
    """sigma(S(p, q)) = sum_{i=1}^{p-1} (-1)^floor(iq/p), Murasugi's
    lattice-point formula: a route that needs no expansion."""
    return sum(1 - 2 * (i * q // p % 2) for i in range(1, p))


class TestFourPlat:
    def test_rejects_inadmissible(self):
        bad = AdmissibleCF(a=(2, 0), b=(1,), alpha=7, beta=3)
        with pytest.raises(DomainError):
            FourPlat(bad)

    def test_rejects_hand_built_wrong_target(self):
        # shape and signs are admissible; only folding shows 7/3 != 11/3
        bad = AdmissibleCF(a=(2, -1), b=(2,), alpha=11, beta=3)
        with pytest.raises(DomainError):
            FourPlat(bad)

    def test_knot_detection(self):
        assert plat("[3]").is_knot
        assert plat("[1,2,-2]").is_knot
        assert not FourPlat(admissible_cf((2,), ())).is_knot  # Hopf link

    def test_determinant_is_alpha(self):
        assert determinant(plat("[3]")) == 3
        assert determinant(plat("[2,4,-1]")) == 7
        assert determinant(plat("[2,4,-1,-2,2]")) == 39


class TestSignature:
    def test_trefoil_convention(self):
        assert signature(plat("[3]")) == 2

    def test_small_cases(self):
        assert signature(plat("[2,4,-1]")) == 2
        assert signature(plat("[1,2,-2]")) == 0  # figure eight
        assert signature(plat("[7]")) == 6
        assert signature(plat("[2,4,-1,-2,1,4,-1]")) == 2

    def test_parity_matches_knot_or_link(self):
        for alpha in range(3, 60):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                p = FourPlat(find_admissible_cf(alpha, beta))
                assert signature(p) % 2 == (0 if p.is_knot else 1)

    def test_matches_lattice_point_formula(self):
        start = time.perf_counter()
        pairs = 0
        for alpha in range(3, 300, 2):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                p = FourPlat(find_admissible_cf(alpha, beta))
                assert signature(p) == murasugi_signature(alpha, beta), (alpha, beta)
                pairs += 1
        assert pairs == 9116
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"


class TestOddCounts:
    def test_cases(self):
        assert odd_counts(plat("[3]")) == OddCounts(pos=1, neg=0)
        assert odd_counts(plat("[2,4,-1]")) == OddCounts(pos=0, neg=1)
        assert odd_counts(plat("[1,2,-2]")) == OddCounts(pos=1, neg=0)
        assert odd_counts(plat("[2,4,-1,-2,1,4,-1]")) == OddCounts(pos=1, neg=2)


class TestSliceGenus:
    def test_unknot(self):
        bound = slice_genus_upper(FourPlat(admissible_cf((1,), ())))
        assert bound == GenusBound(value=0, pos_changes=0, neg_changes=0, seifert_genus=0)

    def test_trefoil(self):
        bound = slice_genus_upper(plat("[3]"))
        assert bound == GenusBound(value=1, pos_changes=0, neg_changes=1, seifert_genus=0)

    def test_figure_eight(self):
        bound = slice_genus_upper(plat("[1,2,-2]"))
        assert bound == GenusBound(value=1, pos_changes=1, neg_changes=0, seifert_genus=0)

    def test_seven_one(self):
        assert slice_genus_upper(plat("[7]")).value == 3

    def test_series_members(self):
        assert slice_genus_upper(plat("[2,4,-1,-2,2]")).value == 2
        bound = slice_genus_upper(plat("[2,4,-1,-2,1,4,-1]"))
        assert bound == GenusBound(value=2, pos_changes=0, neg_changes=1, seifert_genus=1)

    def test_rejects_links(self):
        with pytest.raises(DomainError):
            slice_genus_upper(FourPlat(admissible_cf((2,), ())))

    def test_dominates_half_signature(self):
        # the slice genus bound can never undercut |signature| / 2
        for alpha in range(3, 120, 2):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                p = FourPlat(find_admissible_cf(alpha, beta))
                assert 2 * slice_genus_upper(p).value >= abs(signature(p))

    def test_crossing_change_identity(self):
        for alpha in range(3, 90, 2):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                b = slice_genus_upper(FourPlat(find_admissible_cf(alpha, beta)))
                assert b.value == b.seifert_genus + max(b.pos_changes, b.neg_changes)
                assert b.value >= b.seifert_genus
