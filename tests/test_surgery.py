import json
import math
import random
import time
from fractions import Fraction

import pytest

from cobkit.cli import main
from cobkit.errors import DomainError
from cobkit.lens import LensSpace, m_bounds
from cobkit.surgery import (
    arf_from_surgery,
    congruence_obstruction,
    obstruction_report,
    qr_obstruction,
    slice_genus_lower,
    unknotting_one_obstruction,
)
from oracles import (
    CharSurfaceData,
    bound_from_filling,
    dedekind_sum,
    m_bounds_from_surgery,
    reversal_verdict,
    spin_surgery_model,
)


def known_lens_surgeries():
    """(n, beta, g): n-surgery on a knot of slice genus g is L(|n|, beta).

    Moser (1971): pq + 1 and pq - 1 surgery on the torus knot T(p, q)
    are lens spaces, +n giving L(n, -q^2 mod n) and -n on the mirror
    L(n, q^2 mod n); Kronheimer-Mrowka (1993): g(T(p, q)) = (p-1)(q-1)/2.
    Taken for coprime 2 <= p < q, p < 40, q < 60, pq even (so n is odd).
    Then the unknot, g = 0: +n surgery is L(n, n-1), -n surgery L(n, 1).
    """
    out = []
    for p in range(2, 40):
        for q in range(p + 1, 60):
            if math.gcd(p, q) != 1 or p * q % 2:
                continue
            g = (p - 1) * (q - 1) // 2
            for n in (p * q - 1, p * q + 1):
                out.append((n, -q * q % n, g))
                out.append((-n, q * q % n, g))
    for n in range(3, 200, 2):
        out.append((n, n - 1, 0))
        out.append((-n, 1, 0))
    return out


def lens_genus_bound(h, bounds):
    """What genus-bound --lens answers for a lens space of order h with
    these bounds, or None where it refuses."""
    try:
        return slice_genus_lower(h, bounds.rokhlin, bounds.m_lower)
    except DomainError:
        return None


# L(n, 1), n = 1 mod 8, is -n surgery on the unknot, but genus-bound
# --lens bounds only the +n framing and claims a positive genus there.
OVERCLAIMED = [(-n, 1, 0) for n in range(9, 200, 8)]


class TestArf:
    def test_unknot_framings(self):
        # +3 surgery on the unknot is L(3,2), -3 surgery is L(3,1)
        assert arf_from_surgery(3, 14) == 0
        assert arf_from_surgery(-3, 2) == 0

    def test_arf_one(self):
        assert arf_from_surgery(3, 6) == 1
        assert arf_from_surgery(-3, 10) == 1

    def test_incompatible(self):
        assert arf_from_surgery(3, 2) is None
        assert arf_from_surgery(-3, 6) is None

    def test_rejects_even_or_zero(self):
        with pytest.raises(DomainError):
            arf_from_surgery(4, 0)
        with pytest.raises(DomainError):
            arf_from_surgery(0, 0)

    def test_inverts_rokhlin_formula(self):
        for n in range(-25, 26):
            if n == 0 or n % 2 == 0:
                continue
            eps = 1 if n > 0 else -1
            for r in range(0, 16, 2):
                a = arf_from_surgery(n, r)
                if a is None:
                    continue
                assert (-(n - eps) + 8 * a) % 16 == r

    def test_matches_congruence_signs(self):
        # the literal rules: '+' needs h - 1 = -R and '-' needs h - 1 = +R mod 8
        for h in range(1, 400, 2):
            for r in range(-2, 18):
                if r % 2:
                    with pytest.raises(DomainError, match="is even"):
                        congruence_obstruction(h, r)
                    continue
                want = {"+"} if (h - 1 + r) % 8 == 0 else set()
                if (h - 1 - r) % 8 == 0:
                    want.add("-")
                assert congruence_obstruction(h, r) == want, (h, r)


class TestCongruence:
    def test_both_framings_excluded(self):
        assert congruence_obstruction(21, 8) == frozenset()

    def test_single_sign(self):
        assert congruence_obstruction(3, 2) == frozenset({"-"})
        assert congruence_obstruction(7, 6) == frozenset({"-"})
        assert congruence_obstruction(3, 14) == frozenset({"+"})

    def test_both_signs(self):
        assert congruence_obstruction(9, 0) == frozenset({"+", "-"})
        assert congruence_obstruction(5, 4) == frozenset({"+", "-"})
        assert congruence_obstruction(1, 0) == frozenset({"+", "-"})

    def test_rejects_even_h(self):
        with pytest.raises(DomainError):
            congruence_obstruction(4, 0)

    def test_rejects_h_below_one(self):
        # its own message, not the one -h would reach in arf_from_surgery
        for h in (4, 0, -1, -3):
            with pytest.raises(DomainError, match="requires odd h >= 1"):
                congruence_obstruction(h, 0)


class TestSurgeryCandidate:
    """What a surgery candidate (n, R, g) forces, and the candidates
    m_bounds_from_surgery rejects."""

    def test_forced_data(self):
        assert arf_from_surgery(-3, 2) == 0
        assert arf_from_surgery(3, 6) == 1
        assert "Arf=1" in m_bounds_from_surgery(3, 6, 2).provenance[0]

    def test_incompatible(self):
        with pytest.raises(DomainError, match="framing incompatible"):
            m_bounds_from_surgery(3, 2, 0)
        with pytest.raises(DomainError, match="odd nonzero n"):
            m_bounds_from_surgery(4, 0, 0)

    def test_negative_genus(self):
        with pytest.raises(DomainError, match="genus_upper >= 0"):
            m_bounds_from_surgery(3, 14, -1)

    def test_refuses_non_integer_rokhlin(self):
        with pytest.raises(TypeError):
            m_bounds_from_surgery(3, 14.0, 0)
        with pytest.raises(TypeError):
            arf_from_surgery(3, Fraction(14))
        with pytest.raises(TypeError):
            congruence_obstruction(3, "14")

    def test_refuses_non_integer_n_h_and_genus(self):
        # n, h and g are read with operator.index, as RokhlinClass reads R
        for bad in (3.0, Fraction(3), "3"):
            with pytest.raises(TypeError):
                arf_from_surgery(bad, 14)
            with pytest.raises(TypeError):
                congruence_obstruction(bad, 14)
            with pytest.raises(TypeError):
                m_bounds_from_surgery(bad, 14, 0)
            with pytest.raises(TypeError):
                m_bounds_from_surgery(3, 14, bad)
            with pytest.raises(TypeError):
                slice_genus_lower(bad, 14, 0)
        assert arf_from_surgery(3, 14) == 0
        assert congruence_obstruction(3, 14) == frozenset({"+"})


class TestSpinModel:
    def test_arf_zero(self):
        f = spin_surgery_model(CharSurfaceData(3, 0, 0, 1, 1))
        assert (f.sigma, f.b2) == (-2, 2)

    def test_arf_one(self):
        f = spin_surgery_model(CharSurfaceData(3, 0, 1, 1, 1))
        assert (f.sigma, f.b2) == (-10, 14)

    def test_genus_contributes(self):
        f = spin_surgery_model(CharSurfaceData(1, 1, 0, 1, 1))
        assert (f.sigma, f.b2) == (0, 2)

    def test_negative_framing(self):
        f = spin_surgery_model(CharSurfaceData(-3, 0, 1, -1, 1))
        assert (f.sigma, f.b2) == (10, 14)

    def test_rejects_bad_data(self):
        with pytest.raises(DomainError):
            CharSurfaceData(0, 0, 0, 0, 1)
        with pytest.raises(DomainError):
            CharSurfaceData(3, -1, 0, 0, 1)
        with pytest.raises(DomainError):
            CharSurfaceData(3, 0, 2, 0, 1)

    def test_impossible_geometry_rejected(self):
        # a genus zero surface in a tiny ambient gives negative b2
        with pytest.raises(DomainError):
            spin_surgery_model(CharSurfaceData(1, 0, 0, 0, 0))


class TestSurgeryBounds:
    def test_positive_framing(self):
        x = m_bounds_from_surgery(3, 14, 0)
        assert (x.m_lower, x.mbar_upper, x.rokhlin.value) == (
            Fraction(-9, 2),
            Fraction(-1, 2),
            14,
        )

    def test_trivial_framing(self):
        x = m_bounds_from_surgery(1, 0, 0)
        assert (x.m_lower, x.mbar_upper) == (0, 0)

    def test_negative_framing_matches_lens(self):
        x = m_bounds_from_surgery(-3, 2, 0)
        y = m_bounds(LensSpace(3, 1))
        assert (x.m_lower, x.mbar_upper, x.rokhlin) == (y.m_lower, y.mbar_upper, y.rokhlin)

    def test_arf_one_widening(self):
        x = m_bounds_from_surgery(3, 6, 0)
        assert (x.m_lower, x.mbar_upper) == (Fraction(-53, 2), Fraction(3, 2))

    def test_agrees_with_spin_model(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.choice([k for k in range(-99, 100) if k % 2 != 0])
            g = rng.randint(0, 5)
            mu = rng.randint(0, 1)
            eps = 1 if n > 0 else -1
            r = (-(n - eps) + 8 * mu) % 16
            direct = m_bounds_from_surgery(n, r, g)
            filling = bound_from_filling(
                spin_surgery_model(CharSurfaceData(n, g, mu, eps, 1))
            )
            assert direct.m_lower == filling.m_lower
            assert direct.mbar_upper == filling.mbar_upper
            assert direct.rokhlin == filling.rokhlin


class TestSliceGenusLower:
    def test_series_values(self):
        assert slice_genus_lower(39, 2, Fraction(-3, 2)) == 3
        assert slice_genus_lower(71, 2, Fraction(-3, 2)) == 7

    def test_clamped_at_zero(self):
        assert slice_genus_lower(3, 14, Fraction(-9, 2)) == 0

    def test_unknot_consistent(self):
        # L(3,2) is +3 surgery on the unknot; the bound must allow genus 0
        assert slice_genus_lower(3, m_bounds(LensSpace(3, 2)).rokhlin, -Fraction(9, 2)) == 0

    def test_preconditions(self):
        with pytest.raises(DomainError, match="R != 4 mod 8"):
            slice_genus_lower(5, 4, 0)
        with pytest.raises(DomainError, match="h - 1 = -R mod 8"):
            slice_genus_lower(9, 2, 0)
        with pytest.raises(DomainError, match="odd h >= 1"):
            slice_genus_lower(4, 0, 0)
        # checked in that order: odd h, then R != 4 mod 8, then the congruence
        with pytest.raises(DomainError, match="odd h >= 1"):
            slice_genus_lower(4, 4, 0)
        with pytest.raises(DomainError, match="R != 4 mod 8"):
            slice_genus_lower(9, 4, 0)

    def test_mu_is_the_forced_arf(self):
        # the bound subtracts ((h - 1 + R)/8) mod 2, the Arf invariant of the +h framing
        big = 10**299 + 7  # 300 digits
        for h in [*range(1, 200, 2), big, big + 2, big + 4, big + 6]:
            for r in range(0, 16, 2):
                if r % 8 == 4 or (h - 1 + r) % 8:
                    continue
                mu = ((h - 1 + r) // 8) % 2
                assert mu == arf_from_surgery(h, r)
                for m in (Fraction(-3, 2), Fraction(1, 3), Fraction(-7, 5), 0, 7):
                    want = max(0, Fraction(h - 1 + 4 * m, 8) - mu)
                    got = slice_genus_lower(h, r, m)
                    assert type(got) is Fraction and got == want, (h, r, m)

    def test_any_size_of_h(self):
        # past the interpreter's int-to-str limit: nothing is printed
        h = 8 * 10**5000 + 1
        got = slice_genus_lower(h, 0, 0)
        assert type(got) is Fraction and got == 10**5000
        assert slice_genus_lower(h, 0, Fraction(h)) == Fraction(5 * h - 1, 8)

    def test_refuses_non_integer_rokhlin(self):
        with pytest.raises(TypeError):
            slice_genus_lower(39, 2.0, Fraction(-3, 2))
        with pytest.raises(TypeError):
            slice_genus_lower(39, Fraction(2), Fraction(-3, 2))
        # h is checked before the class is read
        with pytest.raises(DomainError, match="odd h >= 1"):
            slice_genus_lower(4, 2.0, 0)

    def test_refuses_inexact_m_lower(self):
        # a float would be read as its binary value: 0.1 is not 1/10
        for bad in (0.1, -1.5, "1/10", None):
            with pytest.raises(TypeError, match="m_lower must be an int or a Fraction"):
                slice_genus_lower(39, 2, bad)
        assert slice_genus_lower(39, 2, Fraction(1, 10)) == Fraction(19, 5)


class TestQrObstruction:
    def test_obstructed(self):
        t = qr_obstruction(5, 2)
        assert t.verdict == "obstructed" and t.name == "square_class"
        assert t.detail == "neither 2 nor 3 is a square mod 5"
        assert qr_obstruction(5, -8).detail == "neither 2 nor 3 is a square mod 5"
        assert qr_obstruction(15, 2).verdict == "obstructed"

    def test_passes(self):
        assert qr_obstruction(5, 1).verdict == "pass"
        assert qr_obstruction(7, 3).verdict == "pass"
        assert qr_obstruction(9, 2).verdict == "pass"
        # p = 1 is S^3 itself: every residue is a square mod 1
        assert qr_obstruction(1, 0) == ("square_class", "pass", "q or -q is a square mod 1; no obstruction")

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            qr_obstruction(4, 1)
        with pytest.raises(DomainError):
            qr_obstruction(9, 3)


class TestUnknottingObstruction:
    def test_obstructed(self):
        assert unknotting_one_obstruction(15).verdict == "obstructed"
        assert unknotting_one_obstruction(5).verdict == "obstructed"
        assert unknotting_one_obstruction(-15).verdict == "obstructed"

    def test_passes(self):
        t = unknotting_one_obstruction(7)
        assert t == ("unknotting_determinant", "pass", "2 or -2 is a square mod 7; no obstruction")
        assert unknotting_one_obstruction(-7) == t
        assert unknotting_one_obstruction(9).verdict == "pass"

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            unknotting_one_obstruction(6)
        with pytest.raises(DomainError):
            unknotting_one_obstruction(1)


class TestObstructionReport:
    def test_congruence_rules_out(self):
        rep = obstruction_report(h=21, rokhlin=8)
        assert rep.conclusion == "not_integral_surgery_on_knot"
        assert rep.tests[0].name == "congruence"
        assert rep.tests[0].verdict == "obstructed"
        assert "link" in rep.tests[0].detail

    def test_forced_sign(self):
        rep = obstruction_report(h=3, rokhlin=2)
        assert rep.conclusion == "framing_sign_forced:-"
        rep = obstruction_report(h=3, rokhlin=14)
        assert rep.conclusion == "framing_sign_forced:+"

    def test_inconclusive(self):
        assert obstruction_report(h=9, rokhlin=0).conclusion == "inconclusive"
        assert obstruction_report(lens_pair=(7, 3)).conclusion == "inconclusive"

    def test_obstruction_beats_forced_sign(self):
        rep = obstruction_report(h=3, rokhlin=2, det=15)
        assert rep.conclusion == "not_integral_surgery_on_knot"
        assert [t.verdict for t in rep.tests] == ["pass", "obstructed"]

    def test_lens_only(self):
        rep = obstruction_report(lens_pair=(5, 2))
        assert rep.conclusion == "not_integral_surgery_on_knot"

    def test_asdict(self, capsys):
        # the report as surgery-check --json prints it
        assert main(["surgery-check", "--h", "9", "--rokhlin", "0", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert list(d) == ["tests", "conclusion"]
        assert list(d["tests"][0]) == ["name", "verdict", "detail"]

    def test_input_validation(self):
        with pytest.raises(DomainError, match="at least one input group"):
            obstruction_report()
        for half in ({"h": 9}, {"rokhlin": 0}, {"h": 9, "det": 15}, {"rokhlin": 0, "det": 15}):
            with pytest.raises(DomainError, match="needs both h and the Rokhlin class"):
                obstruction_report(**half)


class TestSliceKnotSurgery:
    def test_matches_genus_zero_estimate(self):
        # +n surgery on the unknot is L(n, n-1); the genus 0 estimate is sharp
        for n in (3, 7, 9, 11):
            x = m_bounds(LensSpace(n, n - 1))
            y = m_bounds_from_surgery(n, x.rokhlin, 0)
            assert (x.m_lower, x.mbar_upper) == (y.m_lower, y.mbar_upper)


class TestKnownLensSurgeries:
    """Lens spaces known to be integral surgery on a knot of known slice
    genus: no certificate may contradict that."""

    def test_certificates_agree(self):
        start = time.perf_counter()
        spaces = known_lens_surgeries()
        assert len(spaces) == 2 * 1216 + 2 * 99
        answered = 0
        for n, beta, g in spaces:
            h = abs(n)
            bounds = m_bounds(LensSpace(h, beta))
            report = obstruction_report(h, bounds.rokhlin, (h, beta))
            assert report.conclusion != "not_integral_surgery_on_knot", (n, beta)
            model = m_bounds_from_surgery(n, bounds.rokhlin, g)
            assert model.m_lower <= bounds.mbar_upper, (n, beta, g)
            assert bounds.m_lower <= model.mbar_upper, (n, beta, g)
            need = None if (n, beta, g) in OVERCLAIMED else lens_genus_bound(h, bounds)
            if need is not None:
                assert need <= g, (n, beta, g, need)
                answered += 1
        assert answered == 1312 - len(OVERCLAIMED)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"

    def test_verdict_survives_reversal(self):
        # the surgery model's interval and the lens interval of each space
        # get the verdicts of their reversals
        counts = [0, 0]
        for n, beta, g in known_lens_surgeries():
            bounds = m_bounds(LensSpace(abs(n), beta))
            model = m_bounds_from_surgery(n, bounds.rokhlin, g)
            counts[reversal_verdict(model) == "infinite"] += 1
            reversal_verdict(bounds)
        assert counts == [2432, 198]  # unknown, infinite

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: genus-bound --lens ignores the -h framing, "
        "allowed when R = 0 mod 8",
    )
    def test_unknot_genus_bound(self):
        over = [
            (n, beta)
            for n, beta, g in OVERCLAIMED
            if lens_genus_bound(-n, m_bounds(LensSpace(-n, beta))) > g
        ]
        assert over == []


class TestDedekindLink:
    def test_rokhlin_residue_mod8(self):
        # R(L(p,q)) and 4 p^2 s(q,p) agree mod 8, with this sign
        mismatch_minus = 0
        for p in range(3, 62, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                r = m_bounds(LensSpace(p, q)).rokhlin.value
                scaled = 4 * p * p * dedekind_sum(q, p)
                assert scaled.denominator == 1
                assert (r - scaled.numerator) % 8 == 0
                if (r + scaled.numerator) % 8 != 0:
                    mismatch_minus += 1
        # the opposite sign convention is not merely untested, it fails
        assert mismatch_minus > 0


class TestUnknotSurgeryEqualsLens:
    def test_exact_agreement(self):
        # -n surgery on the unknot is L(n,1); the genus 0 estimate is sharp
        for n in range(3, 100, 2):
            direct = m_bounds(LensSpace(n, 1))
            est = m_bounds_from_surgery(-n, direct.rokhlin, 0)
            assert (est.m_lower, est.mbar_upper) == (direct.m_lower, direct.mbar_upper)
