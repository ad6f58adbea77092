import argparse
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cobkit.cli import Output, _bounds, _render
from cobkit.cobordism import (
    MBounds,
    OrderCertificate,
    RokhlinClass,
    _label,
    _reason,
    _verdict,
    _VERDICTS,
    infinite_order_certificate,
    merge_bounds,
    reverse_orientation,
)
from cobkit.errors import DomainError
from oracles import (
    SpinFillingData,
    bound_from_filling,
    bounds_from_json_dict,
    branched_cover_bounds,
    reversal_verdict,
)

# The 3-sphere bounds the 4-ball: everything vanishes.
S3 = MBounds(0, 0, m_exact=0, mbar_exact=0, rokhlin=0, provenance=("S3 bounds the 4-ball",))


def nums(x: MBounds):
    """Numeric content of a record, ignoring provenance."""
    return (
        x.m_lower,
        x.mbar_upper,
        x.m_exact,
        x.mbar_exact,
        None if x.rokhlin is None else x.rokhlin.value,
    )


def fraction_rule(m_lower, mbar_upper, m_exact, mbar_exact, rokhlin) -> str | None:
    """Oracle: the first MBounds rule broken, by Fraction arithmetic."""
    for x, step, what in (
        (m_lower, 4, "m_lower"),
        (mbar_upper, 4, "mbar_upper"),
        (m_exact, 2, "m_exact"),
        (mbar_exact, 2, "mbar_exact"),
    ):
        if x is not None and step % x.denominator != 0:
            return f"{what} must be a multiple of 1/{step}"
    if m_lower > mbar_upper:
        return "m_lower must not exceed mbar_upper"
    if m_exact is not None and m_exact != m_lower:
        return "an exact m must coincide with m_lower"
    if mbar_exact is not None and mbar_exact != mbar_upper:
        return "an exact mbar must coincide with mbar_upper"
    if m_exact is not None and mbar_exact is not None:
        diff = mbar_exact - m_exact
        if diff.denominator != 1 or diff.numerator % 2 != 0:
            return "mbar - m must be an even integer when both exact"
        if diff == 0 and m_exact != 0:
            return "m = mbar forces both to vanish"
        if diff == 0 and rokhlin not in (None, 0):
            return "m = mbar forces a vanishing Rokhlin invariant"
    for exact in (m_exact, mbar_exact):
        if rokhlin is not None and exact is not None:
            parity = exact - Fraction(rokhlin, 4)
            if parity.denominator != 1 or parity.numerator % 2 != 0:
                return "exact values must equal rokhlin/4 modulo 2"
    return None


@st.composite
def filling_records(draw):
    sigma = 2 * draw(st.integers(-15, 15))
    b2 = draw(st.integers(0, 30))
    rec = bound_from_filling(SpinFillingData(sigma, b2))
    if draw(st.booleans()):
        rec = reverse_orientation(rec)
    return rec


@st.composite
def exact_records(draw):
    """A valid record around exact values m and mbar, each marker, and the
    Rokhlin class, kept or dropped."""
    rokhlin = 2 * draw(st.integers(0, 7))
    m4 = rokhlin + 8 * draw(st.integers(-2, 1))  # 4m = R mod 8
    gap = draw(st.integers(0 if m4 == rokhlin == 0 else 1, 2))
    mbar4 = m4 + 8 * gap
    return MBounds(
        Fraction(m4, 4),
        Fraction(mbar4, 4),
        m_exact=Fraction(m4, 4) if draw(st.booleans()) else None,
        mbar_exact=Fraction(mbar4, 4) if draw(st.booleans()) else None,
        rokhlin=rokhlin if draw(st.booleans()) else None,
    )


class TestRokhlinClass:
    def test_normalization(self):
        assert RokhlinClass(18).value == 2
        assert RokhlinClass(-8).value == 8
        assert RokhlinClass(-2).value == 14
        assert RokhlinClass(0).value == 0

    def test_rejects_odd(self):
        with pytest.raises(DomainError):
            RokhlinClass(3)

    def test_group_operations(self):
        assert (-RokhlinClass(2)).value == 14

    def test_refuses_non_integers(self):
        for value in (2.0, Fraction(2), "2", "x"):
            with pytest.raises(TypeError):
                RokhlinClass(value)
            with pytest.raises(TypeError):
                MBounds(-1, 1, rokhlin=value)

    def test_takes_a_class_unchanged(self):
        r = RokhlinClass(2)
        assert RokhlinClass(r) is r and RokhlinClass(RokhlinClass(2)) == RokhlinClass(2)
        assert MBounds(-1, 1, rokhlin=r).rokhlin is r
        assert MBounds(-1, 1, rokhlin=18).rokhlin == r

    @given(st.integers(-100, 100).map(lambda k: 2 * k))
    def test_involution(self, v):
        r = RokhlinClass(v)
        assert (-(-r)) == r
        assert (r.value + (-r).value) % 16 == 0


class TestMBoundsValidation:
    def test_plain_record(self):
        x = MBounds(Fraction(-3, 2), Fraction(1, 4))
        assert x.m_lower == Fraction(-3, 2)
        assert x.m_exact is None

    def test_int_coercion(self):
        x = MBounds(1, 2, rokhlin=16)
        assert x.m_lower == Fraction(1) and x.rokhlin == RokhlinClass(0)

    def test_ordering_required(self):
        with pytest.raises(DomainError):
            MBounds(1, 0)

    def test_granularity(self):
        with pytest.raises(DomainError):
            MBounds(Fraction(1, 3), 1)
        with pytest.raises(DomainError):
            MBounds(0, 1, mbar_exact=Fraction(1, 4), m_exact=None)

    def test_exact_must_match_bound(self):
        with pytest.raises(DomainError):
            MBounds(0, 2, m_exact=Fraction(1, 2))

    def test_exact_difference_even(self):
        with pytest.raises(DomainError):
            MBounds(0, 1, m_exact=0, mbar_exact=1)

    def test_equality_forces_zero(self):
        with pytest.raises(DomainError):
            MBounds(1, 1, m_exact=1, mbar_exact=1)
        with pytest.raises(DomainError):
            MBounds(0, 0, m_exact=0, mbar_exact=0, rokhlin=8)
        assert MBounds(0, 0, m_exact=0, mbar_exact=0, rokhlin=0) is not None

    def test_exact_parity_vs_rokhlin(self):
        with pytest.raises(DomainError):
            MBounds(Fraction(1, 2), Fraction(5, 2), m_exact=Fraction(1, 2), rokhlin=0)
        ok = MBounds(Fraction(1, 2), 4, m_exact=Fraction(1, 2), rokhlin=2)
        assert ok.m_exact == Fraction(1, 2)

    def test_integer_rules_match_fraction_rules(self):
        # the record checks quarter counts; Fraction arithmetic is the reference
        bounds = [Fraction(n, 4) for n in range(-6, 7)] + [Fraction(1, 3)]
        exacts = [None, Fraction(1, 4)] + [Fraction(n, 2) for n in range(-2, 5)]
        checked = 0
        for lo, hi, m, mbar, r in itertools.product(
            bounds, bounds, exacts, exacts, (None, 0, 2, 4, 8)
        ):
            try:
                MBounds(lo, hi, m_exact=m, mbar_exact=mbar, rokhlin=r)
                why = None
            except DomainError as exc:
                why = str(exc)
            assert why == fraction_rule(lo, hi, m, mbar, r), (lo, hi, m, mbar, r)
            checked += why is None
        assert checked > 0

    def test_json_round_trip(self):
        # the CLI's JSON for a record reads back as the same record
        args = argparse.Namespace(json=True, csv=False)
        for x in (
            S3,
            MBounds(Fraction(-3, 2), Fraction(17, 4), rokhlin=2, provenance=("a", "b")),
            MBounds(-2, 0, m_exact=-2, mbar_exact=0, rokhlin=8),
            MBounds(Fraction(1, 4), Fraction(3, 4)),
        ):
            text = "".join(_render(args, Output({"bounds": _bounds(x)})))
            assert bounds_from_json_dict(json.loads(text)["bounds"]) == x


class TestFilling:
    def test_ball(self):
        assert nums(bound_from_filling(SpinFillingData(0, 0))) == (
            0,
            0,
            None,
            None,
            0,
        )

    def test_negative_definite_like(self):
        x = bound_from_filling(SpinFillingData(-8, 10))
        assert (x.m_lower, x.mbar_upper) == (-20, 0)
        assert x.rokhlin.value == 8

    def test_quarter_values(self):
        x = bound_from_filling(SpinFillingData(2, 10))
        assert (x.m_lower, x.mbar_upper) == (Fraction(-15, 2), Fraction(25, 2))

    def test_spin_signature_is_even(self):
        with pytest.raises(DomainError):
            bound_from_filling(SpinFillingData(3, 1))

    def test_negative_b2_rejected(self):
        with pytest.raises(DomainError):
            SpinFillingData(0, -1)


class TestMerge:
    def test_two_sided_trap(self):
        # two fillings of opposite orientations pin the interval [-2, 0]
        x = bound_from_filling(SpinFillingData(-8, 10))
        y = reverse_orientation(bound_from_filling(SpinFillingData(-8, 12)))
        z = merge_bounds(x, y)
        assert (z.m_lower, z.mbar_upper, z.rokhlin.value) == (-2, 0, 8)

    def test_rokhlin_conflict(self):
        with pytest.raises(DomainError, match="^merge_bounds requires matching Rokhlin classes$"):
            merge_bounds(
                bound_from_filling(SpinFillingData(0, 0)),
                bound_from_filling(SpinFillingData(2, 10)),
            )

    def test_disjoint_intervals(self):
        with pytest.raises(DomainError, match="^merge_bounds got incompatible intervals$"):
            merge_bounds(
                bound_from_filling(SpinFillingData(16, 0)),
                bound_from_filling(SpinFillingData(0, 0)),
            )

    def test_intervals_meeting_at_a_point(self):
        z = merge_bounds(MBounds(-2, 0), MBounds(0, 2))
        assert nums(z) == (0, 0, None, None, None)

    def test_rokhlin_from_either_side(self):
        known, unknown = MBounds(-2, 2, rokhlin=8), MBounds(-1, 3)
        for x, y in ((known, unknown), (unknown, known)):
            assert merge_bounds(x, y).rokhlin == RokhlinClass(8)
        assert merge_bounds(unknown, unknown).rokhlin is None

    def test_never_promotes_exact(self):
        x = MBounds(-2, 0, m_exact=-2, mbar_exact=0, rokhlin=8)
        z = merge_bounds(x, MBounds(-2, 0, rokhlin=8))
        assert z.m_exact is None and z.mbar_exact is None


class TestReverse:
    def test_swaps_and_negates(self):
        x = MBounds(-2, 0, m_exact=-2, mbar_exact=0, rokhlin=8)
        y = reverse_orientation(x)
        assert nums(y) == (0, 2, 0, 2, 8)

    def test_sphere_fixed(self):
        assert nums(reverse_orientation(S3)) == nums(S3)

    @given(filling_records())
    def test_involution(self, x):
        assert nums(reverse_orientation(reverse_orientation(x))) == nums(x)


class TestOrderCertificate:
    def test_positive_m(self):
        cert = infinite_order_certificate(bound_from_filling(SpinFillingData(16, 0)))
        assert cert.verdict == "infinite" and "> 0" in cert.reason

    def test_negative_mbar(self):
        cert = infinite_order_certificate(bound_from_filling(SpinFillingData(-16, 0)))
        assert cert.verdict == "infinite" and "< 0" in cert.reason

    def test_rokhlin_route_needs_exact_zero(self):
        exact = MBounds(0, 2, m_exact=0, mbar_exact=2, rokhlin=8)
        cert = infinite_order_certificate(exact)
        assert cert == OrderCertificate("infinite", "m = 0 with Rokhlin invariant 8 != 0")
        # a mere lower bound m >= 0 does not trigger the Rokhlin route
        loose = MBounds(0, 2, rokhlin=8)
        assert infinite_order_certificate(loose).verdict == "unknown"

    def test_rokhlin_route_reads_either_exact_side(self):
        # m(-Y) = -mbar(Y): an exact mbar of 0 with R != 0 certifies, as
        # the exact m of 0 of its reversal does
        exact = MBounds(-2, 0, m_exact=-2, mbar_exact=0, rokhlin=8)
        cert = infinite_order_certificate(exact)
        assert cert == OrderCertificate("infinite", "mbar = 0 with Rokhlin invariant 8 != 0")
        for x in (
            MBounds(-2, 0, rokhlin=8),
            MBounds(-2, 0, m_exact=-2, mbar_exact=0),
            MBounds(-2, 0, m_exact=-2, mbar_exact=0, rokhlin=0),
            MBounds(0, 2, m_exact=0, mbar_exact=2, rokhlin=0),
        ):
            assert infinite_order_certificate(x).verdict == "unknown", x

    def test_unknown(self):
        cert = infinite_order_certificate(MBounds(-2, 2, rokhlin=0))
        assert cert == OrderCertificate("unknown", "no certificate applies")

    def test_fires_from_the_first_quarter_past_zero(self):
        for lower, upper, verdict in (
            (1, 4, "infinite"),
            (0, 4, "unknown"),
            (-4, -1, "infinite"),
            (-4, 0, "unknown"),
        ):
            x = MBounds(Fraction(lower, 4), Fraction(upper, 4))
            assert infinite_order_certificate(x).verdict == verdict, (lower, upper)


class TestVerdict:
    def test_kinds_are_a_closed_set(self):
        kinds = {"m_pos", "mbar_neg", "exact_rokhlin", "annotation", "none"}
        assert set(_VERDICTS) == kinds
        labels = {kind: _label(kind, "<=2") for kind in kinds}
        assert labels == {**dict.fromkeys(kinds, "inf"), "annotation": "<=2", "none": "?"}
        assert _label("annotation", "0") == "0" and _label("none") == "?"

    def test_first_kind_that_applies(self):
        r8 = RokhlinClass(8)
        assert _verdict(1, 4, annotated="0") == "m_pos"
        assert _verdict(-4, -1, annotated="0") == "mbar_neg"
        assert _verdict(0, 8, 0, 2, r8, annotated="0") == "exact_rokhlin"
        assert _verdict(-8, 0, -2, 0, r8, annotated="0") == "exact_rokhlin"
        assert _verdict(0, 8, annotated="0") == "annotation"
        assert _verdict(0, 8) == "none"
        assert _verdict(0, 0, 0, 0, RokhlinClass(0)) == "none"
        assert _verdict(-1, 1, None, None, r8) == "none"

    def test_reasons(self):
        x = MBounds(Fraction(1, 4), 2, rokhlin=2)
        assert _reason("m_pos", "inf", x) == "m >= 1/4 > 0"
        assert _reason("mbar_neg", "inf", reverse_orientation(x)) == "mbar <= -1/4 < 0"
        assert _reason("none", "?", x) == "no certificate applies"

    @given(st.one_of(filling_records(), exact_records()))
    def test_reversal_keeps_the_verdict(self, x):
        reversal_verdict(x)


class TestBranchedCover:
    def test_trefoil_cover(self):
        x = branched_cover_bounds(2, 1)
        assert (x.m_lower, x.mbar_upper, x.rokhlin.value) == (
            Fraction(1, 2),
            Fraction(9, 2),
            2,
        )

    def test_torus_knot_cover(self):
        x = branched_cover_bounds(8, 5)
        assert (x.m_lower, x.mbar_upper, x.rokhlin.value) == (0, 20, 8)

    def test_slice_cover(self):
        x = branched_cover_bounds(0, 0)
        assert nums(x) == (0, 0, None, None, 0)

    def test_negative_signature(self):
        x = branched_cover_bounds(-4, 2)
        assert (x.m_lower, x.mbar_upper, x.rokhlin.value) == (-9, -1, 12)
