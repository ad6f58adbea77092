"""The public records are NamedTuples: each keeps the repr, equality,
hash and immutability it had as a frozen dataclass, and each record that
checks itself keeps its messages and their order."""

from fractions import Fraction

import pytest

from cobkit import (
    AdmissibleCF,
    DomainError,
    LensSpace,
    MBounds,
    MpqrTriple,
    RokhlinClass,
    classify_order,
    find_admissible_cf,
    format_cf,
    infinite_order_certificate,
    m_bounds,
    montesinos_invariants,
    obstruction_report,
    plat_invariants,
    qr_obstruction,
    sigma_pqr_bounds,
    table1,
    tpqr_invariants,
)
from cobkit.cli import Output
from cobkit.lens import CensusRow


def _records():
    cf = find_admissible_cf(39, 17)
    t = MpqrTriple(2, 3, 7)
    return [
        cf,
        plat_invariants(cf).slice_genus_upper,
        LensSpace(39, 17),
        sigma_pqr_bounds(t),
        montesinos_invariants(t),
        t,
        obstruction_report(h=21, rokhlin=8, lens_pair=(5, 2)),
        qr_obstruction(5, 2),
        plat_invariants(cf),
        infinite_order_certificate(m_bounds(LensSpace(39, 17))),
        RokhlinClass(-2),
        tpqr_invariants(t),
        classify_order(LensSpace(39, 22)),
        Output({"a": 1}, "x\n"),
        classify_order(LensSpace(39, 22)).row,
    ]


# recorded from the frozen dataclasses these records replace, except
# PlatInvariants, recorded when it was added; the last,
# CensusRow, recorded once its bounds became quarter counts and its
# expansion the printed text, and OrderReport once it held one verdict
# (its kind and reason) and the row it was built with
_REPRS = [
    "AdmissibleCF(a=(2, -1, 2), b=(2, -1), alpha=39, beta=17)",
    "GenusBound(value=2, pos_changes=0, neg_changes=2, seifert_genus=0)",
    "LensSpace(alpha=39, beta=17)",
    "MBounds(m_lower=Fraction(-2, 1), mbar_upper=Fraction(0, 1), "
    "m_exact=Fraction(-2, 1), mbar_exact=Fraction(0, 1), rokhlin=RokhlinClass(value=8), "
    "provenance=('plumbing sphere on T(2,3,7)', 'K3 embedding with spin complement'))",
    "MontesinosInvariants(slice_genus=5, unknotting_number=5, signature=8)",
    "MpqrTriple(p=2, q=3, r=7)",
    "ObstructionReport(tests=(ObstructionTest(name='congruence', verdict='obstructed', "
    "detail='h - 1 = 20 matches neither -R nor +R mod 8; not integral surgery on a knot "
    "(a link remains possible)'), ObstructionTest(name='square_class', "
    "verdict='obstructed', detail='neither 2 nor 3 is a square mod 5')), "
    "conclusion='not_integral_surgery_on_knot')",
    "ObstructionTest(name='square_class', verdict='obstructed', "
    "detail='neither 2 nor 3 is a square mod 5')",
    "PlatInvariants(is_knot=True, signature=2, determinant=39, odd_positive=0, "
    "odd_negative=1, slice_genus_upper=GenusBound(value=2, pos_changes=0, neg_changes=2, "
    "seifert_genus=0))",
    "OrderCertificate(verdict='unknown', reason='no certificate applies')",
    "RokhlinClass(value=14)",
    "TpqrInvariants(rank=10, signature=-8, determinant_abs=1)",
    "OrderReport(space=LensSpace(alpha=39, beta=22), "
    "bounds=MBounds(m_lower=Fraction(-13, 2), mbar_upper=Fraction(3, 2), m_exact=None, "
    "mbar_exact=None, rokhlin=RokhlinClass(value=14), provenance=('L(39,22) as reversed "
    "mirror', 'L(39,17) branched over S(39,17)', 'expansion [2,4,-1,-2,2]', "
    "'branched double cover (sigma(K)=2, slice genus <= 2)', 'orientation reversed')), "
    "kind='none', reason='no certificate applies', "
    "cf=AdmissibleCF(a=(2, -1, 2), b=(2, -1), alpha=39, beta=17), "
    "row=CensusRow(alpha=39, beta=22, lower=-26, upper=6, rokhlin=14, "
    "cf='[2,4,-1,-2,2]', order='?'))",
    "Output(doc={'a': 1}, text='x\\n', rows=())",
    "CensusRow(alpha=39, beta=22, lower=-26, upper=6, rokhlin=14, "
    "cf='[2,4,-1,-2,2]', order='?')",
]


@pytest.mark.parametrize("index", range(len(_REPRS)), ids=[r.split("(")[0] for r in _REPRS])
class TestRecordSemantics:
    def test_repr(self, index):
        assert repr(_records()[index]) == _REPRS[index]

    def test_equality(self, index):
        x, y = _records()[index], _records()[index]
        assert x == y and x is not y
        assert x == tuple(x)
        assert type(x)(*x) == x

    def test_hash_is_the_field_tuple_hash(self, index):
        x = _records()[index]
        if isinstance(x, Output):
            with pytest.raises(TypeError):  # it holds its document, a dict
                hash(x)
        else:
            assert hash(x) == hash(tuple(x))

    def test_fields_are_read_only(self, index):
        x = _records()[index]
        for name in x._fields:
            with pytest.raises(AttributeError):
                setattr(x, name, None)


def test_census_row_bounds_are_exact_fractions():
    row = classify_order(LensSpace(39, 22)).row
    assert (row.lower, row.upper) == (-26, 6)
    assert (type(row.m_lower), type(row.mbar_upper)) == (Fraction, Fraction)
    assert (row.m_lower, row.mbar_upper) == (Fraction(-13, 2), Fraction(3, 2))
    for name in ("m_lower", "mbar_upper"):
        with pytest.raises(AttributeError):
            setattr(row, name, Fraction(0))
    assert row.m_lower == Fraction(-13, 2)


def test_table1_rows_are_the_reports_as_quarter_counts():
    for report in table1():
        b = report.bounds
        assert report.row == CensusRow(
            report.space.alpha,
            report.space.beta,
            int(4 * b.m_lower),
            int(4 * b.mbar_upper),
            b.rokhlin.value,
            format_cf(report.cf),
            report.order,
        )
        assert (report.row.m_lower, report.row.mbar_upper) == (b.m_lower, b.mbar_upper)


def test_admissible_cf_terms_are_read_only():
    cf = find_admissible_cf(39, 17)
    assert cf.terms == (2, 4, -1, -2, 2)
    with pytest.raises(AttributeError):
        cf.terms = (1,)
    with pytest.raises(AttributeError):
        del cf.terms
    assert cf.terms == (2, 4, -1, -2, 2)


# (record, args, keywords, message), recorded from the frozen dataclasses;
# several cases break more than one rule and pin which one is reported
_CHECKS = [
    (RokhlinClass, (3,), {}, "Rokhlin invariant of a Z/2-homology sphere is even"),
    (RokhlinClass, (-1,), {}, "Rokhlin invariant of a Z/2-homology sphere is even"),
    (MBounds, (Fraction(1, 8), Fraction(1, 3)), {}, "m_lower must be a multiple of 1/4"),
    (MBounds, (1, Fraction(1, 3)), {"rokhlin": 1}, "mbar_upper must be a multiple of 1/4"),
    (
        MBounds,
        (0, 1),
        {"m_exact": Fraction(1, 4), "mbar_exact": Fraction(1, 4)},
        "m_exact must be a multiple of 1/2",
    ),
    (
        MBounds,
        (0, 1),
        {"m_exact": 0, "mbar_exact": Fraction(1, 4)},
        "mbar_exact must be a multiple of 1/2",
    ),
    (MBounds, (1, 0), {"rokhlin": 1}, "Rokhlin invariant of a Z/2-homology sphere is even"),
    (MBounds, (1, 0), {"m_exact": 5}, "m_lower must not exceed mbar_upper"),
    (
        MBounds,
        (0, 2),
        {"m_exact": 1, "mbar_exact": 1},
        "an exact m must coincide with m_lower",
    ),
    (MBounds, (0, 2), {"mbar_exact": 1}, "an exact mbar must coincide with mbar_upper"),
    (
        MBounds,
        (0, 1),
        {"m_exact": 0, "mbar_exact": 1},
        "mbar - m must be an even integer when both exact",
    ),
    (
        MBounds,
        (1, 1),
        {"m_exact": 1, "mbar_exact": 1, "rokhlin": 8},
        "m = mbar forces both to vanish",
    ),
    (
        MBounds,
        (0, 0),
        {"m_exact": 0, "mbar_exact": 0, "rokhlin": 8},
        "m = mbar forces a vanishing Rokhlin invariant",
    ),
    (
        MBounds,
        (0, 2),
        {"m_exact": 0, "rokhlin": 2},
        "exact values must equal rokhlin/4 modulo 2",
    ),
    (LensSpace, (4, 8), {}, "LensSpace requires odd alpha >= 1"),
    (LensSpace, (-1, 1), {}, "LensSpace requires odd alpha >= 1"),
    (LensSpace, (5, 5), {}, "LensSpace requires 0 < beta < alpha"),
    (LensSpace, (9, 3), {}, "LensSpace requires gcd(alpha, beta) = 1"),
    (MpqrTriple, (3, 2, 2), {}, "MpqrTriple requires 1 <= p <= q <= r"),
    (MpqrTriple, (0, 3, 7), {}, "MpqrTriple requires 1 <= p <= q <= r"),
    (MpqrTriple, (2, 4, 5), {}, "MpqrTriple requires exactly one even parameter"),
    (MpqrTriple, (2, 3, 5), {}, "MpqrTriple requires 1/p + 1/q + 1/r < 1"),
    (MpqrTriple, (3, 3, 18), {}, "MpqrTriple requires p + q + r <= 22"),
    (AdmissibleCF, ((), (1,), 1, 1), {}, "a must be nonempty"),
    (AdmissibleCF, ((1, 2), (1, 1), 1, 1), {}, "len(a) must equal len(b) + 1"),
    (AdmissibleCF, ((0, 1), (0,), 1, 1), {}, "all a_i must be nonzero"),
    (AdmissibleCF, ((1, 1), (0,), 1, 1), {}, "all b_i must be nonzero"),
    (AdmissibleCF, ((1, -1, 1), (1, 1), 1, 1), {}, "a_2 * b_2 > 0 violated"),
    (AdmissibleCF, ((3,), (), 3, 0), {}, "target requires 0 < beta <= alpha"),
    (AdmissibleCF, ((3,), (), 3, 3), {}, "target beta = alpha only for the unknot 1/1"),
    (AdmissibleCF, ((3,), (), 9, 3), {}, "target requires gcd(alpha, beta) = 1"),
    (AdmissibleCF, ((3,), (), 3, 2), {}, "target requires odd beta"),
    (AdmissibleCF, ((3,), (), 5, 1), {}, "expansion evaluates to 3, not 5/1"),
    (AdmissibleCF, ((2, -1, 2), (2, -1), 39, 22), {}, "target requires odd beta"),
    (LensSpace, (5, 0), {}, "LensSpace requires 0 < beta < alpha"),
    (LensSpace, (1, 1), {}, "LensSpace requires 0 < beta < alpha"),
    # p = 1 passes the order rule; the reciprocal rule refuses it
    (MpqrTriple, (1, 2, 3), {}, "MpqrTriple requires 1/p + 1/q + 1/r < 1"),
]


@pytest.mark.parametrize("record, args, kwargs, message", _CHECKS)
def test_checks_and_their_order(record, args, kwargs, message):
    if record is AdmissibleCF:
        message = f"not admissible: {message}"
    with pytest.raises(DomainError) as info:
        record(*args, **kwargs)
    assert str(info.value) == message


# (record, args, keywords) that name a number inexactly: a float, a str
# or a bool is a TypeError, never read as the number it spells
_TYPE_CHECKS = [
    (MBounds, (0.25, 0.5), {}),
    (MBounds, ("1/4", "1/2"), {}),
    (MBounds, (True, 2), {}),
    (MBounds, (0, 2), {"m_exact": 0.0}),
    (MBounds, (0, 2), {"mbar_exact": "2"}),
    (MBounds, (-2, 0), {"m_exact": -2, "mbar_exact": False}),
    (AdmissibleCF, ([3.0], [], 3, 1), {}),
    (AdmissibleCF, ((2, -1), (2.0,), 7, 3), {}),
    (AdmissibleCF, ((3,), (), 3.0, 1), {}),
    (AdmissibleCF, ((3,), (), 3, "1"), {}),
    (MBounds, (0, 2), {"rokhlin": False}),
    (RokhlinClass, (False,), {}),
    (RokhlinClass, (True,), {}),
]


@pytest.mark.parametrize("record, args, kwargs", _TYPE_CHECKS)
def test_exact_numbers_only(record, args, kwargs):
    with pytest.raises(TypeError):
        record(*args, **kwargs)
    if not kwargs:
        with pytest.raises(TypeError):
            record._make(args)


def test_normalised_on_construction():
    assert RokhlinClass(-2).value == 14
    x = MBounds(-1, 2, rokhlin=18, provenance=["a", "b"])
    assert (type(x.m_lower), x.m_lower, x.mbar_upper) == (Fraction, -1, 2)
    assert x.rokhlin == RokhlinClass(2)
    assert x.provenance == ("a", "b")
    for a in ((2, -1), [2, -1]):
        cf = AdmissibleCF(a, [2], 7, 3)
        assert (type(cf.a), type(cf.b)) == (tuple, tuple)
        assert hash(cf) == hash(((2, -1), (2,), 7, 3))


@pytest.mark.parametrize(
    "record, fields, message",
    [
        (RokhlinClass(2), {"value": 3}, "Rokhlin invariant of a Z/2-homology sphere is even"),
        (MBounds(0, 1), {"m_lower": 2}, "m_lower must not exceed mbar_upper"),
        (LensSpace(39, 17), {"beta": 39}, "LensSpace requires 0 < beta < alpha"),
        (MpqrTriple(2, 3, 7), {"r": 5}, "MpqrTriple requires 1/p + 1/q + 1/r < 1"),
        (
            find_admissible_cf(39, 17),
            {"beta": 19},
            "not admissible: expansion evaluates to 39/17, not 39/19",
        ),
    ],
)
def test_replace_checks_too(record, fields, message):
    with pytest.raises(DomainError) as info:
        record._replace(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "record, fields",
    [
        (MBounds(0, 1), {"m_lower": 0.25}),
        (MBounds(0, 1), {"mbar_upper": "1"}),
        (MBounds(0, 1), {"m_lower": True}),
        (find_admissible_cf(7, 3), {"a": [2.0, -1.0]}),
        (find_admissible_cf(7, 3), {"beta": 3.0}),
    ],
)
def test_replace_takes_exact_numbers_only(record, fields):
    with pytest.raises(TypeError):
        record._replace(**fields)


def test_replace_builds_a_whole_record():
    cf = find_admissible_cf(39, 17)._replace(a=(2, 1, 2), b=(2, 1), alpha=73, beta=33)
    assert cf.terms == (2, 4, 1, 2, 2) and format_cf(cf) == "[2,4,1,2,2]"
    assert RokhlinClass(2)._replace(value=-4).value == 12
