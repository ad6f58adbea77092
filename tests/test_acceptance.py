"""End-to-end acceptance gate.

Each test prints one [acceptance] PASS or FAIL line (with capture
suspended so the lines reach the terminal) and enforces the stated
runtime budget: the table and plumbing checks under one second, each
property sweep under ten, the largest admitted inputs under thirty.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cobkit.arith import is_square_mod, jacobi
from cobkit.cli import main
from cobkit.cobordism import infinite_order_certificate, reverse_orientation
from cobkit.contfrac import find_admissible_cf, parse_cf
from cobkit.lens import LensSpace, family, m_bounds, table1
from cobkit.plumbing import (
    MpqrTriple,
    montesinos_invariants,
    sigma_pqr_bounds,
    tpqr_invariants,
)
from cobkit.surgery import (
    congruence_obstruction,
    obstruction_report,
    qr_obstruction,
    slice_genus_lower,
    unknotting_one_obstruction,
)
from cobkit.twobridge import plat_invariants
from oracles import (
    CharSurfaceData,
    StarPlumbing,
    all_valid_triples,
    bound_from_filling,
    branched_cover_bounds,
    dedekind_sum,
    det_exact,
    eval_cf,
    inertia,
    m_bounds_from_surgery,
    spin_surgery_model,
)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(name: str, budget: float | None = None):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] {name}: FAIL")
            raise
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")
        assert budget is None or elapsed < budget, (
            f"{name} took {elapsed:.2f}s, budget {budget}s"
        )

    return _criterion


def odd_primes_below(n):
    return [p for p in range(3, n, 2) if all(p % d for d in range(3, p, 2))]


TABLE_EXPECTED = (
    (3, 1, Fraction(1, 2), Fraction(9, 2), 2, "inf"),
    (5, 3, Fraction(-2), Fraction(2), 0, "<=2"),
    (7, 1, Fraction(3, 2), Fraction(27, 2), 6, "inf"),
    (7, 3, Fraction(1, 2), Fraction(9, 2), 2, "inf"),
    (9, 1, Fraction(2), Fraction(18), 8, "inf"),
    (9, 5, Fraction(-2), Fraction(2), 0, "0"),
    (11, 1, Fraction(5, 2), Fraction(45, 2), 10, "inf"),
    (11, 3, Fraction(1, 2), Fraction(9, 2), 2, "inf"),
    (11, 5, Fraction(1, 2), Fraction(9, 2), 2, "inf"),
    (13, 1, Fraction(3), Fraction(27), 12, "inf"),
    (13, 3, Fraction(1), Fraction(9), 4, "inf"),
    (13, 5, Fraction(-2), Fraction(2), 0, "<=2"),
    (13, 7, Fraction(-2), Fraction(2), 0, "?"),
)


def test_criterion_1_table_reproduction(criterion):
    with criterion("criterion 1 (lens table, 13 rows, exact rationals)", budget=1.0):
        rows = table1()
        assert len(rows) == 13
        for row, (alpha, beta, lo, hi, rk, order) in zip(rows, TABLE_EXPECTED):
            assert (row.space.alpha, row.space.beta) == (alpha, beta)
            assert row.bounds.m_lower == lo, (alpha, beta)
            assert row.bounds.mbar_upper == hi, (alpha, beta)
            assert row.bounds.rokhlin.value == rk, (alpha, beta)
            assert row.order == order, (alpha, beta)


def test_criterion_2_plumbing_identities(criterion):
    with criterion("criterion 2 (plumbing det and signature closed forms)", budget=1.0):
        for p in range(1, 13):
            for q in range(p, 13):
                for r in range(q, 13):
                    mat = StarPlumbing(p, q, r).matrix()
                    closed = p * q * r - p * q - p * r - q * r
                    assert abs(det_exact(mat)) == abs(closed), (p, q, r)
        triples = all_valid_triples()
        assert len(triples) == 68
        for t in triples:
            pos, _, neg = inertia(StarPlumbing(t.p, t.q, t.r).matrix())
            assert tpqr_invariants(t).signature == pos - neg, t


def test_criterion_3_plumbing_sphere_chain(criterion):
    with criterion("criterion 3 (exact plumbing sphere chain and certificate)"):
        x = sigma_pqr_bounds(MpqrTriple(2, 3, 7))
        assert (x.m_exact, x.mbar_exact, x.rokhlin.value) == (-2, 0, 8)
        y = reverse_orientation(x)
        assert (y.m_exact, y.mbar_exact, y.rokhlin.value) == (0, 2, 8)
        cert = infinite_order_certificate(y)
        assert cert.verdict == "infinite"
        assert "Rokhlin" in cert.reason and "0" in cert.reason


def test_criterion_4_montesinos_cross_module(criterion):
    with criterion("criterion 4 (Montesinos knot and branched cover identity)"):
        inv = montesinos_invariants(MpqrTriple(2, 3, 7))
        assert (inv.slice_genus, inv.unknotting_number, inv.signature) == (5, 5, 8)

        for t in all_valid_triples():
            knot = montesinos_invariants(t)
            cover = branched_cover_bounds(knot.signature, knot.slice_genus)
            assert cover.m_lower == Fraction(t.total, 4) - 3, t
            assert cover.m_lower == -sigma_pqr_bounds(t).mbar_exact, t


def test_criterion_5_surgery_obstructions(criterion, capsys):
    with criterion("criterion 5 (non-surgery obstructions, three routes)"):
        assert congruence_obstruction(21, 8) == frozenset()
        report = obstruction_report(h=21, rokhlin=8)
        assert report.conclusion == "not_integral_surgery_on_knot"

        assert unknotting_one_obstruction(15).verdict == "obstructed"
        report = obstruction_report(det=15)
        assert report.conclusion == "not_integral_surgery_on_knot"

        assert qr_obstruction(5, 2).verdict == "obstructed"
        report = obstruction_report(lens_pair=(5, 2))
        assert report.conclusion == "not_integral_surgery_on_knot"

        code = main(["surgery-check", "--h", "21", "--rokhlin", "8", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["conclusion"] == "not_integral_surgery_on_knot"


def test_criterion_6_series_family(criterion):
    with criterion("criterion 6 (growing genus series k in {2,4,6})"):
        for k in (2, 4, 6):
            space, cf = family(k)
            assert space.alpha == 16 * k + 7 and space.beta == 7 * k + 3
            bounds = m_bounds(space, cf)
            assert bounds.rokhlin.value == 2, k
            assert bounds.m_lower == Fraction(-3, 2), k
            need = slice_genus_lower(space.alpha, bounds.rokhlin, bounds.m_lower)
            assert need == 2 * k - 1, k


def test_criterion_7a_cf_soundness_sweep(criterion):
    with criterion("criterion 7a (expansion soundness, alpha <= 199)", budget=10.0):
        pairs = 0
        for alpha in range(3, 200):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                cf = find_admissible_cf(alpha, beta)  # the record checks itself
                assert (cf.alpha, cf.beta) == (alpha, beta)
                assert eval_cf(cf.a, cf.b) == Fraction(alpha, beta)
                pairs += 1
        assert pairs == 8075


def test_criterion_7b_dedekind_reciprocity(criterion):
    with criterion("criterion 7b (Dedekind reciprocity, pairs <= 100)", budget=10.0):
        for p in range(2, 101):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                lhs = dedekind_sum(q, p) + dedekind_sum(p, q)
                rhs = Fraction(-1, 4) + Fraction(1, 12) * (
                    Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)
                )
                assert lhs == rhs, (p, q)


def test_criterion_7c_congruence_and_equivalence(criterion):
    with criterion(
        "criterion 7c (Dedekind-Jacobi congruence and square-class equivalence, primes < 100)",
        budget=10.0,
    ):
        for p in odd_primes_below(100):
            target = ((p + 1) // 2) % 4
            for q in range(1, p):
                six = 6 * p * dedekind_sum(q, p)
                assert six.denominator == 1, (p, q)
                assert (jacobi(q, p) + six.numerator) % 4 == target, (p, q)
                r = m_bounds(LensSpace(p, q)).rokhlin
                allowed = congruence_obstruction(p, r)
                square = is_square_mod(q, p) or is_square_mod(-q, p)
                assert bool(allowed) == square, (p, q)


def test_criterion_7d_surgery_estimate_vs_spin_model(criterion):
    with criterion(
        "criterion 7d (surgery estimate equals spin model, 200 random triples)",
        budget=10.0,
    ):
        rng = random.Random(20260823)
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
            assert direct.m_lower == filling.m_lower, (n, g, mu)
            assert direct.mbar_upper == filling.mbar_upper, (n, g, mu)
            assert direct.rokhlin == filling.rokhlin, (n, g, mu)


def test_criterion_7e_estimate_contains_lens_interval(criterion):
    with criterion(
        "criterion 7e (surgery estimate contains the L(n,1) interval, odd n <= 99)",
        budget=10.0,
    ):
        for n in range(3, 100, 2):
            space = LensSpace(n, 1)
            direct = m_bounds(space)
            est = m_bounds_from_surgery(-n, direct.rokhlin, 0)
            assert est.m_lower <= direct.m_lower, n
            assert direct.mbar_upper <= est.mbar_upper, n
            assert est.rokhlin == direct.rokhlin, n


def test_criterion_8_algebra_laws(criterion):
    with criterion("criterion 8 (involution, parity granularity)"):
        records = [row.bounds for row in table1()]
        records += [sigma_pqr_bounds(t) for t in all_valid_triples()]
        records += [
            bound_from_filling(spin_surgery_model(CharSurfaceData(n, g, mu, eps, 1)))
            for n, g, mu, eps in ((3, 0, 0, 1), (-7, 2, 1, -1), (9, 1, 0, 1))
        ]
        for x in records:
            # orientation reversal is an involution
            twice = reverse_orientation(reverse_orientation(x))
            assert (twice.m_lower, twice.mbar_upper, twice.rokhlin) == (
                x.m_lower,
                x.mbar_upper,
                x.rokhlin,
            )
            # every certified bound is a multiple of 1/4
            assert (4 * x.m_lower).denominator == 1
            assert (4 * x.mbar_upper).denominator == 1
            # exact values are half-integers matching the Rokhlin parity
            for exact in (x.m_exact, x.mbar_exact):
                if exact is None:
                    continue
                assert (2 * exact).denominator == 1
                d = exact - Fraction(x.rokhlin.value, 4)
                assert d.denominator == 1 and d.numerator % 2 == 0


def test_criterion_9_large_pair_cli(criterion, capsys):
    with criterion("criterion 9 (3,990-digit pair through cf and lens --json)", budget=30.0):
        rng = random.Random(3990)
        while True:
            alpha = rng.randrange(10**3989 + 1, 10**3990, 2)
            beta = rng.randrange(1, alpha, 2)
            if math.gcd(alpha, beta) == 1:
                break
        a, b = str(alpha), str(beta)
        assert main(["cf", a, b]) == 0
        head, _, text = capsys.readouterr().out.rstrip("\n").partition(" = ")
        cf = parse_cf(text)
        assert head == f"{a}/{b}" and (cf.alpha, cf.beta) == (alpha, beta)
        assert main(["lens", a, b, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cf"] == text


def test_signature_convention_anchor(criterion):
    # the whole table hangs off sigma(S(3,1)) = +2; pin it explicitly
    with criterion("convention anchor (sigma of the right-handed trefoil cover)"):
        assert plat_invariants(find_admissible_cf(3, 1)).signature == 2
