import itertools
import math
import re
import time
from fractions import Fraction

import pytest

from cobkit import cli, contfrac, lens, twobridge
from cobkit.cobordism import _verdict, reverse_orientation
from cobkit.contfrac import (
    AdmissibleCF,
    _walk,
    admissible_cf,
    find_admissible_cf,
    find_positive_cf,
    format_cf,
    parse_cf,
)
from cobkit.errors import DomainError
from cobkit.lens import (
    ORDER_ANNOTATIONS,
    CensusRow,
    LensSpace,
    census,
    classify_order,
    family,
    m_bounds,
    table1,
)
from cobkit.twobridge import plat_invariants
from oracles import (
    branched_cover_bounds,
    five_sum_invariants,
    mirror,
    murasugi_signature,
    positive_family,
    reversal_verdict,
)


def sigma_and_genus(cf) -> tuple[int, int]:
    """sigma(K) and the slice genus bound of the knot of cf's plat."""
    inv = plat_invariants(cf)
    return inv.signature, inv.slice_genus_upper.value


def hirzebruch_jung(p: int, q: int) -> list[int]:
    """[c_1, ..., c_n] with p/q = c_1 - 1/(c_2 - 1/(... - 1/c_n)), c_i >= 2."""
    cs = []
    while q:
        c = -(-p // q)
        cs.append(c)
        p, q = q, c * q - p
    return cs


def plumbing_rokhlin(p: int, q: int) -> int:
    """R(L(p, q)) for odd p from the linear plumbing it bounds, a route
    that needs no two-bridge knot.

    -p/q surgery on the unknot bounds the negative definite plumbing with
    weights -c_i, p/q = [c_1, ..., c_n]^-, of signature -n.  Its form is
    invertible mod 2 (det = +-p), so it has one 0/1 characteristic
    vector w: c_i (1 + w_i) + w_{i-1} + w_{i+1} is even at every node.
    Choosing w_1 fixes the rest, and the last node's equation picks
    w_1.  No two adjacent nodes are in w, so w.w = -sum of c_i over w,
    and R = sigma - w.w (mod 16) (Kirby, LNM 1374; Neumann, LNM 788).
    """
    cs = hirzebruch_jung(p, q)
    for first in (0, 1):
        w = [first]
        prev = 0
        for c in cs[:-1]:
            w_next = (c * (1 + w[-1]) + prev) % 2
            prev = w[-1]
            w.append(w_next)
        if (cs[-1] * (1 + w[-1]) + prev) % 2 == 0:
            break
    else:
        raise AssertionError(f"no characteristic vector for {p}/{q}")
    assert all(not (x and y) for x, y in zip(w, w[1:]))
    return (-len(cs) + sum(c for c, x in zip(cs, w) if x)) % 16


class TestLensSpace:
    def test_validation(self):
        assert LensSpace(39, 17).alpha == 39
        with pytest.raises(DomainError):
            LensSpace(4, 1)
        with pytest.raises(DomainError):
            LensSpace(9, 3)
        with pytest.raises(DomainError):
            LensSpace(5, 0)
        with pytest.raises(DomainError):
            LensSpace(5, 5)

    def test_mirror(self):
        assert mirror(LensSpace(5, 3)) == LensSpace(5, 2)
        assert mirror(mirror(LensSpace(7, 3))) == LensSpace(7, 3)


class TestMBounds:
    def test_trefoil_cover(self):
        x = m_bounds(LensSpace(3, 1))
        assert (x.m_lower, x.mbar_upper, x.rokhlin.value) == (
            Fraction(1, 2),
            Fraction(9, 2),
            2,
        )

    def test_amphichiral_cover(self):
        x = m_bounds(LensSpace(13, 5))
        assert (x.m_lower, x.mbar_upper, x.rokhlin.value) == (-2, 2, 0)

    def test_series_member(self):
        x = m_bounds(LensSpace(39, 17))
        assert (x.m_lower, x.mbar_upper, x.rokhlin.value) == (
            Fraction(-3, 2),
            Fraction(13, 2),
            2,
        )

    def test_even_beta_routes_through_mirror(self):
        x = m_bounds(LensSpace(5, 2))
        assert (x.m_lower, x.mbar_upper, x.rokhlin.value) == (-2, 2, 0)
        assert x.provenance == (
            "L(5,2) as reversed mirror",
            "L(5,3) branched over S(5,3)",
            "expansion [1,2,-2]",
            "branched double cover (sigma(K)=0, slice genus <= 1)",
            "orientation reversed",
        )

    def test_odd_beta_is_the_cover_record(self):
        # the provenance prints the sigma(K) and g that _row_fields made the
        # quarter counts from; the public cover record takes them from the knot
        for alpha in range(3, 100, 2):
            for beta in range(1, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                cf = find_admissible_cf(alpha, beta)
                head = (f"L({alpha},{beta}) branched over S({alpha},{beta})", f"expansion {format_cf(cf)}")
                cover = branched_cover_bounds(*sigma_and_genus(cf), provenance=head)
                assert m_bounds(LensSpace(alpha, beta)) == cover

    def test_supplied_expansion(self):
        cf = admissible_cf((2, -3), (1,))
        x = m_bounds(LensSpace(13, 5), cf)
        assert (x.m_lower, x.mbar_upper) == (-2, 2)

    def test_supplied_expansion_must_match(self):
        with pytest.raises(DomainError):
            m_bounds(LensSpace(13, 5), admissible_cf((3,), ()))
        with pytest.raises(DomainError):
            m_bounds(LensSpace(5, 2), admissible_cf((1, -2), (1,)))

    def test_interval_parity(self):
        # both endpoints agree with rokhlin/4 modulo 2, like candidate
        # exact values from a single filling must
        for alpha in range(3, 62, 2):
            for beta in range(1, alpha):
                if math.gcd(alpha, beta) != 1:
                    continue
                x = m_bounds(LensSpace(alpha, beta))
                for endpoint in (x.m_lower, x.mbar_upper):
                    d = endpoint - Fraction(x.rokhlin.value, 4)
                    assert d.denominator == 1 and d.numerator % 2 == 0


class TestRokhlin:
    def test_values(self):
        assert m_bounds(LensSpace(3, 1)).rokhlin.value == 2
        assert m_bounds(LensSpace(3, 2)).rokhlin.value == 14
        assert m_bounds(LensSpace(7, 1)).rokhlin.value == 6
        assert m_bounds(LensSpace(7, 3)).rokhlin.value == 2
        assert m_bounds(LensSpace(5, 2)).rokhlin.value == 0

    def test_mirror_negates(self):
        for alpha, beta in ((5, 3), (7, 3), (11, 5), (13, 7), (39, 17)):
            r = m_bounds(LensSpace(alpha, beta)).rokhlin
            assert m_bounds(mirror(LensSpace(alpha, beta))).rokhlin == -r

    def test_matches_plumbing_wu_class(self):
        # odd beta through S(alpha, beta); even beta through the mirror
        # and the orientation reversal
        start = time.perf_counter()
        counts = [0, 0]
        for alpha in range(3, 300, 2):
            for beta in range(1, alpha):
                if math.gcd(alpha, beta) != 1 or (beta % 2 == 0 and alpha >= 200):
                    continue
                r = m_bounds(LensSpace(alpha, beta)).rokhlin.value
                assert r == plumbing_rokhlin(alpha, beta), (alpha, beta)
                counts[beta % 2] += 1
        assert counts == [4075, 9116]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"

    def test_bounds_independent_rokhlin(self):
        # the invariant must not depend on which admissible expansion
        # presents the cover
        from cobkit.lens import _TABLE_CFS

        for alpha, beta, a, b in _TABLE_CFS:
            space = LensSpace(alpha, beta)
            assert m_bounds(space, admissible_cf(a, b)).rokhlin == m_bounds(space).rokhlin


class TestClassifyOrder:
    def test_infinite_by_bounds(self):
        report = classify_order(LensSpace(3, 1))
        assert report.order == "inf"
        assert report.kind == "m_pos"
        assert report.reason == "m >= 1/2 > 0"

    def test_infinite_by_positive_expansion(self):
        report = classify_order(LensSpace(11, 9))
        assert report.order == "inf"
        assert find_positive_cf(report.cf.alpha, report.cf.beta) is not None

    def test_positive_expansion_verdict(self, monkeypatch):
        # no expansion reaches positive_cf (TestExpansionIndependence); with
        # the bound certificates held off, the report reads that kind and
        # searches for the all-positive expansion once
        searches = []

        def search(alpha, beta):
            searches.append((alpha, beta))
            return find_positive_cf(alpha, beta)

        def held_off(lower, upper, **kw):
            return _verdict(0, 0, **kw)

        monkeypatch.setattr("cobkit.lens.find_positive_cf", search)
        monkeypatch.setattr("cobkit.lens._verdict", held_off)
        space, cf = positive_family(1)
        report = classify_order(space, cf)
        assert (report.order, report.kind) == ("inf", "positive_cf")
        assert report.reason == "all-positive expansion [1,4,2] certifies infinite order"
        assert searches == [(11, 9)]
        assert classify_order(space).kind == "none" and searches == [(11, 9)]

    def test_annotated_order_two(self):
        report = classify_order(LensSpace(5, 3))
        assert report.order == "<=2"
        assert find_positive_cf(report.cf.alpha, report.cf.beta) is None
        assert report.kind == "annotation"
        assert "orientation-reversing" in report.reason

    def test_annotated_trivial(self):
        report = classify_order(LensSpace(9, 5))
        assert report.order == "0"
        assert report.kind == "annotation"
        assert report.reason == "bounds a Z/2-acyclic 4-manifold, so the class is 0"

    def test_unknown(self):
        report = classify_order(LensSpace(13, 7))
        assert report.order == "?"
        assert report.kind == "none"
        assert report.reason == "no certificate applies"

    def test_reports_expansion_of_odd_representative(self):
        for alpha in range(3, 60, 2):
            for beta in range(1, alpha):
                if math.gcd(alpha, beta) != 1:
                    continue
                odd_beta = beta if beta % 2 == 1 else alpha - beta
                report = classify_order(LensSpace(alpha, beta))
                assert report.cf == find_admissible_cf(alpha, odd_beta)

    def test_reports_supplied_expansion(self):
        cf = admissible_cf((2, -3), (1,))
        assert classify_order(LensSpace(13, 5), cf).cf is cf

    def test_supplied_expansion_refusals(self):
        # a supplied expansion must be of alpha/beta itself with beta odd;
        # for even beta the mirror refusal comes first, whatever the target
        mirror_message = "supply the expansion for the odd-beta mirror L(alpha, alpha - beta)"
        for cf, space, message in (
            (find_admissible_cf(39, 17), LensSpace(39, 22), mirror_message),
            (parse_cf("[2,4,-1]"), LensSpace(39, 22), mirror_message),
            (parse_cf("[2,4,-1]"), LensSpace(39, 17), "expansion targets 7/3, not 39/17"),
        ):
            for route in (classify_order, m_bounds):
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    route(space, cf)

    def test_annotations_cover_expected_keys(self):
        assert set(ORDER_ANNOTATIONS) == {(5, 3), (13, 5), (9, 5)}


class TestCensus:
    def test_each_coprime_odd_pair_once_in_order(self):
        rows = list(census(99))
        pairs = [(r.alpha, r.beta) for r in rows]
        assert len(pairs) == 1003
        assert pairs == sorted(set(pairs))
        assert all(a % 2 == b % 2 == 1 and math.gcd(a, b) == 1 for a, b in pairs)
        assert pairs[0] == (3, 1) and pairs[-1] == (99, 97)
        assert list(census(100)) == rows

    def test_rows_match_classify_order(self):
        # each row against sigma by Murasugi's lattice-point count, g by the
        # separate sums of the row's expansion, and the full records
        start = time.perf_counter()
        n = 0
        for row in census(399):
            sigma = murasugi_signature(row.alpha, row.beta)
            g = five_sum_invariants(parse_cf(row.cf)).slice_genus_upper.value
            assert (row.lower, row.upper) == (5 * sigma - 8 * g, 5 * sigma + 8 * g), row
            assert row.rokhlin == sigma % 16, row
            if row.lower > 0 or row.upper < 0:
                assert row.order == "inf", row
            else:
                assert row.order == ORDER_ANNOTATIONS.get((row.alpha, row.beta), "?"), row
            report = classify_order(LensSpace(row.alpha, row.beta))
            assert row == report.row
            n += 1
        assert n == 16182
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"

    def test_fused_rows_match_the_record_route(self):
        # each row comes from one forced walk; rebuild it from the record
        # route instead: the expansion checked by AdmissibleCF's full
        # builder, sigma and g from plat_invariants, the text from format_cf
        start = time.perf_counter()
        n = 0
        for row in census(399):
            alpha, beta = row.alpha, row.beta
            record = AdmissibleCF(*find_admissible_cf(alpha, beta))
            sigma, g = sigma_and_genus(record)
            lower, upper = 5 * sigma - 8 * g, 5 * sigma + 8 * g
            if lower > 0 or upper < 0:
                order = "inf"
            else:
                order = ORDER_ANNOTATIONS.get((alpha, beta), "?")
            text = format_cf(record)
            assert row == CensusRow(alpha, beta, lower, upper, sigma % 16, text, order)
            assert parse_cf(row.cf) == record
            n += 1
        assert n == 16182
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"

    def test_positive_expansion_implies_bound_certificate(self):
        # sigma = sum(a) - 1 and g <= (sum(a) - 1)/2, so m >= (sum(a) - 1)/4 > 0:
        # the certificate fires before an all-positive expansion is looked for
        start = time.perf_counter()
        positive = 0
        for row in census(399):
            cf = parse_cf(row.cf)
            if any(t <= 0 for t in cf.terms):
                continue
            positive += 1
            assert row.order == "inf"
            report = classify_order(LensSpace(row.alpha, row.beta))
            assert report.reason.startswith("m >= ")
            assert row.m_lower >= Fraction(sum(cf.a) - 1, 4) > 0
        assert positive == 3597
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"


class TestCensusMemo:
    """census computes a row's fields past the walk once per key (tally,
    a_n > 0, annotation) in its own sweep; the single-pair verbs walk
    once and build nothing twice."""

    def test_once_per_key_per_sweep(self, monkeypatch):
        calls = []
        tally_invariants = lens._tally_invariants

        def counted(tally, last):
            calls.append(tally)
            return tally_invariants(tally, last)

        monkeypatch.setattr(lens, "_tally_invariants", counted)
        assert len(list(census(399))) == 16182
        assert len(calls) == 1077
        # a second sweep starts from an empty memo: nothing is kept per process
        assert len(list(census(399))) == 16182
        assert len(calls) == 2154

    @pytest.mark.parametrize(
        "annotated, later", [((5, 3), (9, 7)), ((13, 5), (25, 9)), ((9, 5), (13, 7))]
    )
    def test_annotation_is_part_of_the_key(self, annotated, later):
        # the later pair shares the annotated pair's walk tally and a_n sign
        (terms, tally), (later_terms, later_tally) = _walk(*annotated), _walk(*later)
        assert tally == later_tally and (terms[-1] > 0) == (later_terms[-1] > 0)
        rows = {(r.alpha, r.beta): r for r in census(25)}
        assert rows[annotated].order == ORDER_ANNOTATIONS[annotated]
        assert rows[later].order == "?"

    def test_last_term_sign_is_part_of_the_key(self):
        assert _walk(11, 3) == ([3, 2, -2], (4, 6, 1, 0))
        assert _walk(21, 13) == ([1, 2, -2, -2, 2], (4, 6, 1, 0))
        rows = {(r.alpha, r.beta): r for r in census(21)}
        assert rows[11, 3][2:5] == (2, 18, 2)
        assert rows[21, 13][2:5] == (-8, 8, 0)

    @pytest.mark.parametrize(
        "argv", [["lens", "39", "22"], ["genus-bound", "--lens", "39", "17"]]
    )
    def test_one_walk_per_verb(self, capsys, monkeypatch, argv):
        # the row reads the walk's own terms and tally: no record is
        # interleaved and no a-term tallied again, wherever the name is bound
        calls = {"_walk": 0, "_interleave": 0, "_tally": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)

            return wrapper

        for module in (contfrac, lens, twobridge):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert calls == {"_walk": 1, "_interleave": 0, "_tally": 0}


class TestTable:
    EXPECTED = (
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

    def test_rows(self):
        rows = table1()
        assert len(rows) == len(self.EXPECTED)
        for row, (alpha, beta, lo, hi, rk, order) in zip(rows, self.EXPECTED):
            assert (row.space.alpha, row.space.beta) == (alpha, beta)
            assert row.bounds.m_lower == lo
            assert row.bounds.mbar_upper == hi
            assert row.bounds.rokhlin.value == rk
            assert row.order == order

    def test_expansions_hit_their_targets(self):
        for row in table1():
            assert (row.cf.alpha, row.cf.beta) == (row.space.alpha, row.space.beta)


class TestFamily:
    def test_positive_family(self):
        space, cf = positive_family(1)
        assert space == LensSpace(11, 9)
        assert cf.terms == (1, 4, 2)
        space, cf = positive_family(3)
        assert space == LensSpace(31, 25)
        assert cf.terms == (1, 4, 6)

    def test_positive_family_all_infinite(self):
        for n in range(1, 7):
            space, cf = positive_family(n)
            report = classify_order(space, cf)
            assert report.order == "inf"
            assert m_bounds(space, cf).m_lower == Fraction(n, 2)

    def test_series_family(self):
        space, cf = family(2)
        assert space == LensSpace(39, 17)
        x = m_bounds(space, cf)
        assert (x.m_lower, x.rokhlin.value) == (Fraction(-3, 2), 2)
        space, cf = family(4)
        assert space == LensSpace(71, 31)
        x = m_bounds(space, cf)
        assert (x.m_lower, x.mbar_upper, x.rokhlin.value) == (
            Fraction(-3, 2),
            Fraction(13, 2),
            2,
        )

    def test_family_validation(self):
        with pytest.raises(DomainError, match="requires even k"):
            family(3)
        with pytest.raises(DomainError, match="requires a positive parameter"):
            family(0)
        with pytest.raises(DomainError, match="requires n >= 1"):
            positive_family(0)


class TestMirrorConsistency:
    def test_even_beta_equals_reversed_odd(self):
        # the kernel reverses the odd mirror's row in integers; the record
        # route reverses its MBounds: the two must agree to the provenance
        start = time.perf_counter()
        checked = 0
        for alpha in range(3, 200, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                direct = m_bounds(LensSpace(alpha, beta))
                via = reverse_orientation(m_bounds(LensSpace(alpha, alpha - beta)))
                assert (direct.m_lower, direct.mbar_upper) == (via.m_lower, via.mbar_upper)
                assert direct.rokhlin == via.rokhlin, (alpha, beta)
                head = f"L({alpha},{beta}) as reversed mirror"
                assert direct.provenance == (head, *via.provenance), (alpha, beta)
                checked += 1
        assert checked == 4075
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"


def admissible_expansions(max_terms: int, max_term: int):
    """(a, b, p, q) for every a, b whose terms (a1, 2b1, ..., an) number
    at most max_terms, each of size at most max_term, and keep the sign
    rule a_i b_i > 0; p/q is the value, built from the innermost term
    out by (p, q) <- (t p + q, p)."""
    a_range = [t for t in range(-max_term, max_term + 1) if t]
    b_sizes = range(1, max_term // 2 + 1)
    level = [((x,), (), x, 1) for x in a_range]
    yield from level
    for _ in range((max_terms - 1) // 2):
        longer = []
        for a, b, p, q in level:
            assert p != 0  # the sign rule keeps every tail nonzero
            for x in a_range:
                for size in b_sizes:
                    y = size if x > 0 else -size
                    p1, q1 = 2 * y * p + q, p
                    assert p1 != 0
                    longer.append(((x, *a), (y, *b), x * p1 + q1, p1))
        level = longer
        yield from level


class TestExpansionIndependence:
    def test_every_small_expansion_agrees_with_the_forced_one(self):
        # sigma is a knot invariant; no expansion bounds the slice genus
        # below the forced one, so a supplied cf never tightens an interval
        start = time.perf_counter()
        forced = {}
        seen = 0
        enumerated = 0
        for a, b, p, q in admissible_expansions(max_terms=7, max_term=4):
            enumerated += 1
            alpha, beta = (p, q) if q > 0 else (-p, -q)
            if not (alpha % 2 == beta % 2 == 1 and beta < alpha <= 31):
                continue
            cf = AdmissibleCF(a, b, alpha, beta)
            space = LensSpace(alpha, beta)
            if (alpha, beta) not in forced:
                found = find_admissible_cf(alpha, beta)
                forced[alpha, beta] = (sigma_and_genus(found), m_bounds(space))
            (sigma, genus), bounds = forced[alpha, beta]
            cf_sigma, cf_genus = sigma_and_genus(cf)
            assert cf_sigma == sigma and cf_genus >= genus, cf
            x = m_bounds(space, cf)
            assert x.m_lower <= bounds.m_lower and bounds.mbar_upper <= x.mbar_upper, cf
            assert x.rokhlin == bounds.rokhlin, cf
            seen += 1
        # 8 + 8^2 2 + 8^3 2^2 + 8^4 2^3 sequences; 51 of the 106 pairs have one
        assert (enumerated, len(forced), seen) == (34952, 51, 92)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"enumeration took {elapsed:.2f}s, budget 10s"

    def test_positive_pairs_are_certified_by_every_expansion(self):
        # the positive_cf verdict needs a supplied expansion whose own bounds
        # certify nothing while its pair has an all-positive one; no small
        # expansion is such, so every one of them reads m_pos first
        start = time.perf_counter()
        positive = {}
        records = checked = 0
        for a, b, p, q in admissible_expansions(max_terms=7, max_term=5):
            alpha, beta = (p, q) if q > 0 else (-p, -q)
            if not (alpha % 2 == beta % 2 == 1 and 0 < beta < alpha):
                continue
            records += 1
            if (alpha, beta) not in positive:
                positive[alpha, beta] = find_positive_cf(alpha, beta) is not None
            if positive[alpha, beta]:
                report = classify_order(LensSpace(alpha, beta), AdmissibleCF(a, b, alpha, beta))
                assert report.kind == "m_pos", (a, b)
                checked += 1
        # 19,138 pairs, 2,828 of them with an all-positive expansion
        counts = (records, len(positive), sum(positive.values()), checked)
        assert counts == (21026, 19138, 2828, 3326)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"enumeration took {elapsed:.2f}s, budget 10s"


class TestOrientation:
    def test_verdict_survives_reversal(self):
        # [-L] = -[L]: every lens interval, of both parities of beta, gets
        # the verdict of its reversal and of the paper's certificate
        start = time.perf_counter()
        counts = [0, 0]
        for alpha in range(3, 300, 2):
            for beta in range(1, alpha):
                if math.gcd(alpha, beta) == 1:
                    counts[reversal_verdict(m_bounds(LensSpace(alpha, beta))) == "infinite"] += 1
        assert counts == [11354, 6878]  # unknown, infinite
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"


class TestHomeomorphicPresentations:
    def test_inverse_presentation_agrees(self):
        # L(alpha, beta) and L(alpha, beta^-1 mod alpha) are homeomorphic:
        # the two routes must give one Rokhlin class and intervals that meet
        start = time.perf_counter()
        checked = 0
        for alpha in range(3, 300, 2):
            bounds = {
                beta: m_bounds(LensSpace(alpha, beta))
                for beta in range(1, alpha)
                if math.gcd(alpha, beta) == 1
            }
            for beta, x in bounds.items():
                y = bounds[pow(beta, -1, alpha)]
                assert x.rokhlin == y.rokhlin, (alpha, beta)
                assert max(x.m_lower, y.m_lower) <= min(x.mbar_upper, y.mbar_upper), (alpha, beta)
                checked += 1
        assert checked == 18232
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"
