import random
from fractions import Fraction

import pytest
import sympy

from cobkit.cobordism import infinite_order_certificate
from cobkit.errors import DomainError
from cobkit.plumbing import (
    MontesinosInvariants,
    MpqrTriple,
    TpqrInvariants,
    montesinos_invariants,
    sigma_pqr_bounds,
    tpqr_invariants,
)
from oracles import StarPlumbing, all_valid_triples, det_exact, inertia, reversal_verdict


def sympy_inertia(mat):
    roots = sympy.real_roots(sympy.Matrix(mat).charpoly())
    pos = sum(1 for r in roots if r.is_positive)
    neg = sum(1 for r in roots if r.is_negative)
    return pos, len(roots) - pos - neg, neg


def random_symmetric(rng, n, span=4):
    m = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[j][i] = m[i][j]
    return m


class TestStarPlumbing:
    def test_size(self):
        assert StarPlumbing(2, 3, 7).size == 10
        assert StarPlumbing(1, 1, 1).size == 1

    def test_single_vertex(self):
        assert StarPlumbing(1, 1, 1).matrix() == [[-2]]

    def test_matrix_structure(self):
        m = StarPlumbing(2, 3, 7).matrix()
        n = len(m)
        assert n == 10
        assert all(m[i][i] == -2 for i in range(n))
        assert m == [list(col) for col in zip(*m)]
        # the central vertex (last) meets one end of each arm
        assert sum(m[n - 1][j] for j in range(n - 1)) == 3
        # edge count of a tree on n vertices
        total_ones = sum(m[i][j] for i in range(n) for j in range(n) if i != j)
        assert total_ones == 2 * (n - 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            StarPlumbing(0, 1, 1)


class TestInertia:
    def test_diagonal(self):
        assert inertia([[3]]) == (1, 0, 0)
        assert inertia([[-2]]) == (0, 0, 1)
        assert inertia([[3, 0, 0], [0, -5, 0], [0, 0, 0]]) == (1, 1, 1)

    def test_zero_matrix(self):
        assert inertia([[0] * 3 for _ in range(3)]) == (0, 3, 0)

    def test_hyperbolic_plane(self):
        assert inertia([[0, 1], [1, 0]]) == (1, 0, 1)
        assert inertia([[0, 2], [2, 0]]) == (1, 0, 1)

    def test_rejects_bad_matrices(self):
        with pytest.raises(DomainError):
            inertia([[0, 1], [2, 0]])
        with pytest.raises(DomainError):
            inertia([[1, 2]])

    def test_matches_eigenvalue_counts(self):
        rng = random.Random(7)
        for _ in range(25):
            m = random_symmetric(rng, rng.randint(1, 5))
            assert inertia(m) == sympy_inertia(m)

    def test_fraction_entries(self):
        half = Fraction(1, 2)
        assert inertia([[half, 0], [0, -half]]) == (1, 0, 1)


class TestDeterminant:
    def test_small_cases(self):
        assert det_exact([[5]]) == 5
        assert det_exact([[1, 2], [3, 4]]) == -2
        assert det_exact([[0, 1], [1, 0]]) == -1
        assert det_exact([[1, 2], [2, 4]]) == 0
        assert det_exact([[0, 1, 2], [1, 0, 3], [2, 3, 0]]) == 12

    def test_identity(self):
        n = 6
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert det_exact(eye) == 1

    def test_matches_sympy(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_exact(m) == sympy.Matrix(m).det()

    def test_rejects_non_integer(self):
        with pytest.raises(DomainError):
            det_exact([[Fraction(1, 2)]])
        with pytest.raises(DomainError):
            det_exact([[1, 2, 3], [4, 5, 6]])


class TestMpqrTriple:
    def test_valid(self):
        assert MpqrTriple(2, 3, 7).total == 12
        assert MpqrTriple(2, 5, 5).total == 12
        assert MpqrTriple(3, 4, 5).total == 12
        assert MpqrTriple(2, 3, 17).total == 22

    def test_rejects(self):
        with pytest.raises(DomainError):
            MpqrTriple(2, 3, 5)  # 1/p + 1/q + 1/r >= 1
        with pytest.raises(DomainError):
            MpqrTriple(2, 4, 7)  # two even
        with pytest.raises(DomainError):
            MpqrTriple(3, 5, 7)  # none even
        with pytest.raises(DomainError):
            MpqrTriple(3, 2, 7)  # not sorted
        with pytest.raises(DomainError):
            MpqrTriple(2, 3, 19)  # sum > 22

    def test_enumeration_is_substantial(self):
        triples = all_valid_triples()
        assert len(triples) > 20
        assert MpqrTriple(2, 3, 7) in triples


class TestTpqrInvariants:
    def test_examples(self):
        assert tpqr_invariants(MpqrTriple(2, 3, 7)) == TpqrInvariants(
            rank=10, signature=-8, determinant_abs=1
        )
        assert tpqr_invariants(MpqrTriple(3, 4, 5)) == TpqrInvariants(
            rank=10, signature=-8, determinant_abs=13
        )
        assert tpqr_invariants(MpqrTriple(2, 3, 11)) == TpqrInvariants(
            rank=14, signature=-12, determinant_abs=5
        )
        assert tpqr_invariants(MpqrTriple(2, 5, 7)) == TpqrInvariants(
            rank=12, signature=-10, determinant_abs=11
        )

    def test_closed_forms_hold_everywhere(self):
        # on every triple the verb accepts, the closed forms agree with
        # exact elimination on the matrix
        triples = all_valid_triples()
        assert len(triples) == 68
        for t in triples:
            inv = tpqr_invariants(t)
            assert inv.rank == t.total - 2
            assert inv.signature == 4 - t.total
            assert inv.determinant_abs % 2 == 1
            mat = StarPlumbing(t.p, t.q, t.r).matrix()
            pos, zero, neg = inertia(mat)
            det = det_exact(mat)
            closed = t.p * t.q * t.r - t.p * t.q - t.p * t.r - t.q * t.r
            assert abs(det) == abs(closed), t
            assert det % 2 != 0, t
            assert zero == 0 and pos == 1, t
            assert pos - neg == 4 - t.total, t
            assert (len(mat), pos - neg, abs(det)) == (
                inv.rank, inv.signature, inv.determinant_abs
            ), t

    def test_negative_definite_part(self):
        mat = StarPlumbing(2, 3, 7).matrix()
        assert inertia(mat) == (1, 0, 9)


class TestSigmaPqrBounds:
    def test_poincare_like_sphere(self):
        x = sigma_pqr_bounds(MpqrTriple(2, 3, 7))
        assert (x.m_exact, x.mbar_exact, x.rokhlin) == (-2, 0, 8)

    def test_deeper_sphere(self):
        x = sigma_pqr_bounds(MpqrTriple(2, 3, 11))
        assert (x.m_exact, x.mbar_exact, x.rokhlin) == (-3, -1, 4)
        assert infinite_order_certificate(x).verdict == "infinite"

    def test_same_invariants_different_triple(self):
        x = sigma_pqr_bounds(MpqrTriple(3, 4, 5))
        assert (x.m_exact, x.mbar_exact, x.rokhlin) == (-2, 0, 8)

    def test_gap_always_two(self):
        for t in all_valid_triples():
            x = sigma_pqr_bounds(t)
            assert x.mbar_exact - x.m_exact == 2
            assert x.rokhlin == (4 - t.total) % 16

    def test_exact_mbar_zero_certifies(self):
        # m = -2, mbar = 0 exactly with R = 8: -Y has m = 0 with R = 8, and
        # [-Y] = -[Y], so Y has infinite order too
        cert = infinite_order_certificate(sigma_pqr_bounds(MpqrTriple(2, 3, 7)))
        assert cert.verdict == "infinite"
        assert cert.reason == "mbar = 0 with Rokhlin invariant 8 != 0"

    def test_verdict_survives_reversal(self):
        # each triple and its reversal get one verdict, as the paper's
        # certificate read on either orientation gives
        verdicts = [reversal_verdict(sigma_pqr_bounds(t)) for t in all_valid_triples()]
        # T(3,3,4), m = -3/2 and mbar = 1/2, is the one left unknown
        assert len(verdicts) == 68 and verdicts.count("infinite") == 67
        x = sigma_pqr_bounds(MpqrTriple(3, 3, 4))
        assert infinite_order_certificate(x).verdict == "unknown"


class TestMontesinos:
    def test_examples(self):
        assert montesinos_invariants(MpqrTriple(2, 3, 7)) == MontesinosInvariants(
            slice_genus=5, unknotting_number=5, signature=8
        )
        assert montesinos_invariants(MpqrTriple(2, 3, 17)) == MontesinosInvariants(
            slice_genus=10, unknotting_number=10, signature=18
        )

    def test_signature_bound_saturated(self):
        # these knots have unknotting number equal to half the signature plus one
        for t in all_valid_triples():
            inv = montesinos_invariants(t)
            assert inv.signature == 2 * inv.unknotting_number - 2
            assert inv.slice_genus == inv.unknotting_number
