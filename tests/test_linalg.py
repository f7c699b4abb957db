import math
import random
from fractions import Fraction

import pytest

from conftest import mat_mul
from elimination import (
    SingularMatrixError,
    fraction_free_determinant,
    rational_inverse_oracle,
    smith_normal_form,
)
from relfact.linalg import abelian_signature, diagonal_smith_form


def identity_matrix(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def leibniz_det(m):
    """Independent oracle: determinant by permutation expansion (n <= 4)."""
    import itertools

    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


class TestDeterminant:
    def test_small_known(self):
        assert fraction_free_determinant([[0, 1], [1, 1]]) == -1
        assert fraction_free_determinant([[2]]) == 2
        assert fraction_free_determinant([[1, 2], [2, 4]]) == 0

    def test_against_permutation_expansion(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert fraction_free_determinant(m) == leibniz_det(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            fraction_free_determinant([[1, 2]])


class TestInverseOracle:
    def test_identity(self):
        assert rational_inverse_oracle(identity_matrix(3)) == identity_matrix(3)

    def test_known_2x2(self):
        inv = rational_inverse_oracle([[0, 1], [1, 1]])
        assert inv == [[Fraction(-1), Fraction(1)], [Fraction(1), Fraction(0)]]

    def test_random_inverse_property(self):
        rng = random.Random(7)
        done = 0
        while done < 30:
            n = rng.randint(1, 5)
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if fraction_free_determinant(m) == 0:
                continue
            inv = rational_inverse_oracle(m)
            assert mat_mul(m, inv) == identity_matrix(n)
            assert mat_mul(inv, m) == identity_matrix(n)
            done += 1

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            rational_inverse_oracle([[1, 2], [2, 4]])


class TestSmithNormalForm:
    def test_identity(self):
        f = smith_normal_form([[1, 0], [0, 1]])
        assert f.snf_diagonal == (1, 1)
        assert f.torsion_prime_powers == ()

    def test_diag_2_3(self):
        f = smith_normal_form([[2, 0], [0, 3]])
        assert f.snf_diagonal == (1, 6)
        assert f.torsion_prime_powers == ((2, 1, 1), (3, 1, 1))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            smith_normal_form([[2, 4], [1, 2]])

    def test_divisor_chain_and_det(self):
        rng = random.Random(31)
        done = 0
        while done < 40:
            n = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            det = fraction_free_determinant(m)
            if det == 0:
                continue
            f = smith_normal_form(m)
            for a, b in zip(f.snf_diagonal, f.snf_diagonal[1:]):
                assert b % a == 0
            assert math.prod(f.snf_diagonal) == abs(det)
            done += 1

    def test_transform_invariance(self):
        # multiplying by unimodular matrices must not change the invariants
        m = [[2, 0, 0], [0, 6, 0], [0, 0, 4]]
        u = [[1, 1, 0], [0, 1, 0], [0, 3, 1]]
        base = smith_normal_form(m)
        assert smith_normal_form(mat_mul(u, m)) == base
        assert smith_normal_form(mat_mul(m, u)) == base


class TestDiagonalSmithForm:
    def test_known(self):
        f = diagonal_smith_form([2, 3])
        assert f.snf_diagonal == (1, 6)
        assert f.torsion_prime_powers == ((2, 1, 1), (3, 1, 1))
        assert diagonal_smith_form([]).snf_diagonal == ()

    def test_against_elimination(self):
        rng = random.Random(12)
        for _ in range(60):
            entries = [rng.randint(1, 150) for _ in range(rng.randint(1, 6))]
            m = [[d if i == j else 0 for j in range(len(entries))] for i, d in enumerate(entries)]
            assert diagonal_smith_form(entries) == smith_normal_form(m)

    @pytest.mark.parametrize("bad", [[0], [3, -2]])
    def test_rejects_entries_below_one(self, bad):
        with pytest.raises(ValueError, match="positive"):
            diagonal_smith_form(bad)


class TestAbelianSignature:
    def test_isomorphic_decompositions_agree(self):
        assert abelian_signature([6] + [2] * 6) == abelian_signature([3] + [2] * 7)
        assert abelian_signature([24] + [6] * 10 + [2] * 25) == abelian_signature(
            [8] + [3] * 11 + [2] * 35
        )

    def test_trivial_summands_ignored(self):
        assert abelian_signature([1, 1, 4]) == ((2, 2, 1),)
