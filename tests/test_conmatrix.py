import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_matrices as ref
from conftest import mat_mul
from relfact import cli, conmatrix
from relfact.conmatrix import (
    connectivity_matrix,
    connectivity_matrix_det,
    connectivity_number,
    invert_connectivity_matrix,
    pi_vector,
    xi_vector,
)
from relfact.linalg import (
    abelian_signature,
    is_symmetric,
    rational_inverse_oracle,
    smith_normal_form,
)
from relfact.partitions import (
    Partition,
    all_partitions,
    bell_number,
    coherent_order,
    conjugate,
    join,
    meet,
    refines,
)


def P(text):
    return Partition.parse(text)


def lookup(order, label):
    return order.position(P(label))


def vec(*pairs):
    return {P(label): coeff for label, coeff in pairs}


# Test reference: pi and xi as the products that define them, multiplied
# out factor by factor in the join and meet algebras.


def pair_partition(n, i, j):
    """The partition of {1..n} whose only non-singleton block is {i, j}."""
    return Partition.from_labels(i if x == j else x for x in range(1, n + 1))


def crossing_pairs(a):
    """Unordered pairs of ground elements lying in different blocks of a."""
    return [(i, j) for (i, x), (j, y) in itertools.combinations(enumerate(a.labels, 1), 2) if x != y]


def lattice_action(op, p, v):
    """Multiply a sparse algebra vector by a basis state in the algebra of
    the lattice operation op (join or meet)."""
    out = {}
    for s, c in v.items():
        t = op(p, s)
        out[t] = out.get(t, 0) + c
    return {s: c for s, c in out.items() if c}


def vec_sub(u, v):
    out = dict(u)
    for s, c in v.items():
        out[s] = out.get(s, 0) - c
    return {s: c for s, c in out.items() if c}


def cocovers(a):
    """States obtained from a by splitting exactly one block into two
    non-empty parts: the immediate refinements of a."""
    out = []
    for blk in a.blocks:
        others = blk[1:]
        # the part keeping the block minimum names each split once
        for r in range(len(others)):
            for keep in itertools.combinations(others, r):
                moved = set(others).difference(keep)
                labels = (-1 if x in moved else k for x, k in enumerate(a.labels, 1))
                out.append(Partition.from_labels(labels))
    return out


def pi_product(a):
    """The product, over every pair {i,j} crossing the blocks of a, of
    (identity - pair_state({i,j})) in the join algebra, applied to a."""
    v = {a: 1}
    for i, j in crossing_pairs(a):
        v = vec_sub(v, lattice_action(join, pair_partition(a.n, i, j), v))
    return v


def xi_product(a):
    """The product, over the one-block splits c of a, of (a - c) in the
    meet algebra."""
    v = {a: 1}
    for c in cocovers(a):
        v = vec_sub(v, lattice_action(meet, c, v))
    return v


class TestMoebiusClosedForms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pi_equals_the_product(self, n):
        for a in all_partitions(n):
            assert pi_vector(a) == pi_product(a)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_xi_equals_the_product(self, n):
        for a in all_partitions(n):
            assert xi_vector(a) == xi_product(a)


class TestPiVector:
    def test_top_is_fixed(self):
        top = Partition.top(4)
        assert pi_vector(top) == {top: 1}

    def test_n3_bottom(self):
        got = pi_vector(P("1|2|3"))
        assert got == vec(("1|2|3", 1), ("12|3", -1), ("13|2", -1), ("1|23", -1), ("123", 2))

    def test_n3_pair_state(self):
        assert pi_vector(P("12|3")) == vec(("12|3", 1), ("123", -1))

    def test_unit_coefficient_and_coarser_support(self):
        for n in range(1, 5):
            for a in all_partitions(n):
                v = pi_vector(a)
                assert v[a] == 1
                for s in v:
                    assert refines(a, s)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kill_and_fix_laws(self, n):
        for a in all_partitions(n):
            v = pi_vector(a)
            for b in all_partitions(n):
                if refines(b, a):
                    assert lattice_action(join, b, v) == v
                else:
                    assert lattice_action(join, b, v) == {}

    @settings(max_examples=80)
    @given(
        idx=st.integers(0, bell_number(5) - 1),
        other=st.integers(0, bell_number(5) - 1),
        sigma=st.permutations(list(range(1, 6))),
    )
    def test_laws_random_n5(self, idx, other, sigma):
        a = all_partitions(5)[idx]
        b = all_partitions(5)[other]
        v = pi_vector(a)
        if refines(b, a):
            assert lattice_action(join, b, v) == v
        else:
            assert lattice_action(join, b, v) == {}
        conjugated = {conjugate(sigma, s): c for s, c in v.items()}
        assert pi_vector(conjugate(sigma, a)) == conjugated


class TestConnectivityNumbers:
    def test_top(self):
        assert connectivity_number(Partition.top(3)) == 1

    def test_n3_values(self):
        assert connectivity_number(P("1|2|3")) == 2
        assert connectivity_number(P("12|3")) == -1

    def test_magnitudes_up_to_n5(self):
        for n in range(1, 6):
            for a in all_partitions(n):
                assert abs(connectivity_number(a)) == math.factorial(a.block_count - 1)

    def test_conjugation_invariant(self):
        rng = random.Random(3)
        for a in all_partitions(5):
            sigma = list(range(1, 6))
            rng.shuffle(sigma)
            assert connectivity_number(conjugate(sigma, a)) == connectivity_number(a)

    def test_n5_bottom_against_subset_expansion(self):
        # independent oracle: expand over all subsets of the 10 crossing pairs
        bottom = Partition.singletons(5)
        pairs = crossing_pairs(bottom)
        assert len(pairs) == 10
        top = Partition.top(5)
        total = 0
        for r in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, r):
                merged = bottom
                for i, j in chosen:
                    merged = join(merged, pair_partition(5, i, j))
                if merged == top:
                    total += (-1) ** r
        assert total == connectivity_number(bottom)
        assert abs(total) == 24


class TestXiVector:
    def test_bottom_is_fixed(self):
        bottom = Partition.singletons(4)
        assert xi_vector(bottom) == {bottom: 1}

    def test_n3_pair_state(self):
        assert xi_vector(P("12|3")) == vec(("12|3", 1), ("1|2|3", -1))

    def test_n3_top(self):
        assert xi_vector(P("123")) == vec(
            ("123", 1), ("12|3", -1), ("13|2", -1), ("1|23", -1), ("1|2|3", 2)
        )

    def test_cocover_counts(self):
        # one block of size k splits in 2^(k-1) - 1 ways
        assert len(cocovers(Partition.top(4))) == 7
        assert len(cocovers(P("12|34"))) == 2
        assert cocovers(Partition.singletons(3)) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kill_and_fix_laws(self, n):
        for a in all_partitions(n):
            v = xi_vector(a)
            assert v[a] == 1
            for b in all_partitions(n):
                if refines(b, a) and b != a:
                    assert lattice_action(meet, b, v) == {}
                if refines(a, b):
                    assert lattice_action(meet, b, v) == v

    @settings(max_examples=60)
    @given(idx=st.integers(0, bell_number(5) - 1), sigma=st.permutations(list(range(1, 6))))
    def test_equivariance_n5(self, idx, sigma):
        a = all_partitions(5)[idx]
        conjugated = {conjugate(sigma, s): c for s, c in xi_vector(a).items()}
        assert xi_vector(conjugate(sigma, a)) == conjugated


class TestConnectivityMatrix:
    def test_n2_reference(self):
        order = coherent_order(2)
        A = connectivity_matrix(order)
        for i, ri in enumerate(ref.N2_ORDER):
            for j, rj in enumerate(ref.N2_ORDER):
                assert A[lookup(order, ri)][lookup(order, rj)] == ref.N2_A[i][j]

    def test_n3_reference(self):
        order = coherent_order(3)
        A = connectivity_matrix(order)
        for i, ri in enumerate(ref.N3_ORDER):
            for j, rj in enumerate(ref.N3_ORDER):
                assert A[lookup(order, ri)][lookup(order, rj)] == ref.N3_A[i][j]

    def test_n4_reference(self):
        order = coherent_order(4)
        A = connectivity_matrix(order)
        for i, ri in enumerate(ref.N4_ORDER):
            for j, rj in enumerate(ref.N4_ORDER):
                assert A[lookup(order, ri)][lookup(order, rj)] == ref.N4_A[i][j]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_symmetric_zero_one(self, n):
        A = connectivity_matrix(coherent_order(n))
        size = bell_number(n)
        assert len(A) == size
        for i in range(size):
            for j in range(size):
                assert A[i][j] in (0, 1)
                assert A[i][j] == A[j][i]


class TestBundle:
    @pytest.mark.parametrize("variant", ["canonical", "reversed-levels"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_triangular_unit_diagonal(self, n, variant):
        b = invert_connectivity_matrix(coherent_order(n, variant))
        size = len(b.order.states)
        for i in range(size):
            assert b.B[i][i] == 1 and b.D[i][i] == 1
            for j in range(i + 1, size):
                assert b.B[i][j] == 0  # lower triangular
                assert b.D[j][i] == 0  # upper triangular

    def test_n2_inverse_reference(self):
        b = invert_connectivity_matrix(coherent_order(2))
        for i, ri in enumerate(ref.N2_ORDER):
            for j, rj in enumerate(ref.N2_ORDER):
                assert b.A_inv[lookup(b.order, ri)][lookup(b.order, rj)] == ref.N2_A_INV[i][j]

    def test_n3_inverse_and_factors_reference(self):
        b = invert_connectivity_matrix(coherent_order(3))
        o = b.order
        for i, ri in enumerate(ref.N3_ORDER):
            for j, rj in enumerate(ref.N3_ORDER):
                assert b.A_inv[lookup(o, ri)][lookup(o, rj)] == Fraction(
                    ref.N3_A_INV_NUM[i][j], ref.N3_A_INV_DEN
                )
                assert b.B[lookup(o, ri)][lookup(o, rj)] == ref.N3_B[i][j]
                assert b.D[lookup(o, ri)][lookup(o, rj)] == ref.N3_D[i][j]
        for j, rj in enumerate(ref.N3_ORDER):
            k = lookup(o, rj)
            assert b.C[k][k] == ref.N3_C_DIAG[j]

    def test_n4_inverse_reference(self):
        b = invert_connectivity_matrix(coherent_order(4))
        for i, ri in enumerate(ref.N4_ORDER):
            for j, rj in enumerate(ref.N4_ORDER):
                assert b.A_inv[lookup(b.order, ri)][lookup(b.order, rj)] == Fraction(
                    ref.N4_A_INV_NUM[i][j], ref.N4_A_INV_DEN
                )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_elimination_oracle(self, n):
        b = invert_connectivity_matrix(coherent_order(n))
        assert b.A_inv == rational_inverse_oracle(b.A)

    @pytest.mark.parametrize("variant", ["canonical", "reversed-levels"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dense_triangular_product(self, n, variant):
        # reference route: the dense rational product B * C * D
        b = invert_connectivity_matrix(coherent_order(n, variant))
        assert b.A_inv == mat_mul(mat_mul(b.B, b.C), b.D)
        assert all(isinstance(x, Fraction) for row in b.A_inv for x in row)

    @pytest.mark.parametrize("which", ["pi_vector", "xi_vector"])
    def test_corrupted_factor_raises(self, monkeypatch, which):
        real = getattr(conmatrix, which)
        keep = {Partition.top(3)}  # dropping alpha would trip a different check
        dropped = []

        def one_term_short(a):
            v = real(a)
            if not dropped:
                extra = sorted((s for s in v if s != a and s not in keep), key=str)
                if extra:
                    dropped.append(extra[0])
                    del v[extra[0]]
            return v

        monkeypatch.setattr(conmatrix, which, one_term_short)
        with pytest.raises(RuntimeError, match="failed to invert"):
            invert_connectivity_matrix(coherent_order(3))
        assert dropped

    @pytest.mark.parametrize("variant", ["canonical", "reversed-levels"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_d_is_the_transpose_of_b(self, n, variant):
        # Moebius duality: xi's coefficients are pi's, transposed
        b = invert_connectivity_matrix(coherent_order(n, variant))
        assert b.D == [list(col) for col in zip(*b.B)]

    def test_n6_builds_symmetric(self):
        b = invert_connectivity_matrix(coherent_order(6))
        assert len(b.A_inv) == bell_number(6)
        assert is_symmetric(b.A_inv)
        assert all((x * math.factorial(5)).denominator == 1 for row in b.A_inv for x in row)

    @pytest.mark.parametrize("n", [7, 8])
    def test_too_large_rejected_up_front(self, n):
        assert n > conmatrix.MAX_BUNDLE_GROUND_SET
        with pytest.raises(ValueError, match="at most 6 nodes"):
            invert_connectivity_matrix(coherent_order(n))


class TestConmatrixCli:
    def test_n6_json(self, capsys):
        assert cli.main(["conmatrix", "--n", "6", "--output", "json"]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)["A_inv"]) == bell_number(6)

    @pytest.mark.parametrize("n", ["7", "8"])
    def test_past_bundle_limit_exit_2(self, capsys, n):
        assert cli.main(["conmatrix", "--n", n]) == 2
        assert "n must be in 1..6" in capsys.readouterr().err


class TestDeterminant:
    def test_known_values(self):
        assert abs(connectivity_matrix_det(2)) == 1
        assert abs(connectivity_matrix_det(3)) == 2
        assert abs(connectivity_matrix_det(4)) == 384

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orbit_product_formula(self, n):
        from relfact.partitions import orbits

        expected = 1
        for o in orbits(n):
            expected *= math.factorial(o.block_count - 1) ** o.size
        assert abs(connectivity_matrix_det(n)) == expected


class TestInvariantFactors:
    def test_n3_torsion(self):
        f = smith_normal_form(connectivity_matrix(coherent_order(3)))
        assert f.torsion_prime_powers == abelian_signature([2])

    def test_n4_torsion(self):
        f = smith_normal_form(connectivity_matrix(coherent_order(4)))
        assert f.torsion_prime_powers == abelian_signature([6] + [2] * 6)

    def test_n5_torsion(self):
        f = smith_normal_form(connectivity_matrix(coherent_order(5)))
        assert f.torsion_prime_powers == abelian_signature([24] + [6] * 10 + [2] * 25)
