import functools
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_matrices as ref
from conftest import dense_inverse_form, mat_mul
from elimination import fraction_free_determinant, rational_inverse_oracle, smith_normal_form
from lattice import (
    bell_number,
    conjugate,
    connectivity_matrix_det,
    diagonal_factor,
    join,
    meet,
    orbits,
    parse_partition,
    refines,
)
from relfact import cli, conmatrix
from relfact.conmatrix import (
    connectivity_matrix,
    connectivity_number,
    inverse_form,
    invert_connectivity_matrix,
    is_symmetric,
    pi_vector,
)
from relfact.linalg import abelian_signature, diagonal_smith_form
from relfact.partitions import ORDER_VARIANTS, Partition, all_partitions, coherent_order


def P(text):
    return parse_partition(text)


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


@functools.cache
def xi_columns(n):
    """xi(a) for every partition a of {1..n}, read off the columns of the
    bundle's D = B^T."""
    b = invert_connectivity_matrix(coherent_order(n))
    D, states = b.D, b.order.states
    return {a: {states[i]: row[j] for i, row in enumerate(D) if row[j]} for j, a in enumerate(states)}


def xi_vector(a):
    """Expansion of xi(a) = sum over c <= a of mu(c, a) * c, as the bundle
    holds it."""
    return dict(xi_columns(a.n)[a])


class TestMoebiusClosedForms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pi_equals_the_product(self, n):
        for a in all_partitions(n):
            assert pi_vector(a) == pi_product(a)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_xi_equals_the_product(self, n):
        # the bundle's D, column by column, against the paper's meet products
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

    def test_equals_the_top_coefficient_of_pi(self):
        # the closed form mu(a, top) against the expansion it reads off
        for n in range(1, 7):
            top = Partition.top(n)
            for a in all_partitions(n):
                assert connectivity_number(a) == pi_vector(a)[top]

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


@functools.lru_cache(maxsize=None)
def cached_bundle(n, variant):
    return invert_connectivity_matrix(coherent_order(n, variant))


class TestInverseForm:
    """The combine of the cut factorization, sum over a of
    <pi(a), r1> * <pi(a), r2> / alpha(a), against r1^T * A^-1 * r2 summed
    over each order's dense inverse."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5))
    def test_equals_the_dense_bilinear_form(self, data, n):
        states = all_partitions(n)
        vectors = st.lists(st.fractions(max_denominator=60), min_size=len(states), max_size=len(states))
        r1 = dict(zip(states, data.draw(vectors)))
        r2 = dict(zip(states, data.draw(vectors)))
        value = inverse_form(r1, r2)
        for variant in ORDER_VARIANTS:
            assert dense_inverse_form(cached_bundle(n, variant), r1, r2) == value

    def test_unit_vectors_read_the_inverse(self):
        # e_i^T * A^-1 * e_j is the (i, j) entry of A^-1
        b = cached_bundle(3, "canonical")
        states = b.order.states
        for i, a in enumerate(states):
            for j, c in enumerate(states):
                r1 = {s: Fraction(int(s == a)) for s in states}
                r2 = {s: Fraction(int(s == c)) for s in states}
                assert inverse_form(r1, r2) == b.A_inv[i][j]


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
        c = diagonal_factor(b)
        for j, rj in enumerate(ref.N3_ORDER):
            k = lookup(o, rj)
            assert c[k][k] == ref.N3_C_DIAG[j]

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
        assert b.A_inv == mat_mul(mat_mul(b.B, diagonal_factor(b)), b.D)
        assert all(isinstance(x, Fraction) for row in b.A_inv for x in row)

    @pytest.mark.parametrize("which", ["pi_vector"])
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

    def test_corrupted_matrix_raises(self, monkeypatch):
        real = conmatrix.connectivity_matrix

        def one_pair_flipped(order):
            A = real(order)
            A[0][1] = A[1][0] = 1 - A[0][1]
            return A

        monkeypatch.setattr(conmatrix, "connectivity_matrix", one_pair_flipped)
        with pytest.raises(RuntimeError, match="failed to invert"):
            invert_connectivity_matrix(coherent_order(3))

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

    def test_n6_text_in_budget(self, capsys):
        # det and Smith form come off alpha: no O(m^3) elimination on 203 states
        started = time.perf_counter()
        assert cli.main(["conmatrix", "--n", "6"]) == 0
        assert time.perf_counter() - started < 0.8
        assert "det = " in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["7", "8"])
    def test_past_bundle_limit_exit_2(self, capsys, n):
        assert cli.main(["conmatrix", "--n", n]) == 2
        assert "n must be in 1..6" in capsys.readouterr().err


# sha256 of the stdout of `relfact conmatrix --n n --order order --output
# output`, pinned from the elimination-based build: det and the Smith form
# from alpha print the same bytes
CONMATRIX_STDOUT_SHA256 = {
    (1, "canonical", "text"): "c088ac899720749032c4c89c2fee95227f26bc724fc84278e4d50b9d96c7babf",
    (1, "canonical", "json"): "7318ea970db3fad25e3eadd0cc35434818e19917c744e689bb76ef6b9b911e2b",
    (1, "reversed-levels", "text"): "ee3dc37561b39c327174aa27588ebd8e3487943b06ee7d46f180a0fc92dd8806",
    (1, "reversed-levels", "json"): "7318ea970db3fad25e3eadd0cc35434818e19917c744e689bb76ef6b9b911e2b",
    (2, "canonical", "text"): "9592a557c84c3b72eddba8bde23aae0b28ac256da9894c9033fa97455dc2581b",
    (2, "canonical", "json"): "4ab9206817942cb8b82f54412167327fdd1fb6d8f9cbd2b7588661a4c8c00f00",
    (2, "reversed-levels", "text"): "3add91016230b5adb4dc2fabf4523299a8874aa25169b043bf300c5b529bb00f",
    (2, "reversed-levels", "json"): "4ab9206817942cb8b82f54412167327fdd1fb6d8f9cbd2b7588661a4c8c00f00",
    (3, "canonical", "text"): "d17e64e6f2b415d5c926d017ef21405a3b3174fada8072d4d2ff3fcc27697a7d",
    (3, "canonical", "json"): "ac38b22df01323a4558c870ab77e10b044405b14bbc9cf708c9e2a7648fb464d",
    (3, "reversed-levels", "text"): "9c9c5bcde6b6dacfea00250044043208c4cb0c70968b946c9351bd8c45c6824f",
    (3, "reversed-levels", "json"): "25b1462f3afbadeaaf294f59afd1081e2b96d33cda74024538bb2081a53f9a87",
    (4, "canonical", "text"): "a5738a66ea841feb8316d9819d55804835c8e4c4bdc672b37c43206d451c9045",
    (4, "canonical", "json"): "55c819fbb9ffd3fdd81e995722332d2b7ad44427a49143002cdaac1903d9ea34",
    (4, "reversed-levels", "text"): "913db7b2537e2af16898de0cbabb62f0b245dbf70829f0959690dfd07c1abacf",
    (4, "reversed-levels", "json"): "2f82574993223975e2c0d2210a48f3c77f01de56694b60f130f6493d5848993c",
    (5, "canonical", "text"): "628ff195b021e4fb5565193d77e74a156177b02bffaca63c3a1d7d2a430c648c",
    (5, "canonical", "json"): "e00c7b722e1f3f668a01397fd996965b8c304ae2115d4d184e190a7c2e6271f1",
    (5, "reversed-levels", "text"): "9a45d29a7d39eb6f0711421bc18eb0670bba25786ae6130be6cf47ea5fe547c6",
    (5, "reversed-levels", "json"): "b30704a55bf0ba765a2a311c0231d183d32180836861d6e7eb3f926e2ccc1c78",
}


@pytest.mark.parametrize(("n", "order", "output"), CONMATRIX_STDOUT_SHA256)
def test_conmatrix_stdout_is_pinned(capsys, n, order, output):
    argv = ["conmatrix", "--n", str(n), "--order", order, "--output", output]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CONMATRIX_STDOUT_SHA256[(n, order, output)]


class TestDeterminant:
    def test_known_values(self):
        assert abs(connectivity_matrix_det(2)) == 1
        assert abs(connectivity_matrix_det(3)) == 2
        assert abs(connectivity_matrix_det(4)) == 384

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orbit_product_formula(self, n):
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


class TestClosedFormsAgainstElimination:
    """det A, its Smith form and its n = 7, 8 determinants read off
    B^T * A * B = diag(alpha), against the elimination references."""

    @pytest.mark.parametrize("variant", ["canonical", "reversed-levels"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_det_and_smith_form_from_alpha(self, n, variant):
        b = invert_connectivity_matrix(coherent_order(n, variant))
        det = fraction_free_determinant(b.A)
        assert math.prod(b.alpha) == det
        assert connectivity_matrix_det(n) == det
        factors = diagonal_smith_form([abs(a) for a in b.alpha])
        reference = smith_normal_form(b.A)
        assert factors.snf_diagonal == reference.snf_diagonal
        assert factors.torsion_prime_powers == reference.torsion_prime_powers

    @pytest.mark.parametrize(("n", "digits"), [(7, 603), (8, 3701)])
    def test_det_past_the_bundle_limit(self, n, digits):
        # alpha is constant on each relabeling orbit, so the product of
        # mu(a, top) over all partitions is taken one orbit at a time
        det = connectivity_matrix_det(n)
        signed = math.prod(connectivity_number(o.members[0]) ** o.size for o in orbits(n))
        assert det == signed
        assert abs(det) == math.prod(math.factorial(o.block_count - 1) ** o.size for o in orbits(n))
        assert len(str(abs(det))) == digits
