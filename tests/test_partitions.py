import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice import bell_number, conjugate, join, meet, orbits, parse_partition, refines
from relfact.partitions import Partition, all_partitions, coherent_order, is_connected_pair


def P(text):
    return parse_partition(text)


def union_find_join(a, b):
    """Reference join: transitive closure of both block sets by union-find."""
    parent = list(range(a.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for blocks in (a.blocks, b.blocks):
        for blk in blocks:
            for x in blk[1:]:
                parent[find(x)] = find(blk[0])
    groups = {}
    for x in range(1, a.n + 1):
        groups.setdefault(find(x), []).append(x)
    return Partition(tuple(tuple(g) for g in groups.values()))


def blockwise_meet(a, b):
    """Reference meet: the non-empty intersections of a block of a with a block of b."""
    blocks = []
    for ba in a.blocks:
        for bb in b.blocks:
            common = tuple(x for x in ba if x in bb)
            if common:
                blocks.append(common)
    return Partition(tuple(blocks))


def recursive_blocks(n):
    """Reference enumeration: each partition of {1..n-1} with n added as a
    new singleton block or to each existing block in turn."""
    if n == 1:
        return [((1,),)]
    out = []
    for smaller in recursive_blocks(n - 1):
        out.append(smaller + ((n,),))
        for i, blk in enumerate(smaller):
            out.append(smaller[:i] + (blk + (n,),) + smaller[i + 1 :])
    return out


def blockwise_refines(a, b):
    """Reference order: every block of a lies inside some block of b."""
    return all(any(set(ba) <= set(bb) for bb in b.blocks) for ba in a.blocks)


def partitions_of(n):
    return st.integers(min_value=0, max_value=bell_number(n) - 1).map(
        lambda i: all_partitions(n)[i]
    )


def permutations_of(n):
    return st.permutations(list(range(1, n + 1)))


class TestPartitionType:
    def test_canonical_form(self):
        p = Partition(((3, 1), (2,)))
        assert p.labels == (0, 1, 0)
        assert p.blocks == ((1, 3), (2,))
        assert str(p) == "13|2"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_constructors_agree(self, n):
        for p in all_partitions(n):
            from_blocks = Partition(tuple(blk[::-1] for blk in reversed(p.blocks)))
            from_labels = Partition.from_labels(f"L{9 - k}" for k in p.labels)
            assert from_blocks == from_labels == p
            assert hash(from_blocks) == hash(from_labels) == hash(p)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(p, protocol)) == p

    def test_parse_roundtrip(self):
        for text in ("1", "12|3", "1|2|3", "14|23", "134|2"):
            assert str(P(text)) == text

    def test_rejects_bad_ground_sets(self):
        with pytest.raises(ValueError):
            Partition(((1, 2), (2,)))
        with pytest.raises(ValueError):
            Partition(((1,), (3,)))
        with pytest.raises(ValueError):
            Partition(())

    def test_from_labels(self):
        assert Partition.from_labels("abab") == P("13|24")
        assert Partition.from_labels((7, 7, 7)) == Partition.top(3)
        assert Partition.from_labels(range(4)) == Partition.singletons(4)
        assert Partition.from_labels([(0, 1), (0, 2), (0, 1)]) == P("13|2")

    def test_block_sizes(self):
        assert P("134|2").block_sizes == (3, 1)
        assert P("12|34").block_count == 2


class TestEnumeration:
    def test_counts_match_bell_triangle(self):
        # Bell numbers come from an independent recurrence
        assert [len(all_partitions(n)) for n in range(1, 6)] == [1, 2, 5, 15, 52]
        for n in range(1, 6):
            assert len(all_partitions(n)) == bell_number(n)

    def test_n3_partitions(self):
        assert {str(p) for p in all_partitions(3)} == {"1|2|3", "1|23", "13|2", "12|3", "123"}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_recursive_reference(self, n):
        assert set(all_partitions(n)) == {Partition(blocks) for blocks in recursive_blocks(n)}

    def test_no_duplicates(self):
        for n in range(1, 7):
            ps = all_partitions(n)
            assert len(set(ps)) == len(ps)

    def test_bounds(self):
        with pytest.raises(ValueError):
            all_partitions(0)
        with pytest.raises(ValueError):
            all_partitions(9)


class TestLattice:
    def test_join_examples(self):
        assert join(P("12|3"), P("1|23")) == P("123")
        assert join(P("12|34"), P("13|24")) == P("1234")
        a = P("13|2|4")
        assert join(a, Partition.singletons(4)) == a

    def test_meet_examples(self):
        assert meet(P("12|3"), P("1|23")) == P("1|2|3")
        assert meet(P("123|4"), P("12|34")) == P("12|3|4")
        a = P("13|24")
        assert meet(a, Partition.top(4)) == a

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_join_and_meet_match_references(self, n):
        for a, b in itertools.product(all_partitions(n), repeat=2):
            assert join(a, b) == union_find_join(a, b)
            assert meet(a, b) == blockwise_meet(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_refines_matches_reference(self, n):
        for a, b in itertools.product(all_partitions(n), repeat=2):
            assert refines(a, b) == blockwise_refines(a, b)

    def test_refines_examples(self):
        assert refines(P("12|3|4"), P("12|34"))
        assert not refines(P("13|2|4"), P("12|34"))
        for p in all_partitions(4):
            assert refines(Partition.singletons(4), p)
            assert refines(p, Partition.top(4))

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError):
            join(P("12"), P("12|3"))
        with pytest.raises(ValueError):
            meet(P("1"), P("12"))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lattice_laws_exhaustive(self, n):
        ps = all_partitions(n)
        for a, b in itertools.product(ps, repeat=2):
            assert join(a, b) == join(b, a)
            assert meet(a, b) == meet(b, a)
            assert join(a, meet(a, b)) == a
            assert meet(a, join(a, b)) == a
            assert refines(a, b) == (join(a, b) == b) == (meet(a, b) == a)
        for a, b, c in itertools.product(ps, repeat=3):
            assert join(join(a, b), c) == join(a, join(b, c))
            assert meet(meet(a, b), c) == meet(a, meet(b, c))

    @settings(max_examples=150)
    @given(a=partitions_of(5), b=partitions_of(5), c=partitions_of(5))
    def test_lattice_laws_random_n5(self, a, b, c):
        assert join(a, b) == join(b, a)
        assert meet(a, b) == meet(b, a)
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a
        assert join(join(a, b), c) == join(a, join(b, c))
        assert meet(meet(a, b), c) == meet(a, meet(b, c))
        assert refines(a, b) == (join(a, b) == b) == (meet(a, b) == a)
        assert join(a, a) == a
        assert meet(a, a) == a


class TestConnectedPairs:
    def test_top_connects_everything(self):
        for p in all_partitions(4):
            assert is_connected_pair(Partition.top(4), p)

    def test_singletons_pair(self):
        bottom = Partition.singletons(3)
        assert not is_connected_pair(bottom, bottom)

    def test_n3_pairs(self):
        assert is_connected_pair(P("1|23"), P("13|2"))
        assert not is_connected_pair(P("1|23"), P("1|23"))

    def test_symmetry_and_monotonicity(self):
        ps = all_partitions(4)
        for a, b in itertools.product(ps, repeat=2):
            assert is_connected_pair(a, b) == is_connected_pair(b, a)
            if is_connected_pair(a, b):
                for b2 in ps:
                    if refines(b, b2):
                        assert is_connected_pair(a, b2)


class TestConjugation:
    def test_identity(self):
        a = P("13|2")
        assert conjugate([1, 2, 3], a) == a

    def test_swap(self):
        assert conjugate([2, 1, 3], P("1|23")) == P("13|2")

    def test_orbit_of_two_pairs(self):
        seen = {
            conjugate(sigma, P("12|34"))
            for sigma in itertools.permutations(range(1, 5))
        }
        assert {str(p) for p in seen} == {"12|34", "13|24", "14|23"}

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            conjugate([1, 1, 2], P("12|3"))

    @settings(max_examples=150)
    @given(sigma=permutations_of(5), a=partitions_of(5), b=partitions_of(5))
    def test_join_meet_morphism(self, sigma, a, b):
        assert conjugate(sigma, join(a, b)) == join(conjugate(sigma, a), conjugate(sigma, b))
        assert conjugate(sigma, meet(a, b)) == meet(conjugate(sigma, a), conjugate(sigma, b))
        assert conjugate(sigma, a).block_sizes == a.block_sizes


class TestOrbits:
    def test_n4_census(self):
        got = [(o.size, o.block_count) for o in orbits(4)]
        assert sorted(got) == sorted([(1, 4), (6, 3), (3, 2), (4, 2), (1, 1)])

    def test_n5_census(self):
        got = [(o.size, o.block_count) for o in orbits(5)]
        assert sorted(got) == sorted(
            [(1, 5), (10, 4), (15, 3), (10, 3), (5, 2), (10, 2), (1, 1)]
        )

    def test_n1(self):
        assert len(orbits(1)) == 1

    def test_total_is_bell(self):
        for n in range(1, 6):
            assert sum(o.size for o in orbits(n)) == bell_number(n)

    def test_conjugation_stays_inside_orbit(self):
        rng = random.Random(5)
        for o in orbits(4):
            members = set(o.members)
            for a in o.members:
                sigma = list(range(1, 5))
                rng.shuffle(sigma)
                assert conjugate(sigma, a) in members


class TestCoherentOrder:
    def test_n2(self):
        assert [str(p) for p in coherent_order(2).states] == ["1|2", "12"]

    def test_n3_shape(self):
        states = [str(p) for p in coherent_order(3).states]
        assert states[0] == "1|2|3"
        assert states[-1] == "123"
        assert set(states[1:4]) == {"1|23", "13|2", "12|3"}

    @pytest.mark.parametrize("variant", ["canonical", "reversed-levels"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_refinement_monotone(self, n, variant):
        order = coherent_order(n, variant)
        for a, b in itertools.combinations(all_partitions(n), 2):
            if refines(a, b) and a != b:
                assert order.position(a) < order.position(b)
            if refines(b, a) and a != b:
                assert order.position(b) < order.position(a)

    @pytest.mark.parametrize("variant", ["canonical", "reversed-levels"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_orbits_contiguous_within_levels(self, n, variant):
        # the reference order: each level's orbits in sequence, every level
        # reversed for "reversed-levels"
        expected = []
        for m in range(n, 0, -1):
            level = [p for o in orbits(n) if o.block_count == m for p in o.members]
            expected += level[::-1] if variant == "reversed-levels" else level
        order = coherent_order(n, variant)
        assert list(order.states) == expected
        for o in orbits(n):
            positions = sorted(order.position(p) for p in o.members)
            assert positions == list(range(positions[0], positions[0] + len(positions)))

    def test_every_partition_once(self):
        for n in range(1, 6):
            states = coherent_order(n).states
            assert len(states) == bell_number(n)
            assert len(set(states)) == len(states)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            coherent_order(3, "shuffled")

    def test_bounds(self):
        with pytest.raises(ValueError):
            coherent_order(0)
        with pytest.raises(ValueError):
            coherent_order(9)
