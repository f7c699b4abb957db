import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adjacency, random_graph, with_prob
from corpus import bridge_graph, bridge_decomposition
from lattice import endpoints, identify_nodes, is_k_pathset, is_loop, parse_partition
from relfact.cut import CutDecomposition, union_graph
from relfact.graphs import (
    Edge,
    GraphError,
    Hypothesis1Error,
    Hypothesis2Error,
    StochasticGraph,
    integer_form,
    is_k_connected,
)
from relfact.enumeration import reliability_bruteforce
from relfact.partitions import Partition
from relfact.reliability import reliability_factoring, relevant_edges
from test_reliability import reducible_multigraphs

H = Fraction(1, 2)


def graph(edges, terminals, extra_nodes=()):
    nodes = set(extra_nodes)
    for _, u, v in edges:
        nodes |= {u, v}
    return StochasticGraph(
        nodes=frozenset(nodes),
        edges=tuple(Edge(i, u, v, H) for i, u, v in edges),
        terminals=frozenset(terminals),
    )


def minpath_relevant_edges(g):
    """Oracle: edges used by some minimal terminal-linking state, found by
    enumerating all states.  A pathset is minimal exactly when dropping any
    single operative edge breaks it (coherence makes the one-bit test
    sufficient)."""
    ids = [e.id for e in g.edges]
    m = len(ids)
    is_pathset = {}
    for mask in range(1 << m):
        state = {ids[i]: (mask >> i) & 1 for i in range(m)}
        is_pathset[mask] = is_k_pathset(g, state)
    relevant = set()
    for mask, ok in is_pathset.items():
        if not ok:
            continue
        if all(not is_pathset[mask & ~(1 << i)] for i in range(m) if (mask >> i) & 1):
            for i in range(m):
                if (mask >> i) & 1:
                    relevant.add(ids[i])
    return relevant


class TestConstruction:
    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(GraphError):
            graph([(1, "a", "b"), (1, "b", "c")], {"a", "c"})

    def test_endpoint_must_exist(self):
        with pytest.raises(GraphError):
            StochasticGraph(
                nodes=frozenset({"a"}),
                edges=(Edge(1, "a", "b", H),),
                terminals=frozenset(),
            )

    def test_terminals_subset(self):
        with pytest.raises(GraphError):
            graph([(1, "a", "b")], {"z"})

    def test_probability_range(self):
        with pytest.raises(GraphError):
            Edge(1, "a", "b", Fraction(3, 2))

    def test_an_exact_fraction_is_kept_and_anything_else_converted(self):
        class Exact(Fraction):
            pass

        p = Fraction(1, 3)
        assert Edge(1, "a", "b", p).prob is p
        for given in (0, 1, "1/3", "0.25", Exact(2, 3)):
            prob = Edge(1, "a", "b", given).prob
            assert prob.__class__ is Fraction and prob == Fraction(given)
        for given in (2, -1, "4/3", Exact(-1, 2), Fraction(3, 2), Fraction(-1, 7)):
            with pytest.raises(GraphError, match="outside"):
                Edge(1, "a", "b", given)


class TestContractDelete:
    """Contracting an edge e is identify_nodes through the one-block
    partition of e's endpoints, which keeps e as a loop; for the reliability
    it is the same as setting p_e = 1, and deleting e the same as p_e = 0."""

    def test_contract_path(self):
        g = graph([(1, "a", "b"), (2, "b", "c")], {"a", "c"})
        gc = identify_nodes(g, ("a", "b"), Partition.top(2))
        assert gc.nodes == {"a", "c"}
        assert gc.terminals == {"a", "c"}
        assert [(e.id, e.u, e.v) for e in gc.edges] == [(1, "a", "a"), (2, "a", "c")]

    def test_contract_parallel_makes_loop(self):
        g = graph([(1, "a", "b"), (2, "a", "b")], {"a", "b"})
        gc = identify_nodes(g, ("a", "b"), Partition.top(2))
        assert gc.nodes == {"a"}
        assert all(is_loop(e) for e in gc.edges)

    def test_bridge_contract_delete_identity(self):
        # p * R(G | p_e = 1) + (1-p) * R(G | p_e = 0) must reproduce R(G) on the bridge
        g = bridge_graph()
        r = reliability_bruteforce(g)
        for e in g.edges:
            assert e.prob * reliability_bruteforce(with_prob(g, e.id, 1)) + (
                1 - e.prob
            ) * reliability_bruteforce(with_prob(g, e.id, 0)) == r

    def test_factor_identity_every_edge(self, rng):
        for _ in range(30):
            g = random_graph(rng, max_edges=8)
            r = reliability_bruteforce(g)
            for e in g.edges:
                assert (
                    e.prob * reliability_bruteforce(with_prob(g, e.id, 1))
                    + (1 - e.prob) * reliability_bruteforce(with_prob(g, e.id, 0))
                    == r
                )

    def test_factor_identity_twelve_edges(self, rng):
        for _ in range(2):
            while True:
                g = random_graph(rng, max_nodes=7, max_edges=12)
                if len(g.edges) == 12:
                    break
            r = reliability_bruteforce(g)
            for e in g.edges:
                assert (
                    e.prob * reliability_bruteforce(with_prob(g, e.id, 1))
                    + (1 - e.prob) * reliability_bruteforce(with_prob(g, e.id, 0))
                    == r
                )


class TestPathsets:
    def test_all_operative_connected(self):
        g = graph([(1, "a", "b"), (2, "b", "c")], {"a", "c"})
        assert is_k_pathset(g, {1: 1, 2: 1})
        assert is_k_connected(g)
        # is_k_connected reads components; the reference tests the all-up state
        rng = random.Random(17)
        for _ in range(500):
            nodes = [f"n{i}" for i in range(rng.randint(1, 7))]  # some left isolated
            edges = [(i, rng.choice(nodes), rng.choice(nodes)) for i in range(1, rng.randint(0, 8) + 1)]
            if edges and rng.random() < 0.5:
                edges.append((len(edges) + 1, *edges[0][1:]))  # a parallel, or a second loop
            terminals = rng.sample(nodes, min(len(nodes), rng.randint(0, 4)))
            g = graph(edges, terminals, extra_nodes=nodes)
            assert is_k_connected(g) == is_k_pathset(g, {e.id: 1 for e in g.edges})

    def test_all_down_two_terminals(self):
        g = graph([(1, "a", "b")], {"a", "b"})
        assert not is_k_pathset(g, {1: 0})

    def test_single_terminal_trivially_connected(self):
        g = graph([(1, "a", "b")], {"a"})
        assert is_k_pathset(g, {1: 0})

    def test_domain_mismatch(self):
        g = graph([(1, "a", "b")], {"a"})
        with pytest.raises(GraphError):
            is_k_pathset(g, {2: 1})
        with pytest.raises(GraphError):
            is_k_pathset(g, {1: 1, 2: 0})

    @settings(max_examples=60)
    @given(data=st.data())
    def test_coherence(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_graph(rng, max_edges=7)
        ids = [e.id for e in g.edges]
        smaller_bits = data.draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
        grow = data.draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
        smaller = {i: int(b) for i, b in zip(ids, smaller_bits)}
        larger = {i: int(b or g2) for (i, b), g2 in zip(smaller.items(), grow)}
        if is_k_pathset(g, smaller):
            assert is_k_pathset(g, larger)


class TestIdentifyNodes:
    def test_singletons_is_noop(self):
        g = bridge_graph()
        out = identify_nodes(g, ("u", "v"), Partition.singletons(2))
        assert out == g

    def test_two_isolated_nodes_merge(self):
        g = StochasticGraph(nodes=frozenset({"a", "b"}), edges=(), terminals=frozenset())
        out = identify_nodes(g, ("a", "b"), Partition.top(2))
        assert out.nodes == {"a"}

    def test_repeated_boundary_node_merges_transitively(self):
        # 12|34 over (a, b, a, c) joins a to b and a to c: one node
        g = graph([(1, "a", "x"), (2, "x", "b"), (3, "c", "x")], {"a", "b", "c"})
        out = identify_nodes(g, ("a", "b", "a", "c"), parse_partition("12|34"))
        assert out.nodes == {"a", "x"}
        assert out.terminals == {"a"}

    def test_merged_node_keeps_a_member_name(self):
        # a node already named "a+b" stays apart from the merged a and b
        g = graph([(1, "a", "a+b"), (2, "a+b", "b")], {"a", "b"})
        out = identify_nodes(g, ("a", "b"), Partition.top(2))
        assert out.nodes == {"a", "a+b"}
        assert [(e.id, e.u, e.v) for e in out.edges] == [(1, "a", "a+b"), (2, "a", "a+b")]

    def test_triangle_identification(self):
        g = graph([(1, "1", "2"), (2, "1", "3"), (3, "2", "3")], {"1", "2", "3"})
        out = identify_nodes(g, ("1", "2", "3"), parse_partition("12|3"))
        assert len(out.nodes) == 2
        assert len(out.edges) == 3
        loops = [e for e in out.edges if is_loop(e)]
        assert len(loops) == 1
        parallels = [e for e in out.edges if not is_loop(e)]
        assert len(parallels) == 2
        assert endpoints(parallels[0]) == endpoints(parallels[1])

    def test_size_mismatch(self):
        g = bridge_graph()
        with pytest.raises(GraphError):
            identify_nodes(g, ("u", "v"), Partition.top(3))

    def test_integer_form_numbers_in_name_order_and_merges_transitively(self):
        g = graph([(1, "a", "x"), (2, "x", "b"), (3, "c", "x")], {"a", "b", "c"})
        index, edges, terminals, denom = integer_form(g)
        assert index == {"a": 0, "b": 1, "c": 2, "x": 3}
        assert edges == [(1, 0, 3, 1, 1), (2, 1, 3, 1, 1), (3, 2, 3, 1, 1)]
        assert (terminals, denom) == ({0, 1, 2}, 8)
        # 12|34 over (a, b, a, c) joins a to b and a to c: one number
        index, edges, terminals, denom = integer_form(g, ("a", "b", "a", "c"), parse_partition("12|34"))
        assert len({index["a"], index["b"], index["c"]}) == 1
        assert index["x"] == 3
        assert ({u for _, u, _, _, _ in edges}, terminals, denom) == ({index["a"]}, {index["a"]}, 8)


def k4(first_id, a, b, c, d):
    """The six edges of a complete graph on a, b, c, d, ids from first_id."""
    pairs = [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)]
    return [(first_id + i, u, v) for i, (u, v) in enumerate(pairs)]


class TestIrrelevantEdges:
    """reliability.relevant_edges, the pruning rule of the factoring kernel: an
    edge is irrelevant when no minimal terminal-linking state uses it, which
    one biconnected DFS from the least terminal decides block by block."""

    # K4 blocks hang off a triangle of terminals: no series, parallel or
    # degree rule removes either, so only the pruning rule can drop a block.
    # "s" is the least terminal, the search root
    TRIANGLE = [(1, "s", "t"), (2, "t", "w"), (3, "s", "w")]
    BLOCKS = {
        "K4 off a terminal cut node": (TRIANGLE + k4(4, "t", "x", "y", "z"), {"s", "t", "w"}, {1, 2, 3}),
        "K4 off the search root": (TRIANGLE + k4(4, "s", "x", "y", "z"), {"s", "t", "w"}, {1, 2, 3}),
        "two blocks chained through a non-terminal": (
            TRIANGLE + k4(4, "t", "x", "y", "z") + k4(10, "z", "p", "q", "r"), {"s", "t", "w"}, {1, 2, 3}
        ),
        "K4 holding a terminal": (TRIANGLE + k4(4, "t", "x", "y", "z"), {"s", "w", "y"}, set(range(1, 10))),
    }

    @pytest.mark.parametrize("case", BLOCKS)
    def test_dangling_blocks(self, case):
        edges, terminals, expected = self.BLOCKS[case]
        g = graph(edges, terminals)
        assert relevant_edges(adjacency(g), g.terminals) == expected
        assert minpath_relevant_edges(g) == expected
        # the factoring kernel prunes the terminal-free blocks
        assert reliability_factoring(g) == reliability_bruteforce(g)

    def test_self_loop_irrelevant(self):
        g = StochasticGraph(
            nodes=frozenset({"a", "b"}),
            edges=(Edge(1, "a", "b", H), Edge(2, "a", "a", H)),
            terminals=frozenset({"a", "b"}),
        )
        assert relevant_edges(adjacency(g), g.terminals) == {1}

    def test_pendant_to_non_terminal(self):
        g = graph([(1, "a", "b"), (2, "b", "c"), (3, "c", "d")], {"a", "c"})
        assert relevant_edges(adjacency(g), g.terminals) == {1, 2}

    def test_bridge_all_terminals(self):
        g = bridge_graph()
        g = StochasticGraph(nodes=g.nodes, edges=g.edges, terminals=g.nodes)
        assert relevant_edges(adjacency(g), g.terminals) == set(g.edge_ids)
        assert minpath_relevant_edges(g) == set(g.edge_ids)

    def test_disconnected_terminals_all_irrelevant(self):
        g = graph([(1, "a", "b")], {"a", "c"}, extra_nodes=("c",))
        assert relevant_edges(adjacency(g), g.terminals) is None
        assert minpath_relevant_edges(g) == set()
        assert not is_k_connected(g)

    @staticmethod
    def check_against_minpath_oracle(g):
        expected = minpath_relevant_edges(g)
        if len(g.terminals) < 2:  # nothing to link: no edge is relevant
            assert expected == set(), g
        elif is_k_connected(g):
            assert relevant_edges(adjacency(g), g.terminals) == expected, g
        else:
            assert relevant_edges(adjacency(g), g.terminals) is None, g
            assert expected == set(), g

    def test_matches_minpath_oracle(self, rng):
        for _ in range(120):
            self.check_against_minpath_oracle(random_graph(rng, max_nodes=6, max_edges=8))

    def test_matches_minpath_oracle_ten_edges(self, rng):
        for _ in range(20):
            self.check_against_minpath_oracle(random_graph(rng, max_nodes=7, max_edges=10))

    @settings(max_examples=150, deadline=None)
    @given(g=reducible_multigraphs())
    def test_matches_minpath_oracle_on_forced_shapes(self, g):
        # parallel edges (to the DFS parent among them), loops, pendant
        # terminals and hanging blocks in every draw, not only by chance
        self.check_against_minpath_oracle(g)

    def test_pruning_preserves_reliability(self, rng):
        for _ in range(40):
            g = random_graph(rng, max_edges=8)
            if len(g.terminals) < 2 or not is_k_connected(g):
                continue
            r = reliability_bruteforce(g)
            for e in set(g.edge_ids) - relevant_edges(adjacency(g), g.terminals):
                assert reliability_bruteforce(with_prob(g, e, 0)) == r

    def test_long_path_has_no_depth_limit(self):
        n = 5000
        g = graph([(i, f"v{i - 1}", f"v{i}") for i in range(1, n)], {"v0", f"v{n - 1}"})
        assert relevant_edges(adjacency(g), g.terminals) == set(g.edge_ids)
        assert relevant_edges(adjacency(g), {"v0", "v2500"}) == set(range(1, 2501))


class TestDecomposition:
    def test_two_triangles_sharing_a_node(self):
        g1 = graph([(1, "a", "b"), (2, "b", "k"), (3, "a", "k")], {"k", "a"})
        g2 = graph([(4, "k", "x"), (5, "x", "y"), (6, "y", "k")], {"k", "y"})
        d = CutDecomposition(g1=g1, g2=g2, boundary=("k",))
        assert d.union.terminals == {"k", "a", "y"}
        assert len(d.union.edges) == 6

    def test_bridge_split(self):
        union = bridge_decomposition().union
        assert union.nodes == {"s", "t", "u", "v"}
        assert len(union.edges) == 5
        assert union.terminals == {"u", "v"}

    def test_boundary_missing_from_terminals(self):
        g1 = graph([(1, "a", "k")], {"k", "a"})
        g2 = graph([(2, "k", "b")], {"b"})
        with pytest.raises(Hypothesis1Error):
            CutDecomposition(g1=g1, g2=g2, boundary=("k",))

    def test_shared_edge_rejected(self):
        g1 = graph([(1, "a", "k")], {"k"})
        g2 = graph([(1, "k", "b")], {"k"})
        with pytest.raises(Hypothesis1Error):
            CutDecomposition(g1=g1, g2=g2, boundary=("k",))

    def test_shared_non_boundary_node_rejected(self):
        g1 = graph([(1, "a", "k"), (2, "a", "z")], {"k"})
        g2 = graph([(3, "k", "z")], {"k"})
        with pytest.raises(Hypothesis1Error):
            CutDecomposition(g1=g1, g2=g2, boundary=("k",))

    def test_unreachable_terminal(self):
        g1 = graph([(1, "a", "k")], {"k", "z"}, extra_nodes=("z",))
        g2 = graph([(2, "k", "b")], {"k"})
        with pytest.raises(Hypothesis2Error):
            CutDecomposition(g1=g1, g2=g2, boundary=("k",))

    def test_union_graph(self):
        d = bridge_decomposition()
        u = union_graph(d.g1, d.g2)
        assert {e.id for e in u.edges} == {1, 2, 3, 4, 5}
