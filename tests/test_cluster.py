from fractions import Fraction

import pytest

from conftest import random_graph
from corpus import bridge_graph, corpus
from lattice import evaluate_cluster
from relfact.base import EnumerationBoundError
from relfact.cluster import ClusterPolynomial, DisconnectedGraphError, dq_at_zero, partition_function
from relfact.cut import factorized_dq
from relfact.enumeration import reliability_bruteforce
from relfact.graphs import Edge, StochasticGraph

H = Fraction(1, 2)


def all_terminal(g):
    return StochasticGraph(nodes=g.nodes, edges=g.edges, terminals=g.nodes)


class TestPartitionFunction:
    def test_single_edge(self):
        p = Fraction(2, 5)
        g = StochasticGraph(
            nodes=frozenset({"a", "b"}), edges=(Edge(1, "a", "b", p),), terminals=frozenset({"a", "b"})
        )
        z = partition_function(g)
        assert z.coeffs == {1: p, 2: 1 - p}

    def test_triangle_linear_weight(self):
        g = StochasticGraph(
            nodes=frozenset({"a", "b", "c"}),
            edges=(Edge(1, "a", "b", H), Edge(2, "b", "c", H), Edge(3, "a", "c", H)),
            terminals=frozenset({"a", "b", "c"}),
        )
        z = partition_function(g)
        assert dq_at_zero(z) == Fraction(4, 8)
        assert dq_at_zero(z) == reliability_bruteforce(g)

    def test_unit_total_at_q1(self, rng):
        for _ in range(20):
            g = random_graph(rng, max_edges=7)
            try:
                z = partition_function(g)
            except DisconnectedGraphError:
                continue
            assert evaluate_cluster(z, Fraction(1)) == 1

    def test_disconnected_rejected(self):
        g = StochasticGraph(
            nodes=frozenset({"a", "b", "c"}),
            edges=(Edge(1, "a", "b", H),),
            terminals=frozenset({"a"}),
        )
        with pytest.raises(DisconnectedGraphError):
            partition_function(g)

    def test_bound(self):
        g = bridge_graph()
        with pytest.raises(EnumerationBoundError):
            partition_function(g, bound=3)

    def test_isolated_vertices_count_as_clusters(self):
        # two nodes, one edge: the all-down state has two clusters
        g = StochasticGraph(
            nodes=frozenset({"a", "b"}), edges=(Edge(1, "a", "b", H),), terminals=frozenset()
        )
        z = partition_function(g)
        assert z.coeffs[2] == H

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            ClusterPolynomial(node_count=2, coeffs={1: Fraction(1, 2)})
        with pytest.raises(ValueError):
            ClusterPolynomial(node_count=1, coeffs={2: Fraction(1)})


class TestLinearWeightIsReliability:
    def test_bridge_all_terminal(self):
        g = all_terminal(bridge_graph())
        z = partition_function(g)
        assert dq_at_zero(z) == reliability_bruteforce(g)

    def test_random_graphs(self, rng):
        checked = 0
        while checked < 25:
            g = all_terminal(random_graph(rng, max_edges=8))
            try:
                z = partition_function(g)
            except DisconnectedGraphError:
                continue
            assert dq_at_zero(z) == reliability_bruteforce(g)
            checked += 1


class TestFactorizedDerivative:
    def test_articulation_case(self):
        for d in corpus(71, 1, 5, terminal_mode="all"):
            w_union = dq_at_zero(partition_function(d.union))
            w1 = dq_at_zero(partition_function(d.g1))
            w2 = dq_at_zero(partition_function(d.g2))
            assert factorized_dq(d) == w_union == w1 * w2

    def test_matches_direct_derivative(self):
        for n in (1, 2, 3):
            for d in corpus(73, n, 5, terminal_mode="all"):
                assert factorized_dq(d) == dq_at_zero(partition_function(d.union))

    def test_requires_all_terminal(self):
        d = corpus(79, 2, 1)[0]
        with pytest.raises(ValueError):
            factorized_dq(d)

    def test_parallel_jobs_identical(self):
        d = corpus(83, 2, 1, terminal_mode="all")[0]
        assert factorized_dq(d, jobs=1) == factorized_dq(d, jobs=4)

    def test_seven_node_boundary(self):
        (d,) = corpus(89, 7, 1, terminal_mode="all")
        assert len(d.union.edges) == 12
        assert factorized_dq(d) == reliability_bruteforce(d.union)
