import math
import random
import time
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, walk_routes, with_prob
from relfact.cluster import DisconnectedGraphError, dq_at_zero, partition_function
from relfact.conmatrix import invert_connectivity_matrix
from relfact.corpus import bridge_decomposition, bridge_graph, corpus, random_probability
from relfact.graphs import (
    CutDecomposition,
    Edge,
    Hypothesis2Error,
    StochasticGraph,
    UnionFind,
    is_k_pathset,
    union_graph,
)
from relfact.partitions import Partition, all_partitions, coherent_order, join
from relfact.reliability import (
    EnumerationBoundError,
    conditioned_reliability,
    factorization_detail,
    gamma_graph,
    joint_reliability,
    n2_closed_form,
    reliability_bruteforce,
    reliability_factoring,
    reliability_polynomial,
    state_distribution,
)

H = Fraction(1, 2)

# enumeration value for the bridge at p = 1/2, terminals on the waist;
# frozen from the state-walk oracle
BRIDGE_RELIABILITY = Fraction(23, 32)


def two_path(p1, p2):
    return StochasticGraph(
        nodes=frozenset({"a", "b", "c"}),
        edges=(Edge(1, "a", "b", p1), Edge(2, "b", "c", p2)),
        terminals=frozenset({"a", "c"}),
    )


def two_parallel(p1, p2):
    return StochasticGraph(
        nodes=frozenset({"a", "b"}),
        edges=(Edge(1, "a", "b", p1), Edge(2, "a", "b", p2)),
        terminals=frozenset({"a", "b"}),
    )


class TestBruteForce:
    def test_series_law(self):
        assert reliability_bruteforce(two_path(Fraction(1, 3), Fraction(3, 4))) == Fraction(1, 4)

    def test_parallel_law(self):
        p1, p2 = Fraction(1, 3), Fraction(2, 5)
        assert reliability_bruteforce(two_parallel(p1, p2)) == 1 - (1 - p1) * (1 - p2)

    def test_bridge_regression(self):
        assert reliability_bruteforce(bridge_graph()) == BRIDGE_RELIABILITY

    def test_bound_error(self):
        g = bridge_graph()
        with pytest.raises(EnumerationBoundError):
            reliability_bruteforce(g, bound=4)


class TestFactoring:
    def test_edgeless_single_terminal(self):
        g = StochasticGraph(nodes=frozenset({"a", "b"}), edges=(), terminals=frozenset({"a"}))
        assert reliability_factoring(g) == 1

    def test_edgeless_two_terminals(self):
        g = StochasticGraph(nodes=frozenset({"a", "b"}), edges=(), terminals=frozenset({"a", "b"}))
        assert reliability_factoring(g) == 0

    def test_bridge(self):
        assert reliability_factoring(bridge_graph()) == BRIDGE_RELIABILITY

    def test_matches_enumeration_random(self, rng):
        for _ in range(60):
            g = random_graph(rng, max_edges=9)
            assert reliability_factoring(g) == reliability_bruteforce(g)

    def test_degenerate_probabilities(self, rng):
        # the kernel deletes p = 0 edges and contracts p = 1 edges; enumeration
        # walks them like any other
        for _ in range(25):
            g = random_graph(rng, max_edges=7)
            e = rng.choice(g.edges)
            forced_up = with_prob(g, e.id, Fraction(1))
            forced_down = with_prob(g, e.id, Fraction(0))
            assert reliability_factoring(forced_up) == reliability_bruteforce(forced_up)
            assert reliability_factoring(forced_down) == reliability_bruteforce(forced_down)

    def test_monotone_in_edge_probability(self, rng):
        for _ in range(25):
            g = random_graph(rng, max_edges=7)
            e = rng.choice(g.edges)
            if e.prob == 1:
                continue
            bumped = with_prob(g, e.id, (e.prob + 1) / 2)
            assert reliability_factoring(bumped) >= reliability_factoring(g)


# besides 0, 1 and small fractions: a prime denominator, a denominator far
# past one machine word once a few edges are multiplied, and a power of two
PROBABILITIES = st.sampled_from(
    [
        Fraction(0),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(3, 4),
        Fraction(2, 7),
        Fraction(1, 97),
        Fraction(10**12 - 1, 10**12),
        Fraction(5, 2**40),
    ]
)


@st.composite
def reducible_multigraphs(draw):
    """Multigraphs of at most 12 edges that exercise every reduction: loops,
    parallel edges, p in {0, 1}, pendant terminals, terminals of degree 2,
    and non-terminal blocks hanging off a cut vertex."""
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 5)))]
    node = st.sampled_from(nodes)
    ends = draw(st.lists(st.tuples(node, node), max_size=6))
    terminals = set(draw(st.lists(node, min_size=1, max_size=len(nodes))))
    if ends and draw(st.booleans()):
        ends.append(draw(st.sampled_from(ends)))  # a parallel edge
    if draw(st.booleans()):
        ends.append((draw(node),) * 2)  # a loop
    if draw(st.booleans()):  # a pendant terminal
        ends.append((draw(node), "pend"))
        terminals.add("pend")
    if draw(st.booleans()):  # a terminal in series between two nodes
        ends += [(draw(node), "mid"), ("mid", draw(node))]
        terminals.add("mid")
    if draw(st.booleans()):  # a non-terminal triangle off a cut vertex
        cut = draw(node)
        ends += [(cut, "x"), ("x", "y"), ("y", cut)]
    ends = ends[:12]
    used = {v for uv in ends for v in uv} | set(nodes)
    edges = tuple(Edge(i + 1, u, v, draw(PROBABILITIES)) for i, (u, v) in enumerate(ends))
    return StochasticGraph(
        nodes=frozenset(used), edges=edges, terminals=frozenset(terminals & used)
    )


class TestFactoringKernel:
    @settings(max_examples=150, deadline=None)
    @given(g=reducible_multigraphs())
    def test_matches_enumeration(self, g):
        assert reliability_factoring(g) == reliability_bruteforce(g)

    def test_twenty_bead_necklace(self):
        # beads of two parallel edges in series: R = prod 1 - (1-p)(1-q)
        beads = [(Fraction(1, i + 2), Fraction(i + 1, i + 3)) for i in range(20)]
        names = [f"v{i}" for i in range(21)]
        edges = []
        for i, (p, q) in enumerate(beads):
            edges.append(Edge(2 * i + 1, names[i], names[i + 1], p))
            edges.append(Edge(2 * i + 2, names[i], names[i + 1], q))
        g = StochasticGraph(
            nodes=frozenset(names), edges=tuple(edges), terminals=frozenset({names[0], names[-1]})
        )
        assert reliability_factoring(g) == math.prod(1 - (1 - p) * (1 - q) for p, q in beads)


@st.composite
def enumeration_graphs(draw, min_edges=0, max_edges=10, max_terminals=3, max_nodes=6, max_boundary=3):
    """Multigraphs of 1..max_nodes nodes and min_edges..max_edges edges with
    loops, parallel edges, p in {0, 1}, isolated nodes and 0..max_terminals
    terminals, plus a boundary of 1..max_boundary nodes."""
    nodes = [f"n{i}" for i in range(draw(st.integers(1, max_nodes)))]
    node = st.sampled_from(nodes)
    ends = draw(st.lists(st.tuples(node, node), min_size=min_edges, max_size=max_edges))
    if ends and len(ends) < max_edges and draw(st.booleans()):
        ends.append(draw(st.sampled_from(ends)))  # a parallel edge
    edges = tuple(Edge(i + 1, u, v, draw(PROBABILITIES)) for i, (u, v) in enumerate(ends))
    terminals = draw(st.sets(node, max_size=min(max_terminals, len(nodes))))
    boundary = draw(st.lists(node, min_size=1, max_size=max_boundary, unique=True))
    return StochasticGraph(frozenset(nodes), edges, frozenset(terminals)), boundary


def edge_states(g):
    """Every edge state of g as (state, probability, operative edge count,
    union-find of the operative edges), one mask at a time."""
    for mask in range(1 << len(g.edges)):
        state = {e.id: mask >> i & 1 for i, e in enumerate(g.edges)}
        weight = math.prod(e.prob if state[e.id] else 1 - e.prob for e in g.edges)
        uf = UnionFind(g.nodes)
        for e in g.edges:
            if state[e.id]:
                uf.union(e.u, e.v)
        yield state, weight, mask.bit_count(), uf


class TestEnumerationRoutes:
    """The enumeration routes and the frontier counts against a per-mask
    reference built only on graphs.is_k_pathset and graphs.UnionFind."""

    @staticmethod
    def check_against_reference(g, boundary):
        m = len(g.edges)
        reliability = Fraction(0)
        counts = [0] * (m + 1)
        dist: dict[Partition, Fraction] = {}
        clusters: dict[int, Fraction] = {}
        for state, weight, ones, uf in edge_states(g):
            if is_k_pathset(g, state):
                reliability += weight
                counts[ones] += 1
            if weight:
                groups: dict[str, list[int]] = {}
                for label, b in enumerate(boundary, 1):
                    groups.setdefault(uf.find(b), []).append(label)
                part = Partition(tuple(map(tuple, groups.values())))
                dist[part] = dist.get(part, Fraction(0)) + weight
                k = uf.component_count()
                clusters[k] = clusters.get(k, Fraction(0)) + weight
        assert reliability_bruteforce(g) == reliability
        assert reliability_polynomial(g).coefficients == tuple(counts)
        assert state_distribution(g, boundary).probs == dist
        underlying = UnionFind(g.nodes)
        for e in g.edges:
            underlying.union(e.u, e.v)
        if underlying.component_count() == 1:
            assert partition_function(g).coeffs == clusters
        else:
            with pytest.raises(DisconnectedGraphError):
                partition_function(g)

    @settings(max_examples=120, deadline=None)
    @given(case=enumeration_graphs())
    def test_routes_match_per_mask_reference(self, case):
        self.check_against_reference(*case)

    def test_distinct_prime_denominators(self):
        # ten edges whose denominators share no factor: the walk's common
        # denominator is their product, and every route must reduce it away
        primes = (2, 3, 5, 7, 11, 13, 97, 65537, 2**31 - 1, 2**61 - 1)
        ends = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c"),
                ("b", "d"), ("d", "e"), ("e", "a"), ("c", "e"), ("b", "b")]
        edges = tuple(
            Edge(i + 1, u, v, Fraction(d // (i + 2), d))
            for i, ((u, v), d) in enumerate(zip(ends, primes))
        )
        g = StochasticGraph(frozenset("abcde"), edges, frozenset({"a", "c", "e"}))
        self.check_against_reference(g, ["a", "d", "e"])
        assert reliability_bruteforce(g).denominator > 1

    @settings(max_examples=60, deadline=None)
    @given(case=enumeration_graphs())
    def test_polynomial_ignores_probabilities(self, case):
        # a kernel that skipped zero-weight branches would drop the states
        # with a p = 0 edge up or a p = 1 edge down
        g, _ = case
        half = StochasticGraph(
            g.nodes, tuple(Edge(e.id, e.u, e.v, H) for e in g.edges), g.terminals
        )
        assert reliability_polynomial(g) == reliability_polynomial(half)


def equal_probability(g, p, terminals=None):
    """g with every edge at probability p, and its terminals replaced when
    terminals is given."""
    return StochasticGraph(
        g.nodes,
        tuple(Edge(e.id, e.u, e.v, p) for e in g.edges),
        g.terminals if terminals is None else terminals,
    )


# past the per-mask reference of TestEnumerationRoutes
ORACLE_GRAPHS = enumeration_graphs(min_edges=11, max_edges=14, max_terminals=4)


def grid_4x4():
    """The 4x4 grid at p = 1/2 (24 edges), terminals at two corners."""
    name = "{}{}".format
    ends = [(name(i, j), name(i, j + 1)) for i in range(4) for j in range(3)]
    ends += [(name(i, j), name(i + 1, j)) for i in range(3) for j in range(4)]
    nodes = frozenset(name(i, j) for i in range(4) for j in range(4))
    edges = tuple(Edge(k + 1, u, v, H) for k, (u, v) in enumerate(ends))
    return StochasticGraph(nodes, edges, frozenset({"00", "33"}))


def k7_with_parallels():
    """K7 at p = 1/3 plus three parallel edges (24 edges), three terminals."""
    nodes = [str(i) for i in range(7)]
    ends = list(combinations(nodes, 2)) + [("0", "1"), ("2", "3"), ("4", "5")]
    edges = tuple(Edge(k + 1, u, v, Fraction(1, 3)) for k, (u, v) in enumerate(ends))
    return StochasticGraph(frozenset(nodes), edges, frozenset({"0", "3", "6"}))


class TestFrontierKernel:
    """The frontier counts on inputs the 2^m walk cannot reach in time, and
    against the enumeration oracle past the per-mask reference."""

    @pytest.mark.parametrize("make", [grid_4x4, k7_with_parallels], ids=["grid4x4", "k7+3"])
    def test_24_edges_at_the_default_bound(self, make):
        g = make()
        assert len(g.edges) == 24
        start = time.perf_counter()
        poly = reliability_polynomial(g)
        assert time.perf_counter() - start < 2
        p = g.edges[0].prob
        m = len(g.edges)
        assert sum(c * p**i * (1 - p) ** (m - i) for i, c in enumerate(poly.coefficients)) == (
            reliability_factoring(g)
        )
        start = time.perf_counter()
        z = partition_function(g)
        assert time.perf_counter() - start < 2
        assert dq_at_zero(z) == reliability_factoring(equal_probability(g, p, g.nodes))

    @settings(max_examples=40, deadline=None)
    @given(case=ORACLE_GRAPHS, p=PROBABILITIES)
    def test_polynomial_at_equal_p_matches_the_oracle(self, case, p):
        g, _ = case
        assert reliability_polynomial(g).evaluate(p) == reliability_bruteforce(equal_probability(g, p))

    @settings(max_examples=40, deadline=None)
    @given(case=ORACLE_GRAPHS)
    def test_cluster_weight_matches_the_oracle(self, case):
        g, _ = case
        g = StochasticGraph(g.nodes, g.edges, g.nodes)
        try:
            w = dq_at_zero(partition_function(g))
        except DisconnectedGraphError:
            assert reliability_bruteforce(g) == 0
        else:
            assert w == reliability_bruteforce(g)

    @settings(max_examples=30, deadline=None)
    @given(case=ORACLE_GRAPHS)
    def test_edge_order_of_the_input_does_not_matter(self, case):
        g, _ = case
        flipped = StochasticGraph(g.nodes, tuple(reversed(g.edges)), g.terminals)
        assert reliability_polynomial(flipped) == reliability_polynomial(g)


class TestBitParallelOracle:
    """The bit-parallel enumeration routes against the state walk of
    conftest, past the per-mask reference of TestEnumerationRoutes and at
    the default bound."""

    @staticmethod
    def check_against_walk(g, boundary):
        value, dist = walk_routes(g, boundary)
        assert reliability_bruteforce(g) == value
        assert state_distribution(g, boundary).probs == dist

    @settings(max_examples=30, deadline=None)
    @given(case=enumeration_graphs(11, 16, max_terminals=7, max_nodes=8, max_boundary=5))
    def test_routes_match_the_walk(self, case):
        self.check_against_walk(*case)
        # a chunk of 3 edges leaves the others to the one-state-at-a-time loop
        with mock.patch("relfact.reliability._CHUNK", 3):
            self.check_against_walk(*case)

    @pytest.mark.parametrize("make", [grid_4x4, k7_with_parallels], ids=["grid4x4", "k7+3"])
    def test_24_edges_at_the_default_bound(self, make):
        g = make()
        start = time.perf_counter()
        value = reliability_bruteforce(g)
        assert time.perf_counter() - start < 2
        assert value == reliability_factoring(g)

    def test_distribution_of_a_20_edge_side(self):
        rng = random.Random(20)
        nodes = [f"n{i}" for i in range(8)]
        edges = tuple(
            Edge(i + 1, rng.choice(nodes), rng.choice(nodes), random_probability(rng)) for i in range(20)
        )
        g = StochasticGraph(frozenset(nodes), edges, frozenset(nodes[:3]))
        self.check_against_walk(g, nodes[3:])

    def test_all_certain_24_edges_stay_fast(self):
        # edges of p in {0, 1} are enumerated one state at a time, and the
        # branch of weight zero is skipped: a single state remains
        g = grid_4x4()
        g = StochasticGraph(
            g.nodes, tuple(Edge(e.id, e.u, e.v, Fraction(e.id % 2)) for e in g.edges), g.terminals
        )
        boundary = ["00", "03", "12", "30", "33"]
        start = time.perf_counter()
        value = reliability_bruteforce(g)
        dist = state_distribution(g, boundary)
        assert time.perf_counter() - start < 0.5
        assert (value, dist.probs) == walk_routes(g, boundary)
        assert value == reliability_factoring(g)


class TestPolynomial:
    def test_single_edge(self):
        g = StochasticGraph(
            nodes=frozenset({"a", "b"}), edges=(Edge(1, "a", "b", H),), terminals=frozenset({"a", "b"})
        )
        poly = reliability_polynomial(g)
        assert poly.coefficients == (0, 1)
        assert poly.evaluate(Fraction(1, 3)) == Fraction(1, 3)

    def test_triangle_all_terminal(self):
        g = StochasticGraph(
            nodes=frozenset({"a", "b", "c"}),
            edges=(Edge(1, "a", "b", H), Edge(2, "b", "c", H), Edge(3, "a", "c", H)),
            terminals=frozenset({"a", "b", "c"}),
        )
        poly = reliability_polynomial(g)
        assert poly.coefficients == (0, 0, 3, 1)

    def test_evaluation_matches_enumeration(self, rng):
        for _ in range(20):
            g = random_graph(rng, max_edges=7)
            poly = reliability_polynomial(g)
            for p in (Fraction(0), Fraction(1), H, Fraction(1, 3)):
                uniform = StochasticGraph(
                    nodes=g.nodes,
                    edges=tuple(Edge(e.id, e.u, e.v, p) for e in g.edges),
                    terminals=g.terminals,
                )
                assert poly.evaluate(p) == reliability_bruteforce(uniform)

    def test_counts_bounded_by_binomials(self, rng):
        for _ in range(10):
            g = random_graph(rng, max_edges=7)
            poly = reliability_polynomial(g)
            for i, c in enumerate(poly.coefficients):
                assert 0 <= c <= math.comb(poly.edge_count, i)

    def test_gamma4_top_term(self):
        poly = reliability_polynomial(gamma_graph(4, Partition.singletons(4)))
        assert poly.degree() == 6
        assert abs(poly.leading_coefficient()) == 6


class TestGammaGraph:
    def test_small_shapes(self):
        g2 = gamma_graph(2, Partition.singletons(2))
        assert len(g2.edges) == 1
        g3 = gamma_graph(3, Partition.singletons(3))
        assert len(g3.edges) == 3 and len(g3.nodes) == 3

    def test_identified_shape(self):
        g = gamma_graph(4, Partition.parse("12|3|4"))
        assert len(g.nodes) == 3
        assert len(g.edges) == 6
        assert sum(1 for e in g.edges if e.is_loop) == 1
        assert g.terminals == g.nodes

    def test_leading_coefficient_property(self):
        for n in range(2, 5):
            for a in all_partitions(n):
                poly = reliability_polynomial(gamma_graph(n, a))
                g_deg = sum(
                    len(b1) * len(b2)
                    for i, b1 in enumerate(a.blocks)
                    for b2 in a.blocks[i + 1 :]
                )
                assert poly.degree() == g_deg
                assert abs(poly.leading_coefficient()) == math.factorial(a.block_count - 1)


class TestStateDistribution:
    def test_edgeless_side(self):
        g = StochasticGraph(nodes=frozenset({"k1", "k2"}), edges=(), terminals=frozenset({"k1", "k2"}))
        dist = state_distribution(g, ("k1", "k2"))
        assert dist.probs == {Partition.singletons(2): Fraction(1)}

    def test_single_edge(self):
        p = Fraction(2, 7)
        g = StochasticGraph(
            nodes=frozenset({"k1", "k2"}),
            edges=(Edge(1, "k1", "k2", p),),
            terminals=frozenset({"k1", "k2"}),
        )
        dist = state_distribution(g, ("k1", "k2"))
        assert dist.prob(Partition.top(2)) == p
        assert dist.prob(Partition.singletons(2)) == 1 - p

    def test_bridge_side(self):
        d = bridge_decomposition()
        dist = state_distribution(d.g1, d.boundary)
        assert sum(dist.probs.values()) == 1
        assert dist.prob(Partition.top(2)) == Fraction(5, 8)

    def test_unknown_boundary_node(self):
        g = bridge_graph()
        with pytest.raises(ValueError):
            state_distribution(g, ("u", "zz"))


class TestJointRoute:
    def test_concentrated_on_top(self):
        d = bridge_decomposition()
        d1 = state_distribution(d.g1, d.boundary)
        top_only = type(d1)(boundary=d.boundary, probs={Partition.top(2): Fraction(1)})
        assert joint_reliability(d1, top_only) == 1

    def test_singletons_only(self):
        bottom_only = state_distribution(
            StochasticGraph(nodes=frozenset({"k1", "k2"}), edges=(), terminals=frozenset({"k1", "k2"})),
            ("k1", "k2"),
        )
        assert joint_reliability(bottom_only, bottom_only) == 0

    def test_bridge_matches_enumeration(self):
        d = bridge_decomposition()
        d1 = state_distribution(d.g1, d.boundary)
        d2 = state_distribution(d.g2, d.boundary)
        assert joint_reliability(d1, d2) == BRIDGE_RELIABILITY

    def test_mismatched_sizes(self):
        g = StochasticGraph(nodes=frozenset({"k1", "k2"}), edges=(), terminals=frozenset({"k1", "k2"}))
        d2 = state_distribution(g, ("k1", "k2"))
        d1 = state_distribution(g, ("k1",))
        with pytest.raises(ValueError):
            joint_reliability(d1, d2)


class TestConditionedReliability:
    def test_top_with_boundary_terminals(self):
        d = bridge_decomposition()
        assert conditioned_reliability(d.g1, d.boundary, Partition.top(2)) == 1

    def test_singletons_is_plain_reliability(self):
        d = bridge_decomposition()
        assert conditioned_reliability(
            d.g1, d.boundary, Partition.singletons(2)
        ) == reliability_factoring(d.g1)

    def test_lemma_sum(self):
        # conditioned reliability equals the connected-pair mass of the side
        for n in (2, 3):
            for d in corpus(41, n, 4):
                for g in (d.g1, d.g2):
                    dist = state_distribution(g, d.boundary)
                    for a in all_partitions(n):
                        expected = sum(
                            (dist.prob(b) for b in all_partitions(n) if join(a, b).block_count == 1),
                            Fraction(0),
                        )
                        assert conditioned_reliability(g, d.boundary, a) == expected


class TestFactorizedRoute:
    def test_articulation_point_product(self):
        for d in corpus(43, 1, 6):
            expected = reliability_factoring(d.g1) * reliability_factoring(d.g2)
            assert factorization_detail(d).value == expected

    def test_bridge(self):
        assert factorization_detail(bridge_decomposition()).value == BRIDGE_RELIABILITY

    def test_three_boundary_glued_complete_graphs(self):
        # two 4-node complete graphs glued along 3 nodes, everything terminal
        def side(prefix, first_id):
            nodes = ["b1", "b2", "b3", prefix]
            edges = []
            eid = first_id
            for i in range(4):
                for j in range(i + 1, 4):
                    edges.append(Edge(eid, nodes[i], nodes[j], H))
                    eid += 1
            return StochasticGraph(
                nodes=frozenset(nodes), edges=tuple(edges), terminals=frozenset(nodes)
            )

        d = CutDecomposition(g1=side("x", 1), g2=side("y", 7), boundary=("b1", "b2", "b3"))
        assert len(d.union.edges) == 12
        assert factorization_detail(d).value == reliability_bruteforce(d.union)

    def test_interior_terminals_supported(self):
        for n in (1, 2, 3):
            for d in corpus(47, n, 5, terminal_mode="mixed"):
                assert factorization_detail(d).value == reliability_bruteforce(d.union)

    def test_unreachable_terminal_warns_and_returns_zero(self):
        # the decomposition is refused when it is built; the CLI's factor
        # command turns that into a warning and R = 0
        g1 = StochasticGraph(
            nodes=frozenset({"k", "a", "z"}),
            edges=(Edge(1, "a", "k", H),),
            terminals=frozenset({"k", "z"}),
        )
        g2 = StochasticGraph(
            nodes=frozenset({"k", "b"}),
            edges=(Edge(2, "k", "b", H),),
            terminals=frozenset({"k"}),
        )
        with pytest.raises(Hypothesis2Error, match=r"terminals \['z'\] reach no boundary node"):
            CutDecomposition(g1=g1, g2=g2, boundary=("k",))
        assert reliability_factoring(union_graph(g1, g2)) == 0

    def test_parallel_jobs_identical(self):
        d = bridge_decomposition()
        assert factorization_detail(d, jobs=1).value == factorization_detail(d, jobs=4).value

    def test_order_variants_agree(self):
        bundles = {
            v: invert_connectivity_matrix(coherent_order(2, v))
            for v in ("canonical", "reversed-levels")
        }
        for d in corpus(53, 2, 6):
            values = {factorization_detail(d, bundle=b).value for b in bundles.values()}
            assert len(values) == 1

    def test_detail_exposes_sides(self):
        detail = factorization_detail(bridge_decomposition())
        side1, side2 = detail.side_reliabilities()
        assert side1[Partition.top(2)] == 1
        assert detail.value == BRIDGE_RELIABILITY


class TestN2ClosedForm:
    def test_bridge(self):
        assert n2_closed_form(bridge_decomposition()) == BRIDGE_RELIABILITY

    def test_requires_n2(self):
        d = corpus(57, 1, 1)[0]
        with pytest.raises(ValueError):
            n2_closed_form(d)

    def test_degenerate_same_node_boundary(self):
        # boundary listing one node twice reduces to the articulation product
        base = corpus(59, 1, 4)
        for d1 in base:
            d = CutDecomposition(g1=d1.g1, g2=d1.g2, boundary=(d1.boundary[0], d1.boundary[0]))
            expected = reliability_factoring(d.g1) * reliability_factoring(d.g2)
            assert n2_closed_form(d) == expected
            assert factorization_detail(d).value == expected

    def test_single_edge_second_side(self, rng):
        # G2 one edge across the boundary: closed form equals pivoting on it
        for _ in range(10):
            d0 = corpus(rng.randint(0, 10**6), 2, 1)[0]
            p = random_probability(rng)
            g2 = StochasticGraph(
                nodes=frozenset({"b1", "b2"}),
                edges=(Edge(999, "b1", "b2", p),),
                terminals=frozenset({"b1", "b2"}),
            )
            d = CutDecomposition(g1=d0.g1, g2=g2, boundary=("b1", "b2"))
            value = n2_closed_form(d)
            assert value == reliability_bruteforce(d.union)
            r1 = conditioned_reliability(d.g1, d.boundary, Partition.singletons(2))
            r1_hat = conditioned_reliability(d.g1, d.boundary, Partition.top(2))
            assert value == p * r1_hat + (1 - p) * r1

    def test_matches_general_route(self):
        for d in corpus(61, 2, 8):
            assert n2_closed_form(d) == factorization_detail(d).value
