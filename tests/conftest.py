import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import relfact
from corpus import random_probability
from lattice import is_loop
from relfact.graphs import Edge, StochasticGraph
from relfact.partitions import Partition

# pyproject's pythonpath puts src/ on this process's path only; the tests
# that spawn `python -m relfact` need it in the environment as well.  The
# path is that of the package this process imported, so a spawned command
# runs the same source as the tests in process, wherever it was imported from
SRC = str(Path(relfact.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


def random_graph(rng: random.Random, max_nodes: int = 6, max_edges: int = 9) -> StochasticGraph:
    """Small random multigraph, not necessarily connected; loops and
    parallels allowed; at least one terminal."""
    node_count = rng.randint(2, max_nodes)
    nodes = [f"n{i}" for i in range(node_count)]
    edges = tuple(
        Edge(eid, rng.choice(nodes), rng.choice(nodes), random_probability(rng))
        for eid in range(1, rng.randint(1, max_edges) + 1)
    )
    terminals = rng.sample(nodes, rng.randint(1, node_count))
    return StochasticGraph(nodes=frozenset(nodes), edges=edges, terminals=frozenset(terminals))


def with_prob(g: StochasticGraph, edge_id: int, p) -> StochasticGraph:
    """g with the probability of one edge set to p."""
    edges = tuple(Edge(e.id, e.u, e.v, p) if e.id == edge_id else e for e in g.edges)
    return StochasticGraph(nodes=g.nodes, edges=edges, terminals=g.terminals)


def adjacency(g: StochasticGraph) -> dict[str, dict[int, str]]:
    """g's nodes mapped to their incident edges as {edge id: neighbour},
    loops left out: the input of reliability.relevant_edges."""
    adj: dict[str, dict[int, str]] = {v: {} for v in g.nodes}
    for e in g.edges:
        if not is_loop(e):
            adj[e.u][e.id] = e.v
            adj[e.v][e.id] = e.u
    return adj


def state_walk(g: StochasticGraph):
    """Every edge state of g of nonzero probability, one at a time, as
    (weight, labels), with the node index and the common denominator D:
    (index, D, states).  labels[i] names the component of node i among the
    operative edges.  With edge probabilities p_i = a_i/d_i, a state's
    probability is its weight, prod(a_i or d_i - a_i), over D = prod d_i.
    Labels are carried down the walk and relabelled once per union.  The
    reference of the bit-parallel enumeration kernel."""
    index = {v: i for i, v in enumerate(sorted(g.nodes))}
    denom = 1
    edges = []
    for e in g.edges:
        a, d = e.prob.numerator, e.prob.denominator
        denom *= d
        edges.append((index[e.u], index[e.v], a, d - a))

    def walk():
        stack = [(0, 1, tuple(range(len(index))))]
        while stack:
            i, weight, labels = stack.pop()
            if i == len(edges):
                yield weight, labels
                continue
            u, v, up, down = edges[i]
            if down:
                stack.append((i + 1, weight * down, labels))
            if up:
                keep, gone = labels[u], labels[v]
                if keep != gone:
                    labels = tuple(keep if x == gone else x for x in labels)
                stack.append((i + 1, weight * up, labels))

    return index, denom, walk()


def walk_routes(g: StochasticGraph, boundary) -> tuple[Fraction, dict[Partition, Fraction]]:
    """The reliability and the boundary distribution of g, summed over one
    state walk: the reference of reliability_bruteforce and
    state_distribution."""
    index, denom, states = state_walk(g)
    targets = {index[t] for t in g.terminals}
    bix = [index[b] for b in boundary]
    linked = 0
    acc: dict[Partition, int] = {}
    for w, labels in states:
        if len({labels[t] for t in targets}) <= 1:
            linked += w
        part = Partition.from_labels(tuple(labels[b] for b in bix))
        acc[part] = acc.get(part, 0) + w
    dist = {part: Fraction(w, denom) for part, w in acc.items()}
    return Fraction(linked, denom), dist


def mat_mul(a, b) -> list[list]:
    """Dense matrix product of two lists of lists, a test reference."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def dense_inverse_form(bundle, r1: dict, r2: dict) -> Fraction:
    """r1^T * A^-1 * r2 summed entry by entry over a bundle's dense A^-1,
    the vectors read in the bundle's coherent order: the reference for
    conmatrix.inverse_form."""
    states = bundle.order.states
    value = Fraction(0)
    for row, a in zip(bundle.A_inv, states):
        for b, c in zip(row, states):
            value += b * r1[a] * r2[c]
    return value


@pytest.fixture
def rng():
    return random.Random(20240817)
