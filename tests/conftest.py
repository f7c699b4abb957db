import os
import random
from pathlib import Path

import pytest

from relfact.corpus import random_probability
from relfact.graphs import Edge, StochasticGraph

# pyproject's pythonpath puts src/ on this process's path only; the tests
# that spawn `python -m relfact` need it in the environment as well
SRC = str(Path(__file__).resolve().parent.parent / "src")
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


def adjacency(g: StochasticGraph) -> dict[str, list[tuple[int, str]]]:
    """g's nodes mapped to their (edge id, neighbour) pairs, loops left out:
    the input of graphs.relevant_edges."""
    adj: dict[str, list[tuple[int, str]]] = {v: [] for v in g.nodes}
    for e in g.edges:
        if not e.is_loop:
            adj[e.u].append((e.id, e.v))
            adj[e.v].append((e.id, e.u))
    return adj


def mat_mul(a, b) -> list[list]:
    """Dense matrix product of two lists of lists, a test reference."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.fixture
def rng():
    return random.Random(20240817)
