"""Seeded random decomposable graphs for cross-route verification.

Every generated decomposition satisfies the cut hypotheses by construction:
the sides share exactly the boundary nodes, both sides are connected, and
the boundary is terminal on both sides.  Unions are kept small enough for
the enumeration oracle.  The tests and scripts/make_fixtures.py draw
from it, and write graphs and decompositions as JSON documents with it;
the package does neither.
"""

from __future__ import annotations

import random
from fractions import Fraction

from relfact.cut import CutDecomposition
from relfact.graphs import Edge, StochasticGraph
from relfact.jsonio import fraction_to_str


def random_probability(rng: random.Random) -> Fraction:
    """Mostly interior rationals with small denominators, with an occasional
    exact 0 or 1 to stress the degenerate edges."""
    roll = rng.random()
    if roll < 0.03:
        return Fraction(0)
    if roll < 0.06:
        return Fraction(1)
    den = rng.randint(2, 9)
    return Fraction(rng.randint(1, den - 1), den)


TERMINAL_MODES = ("boundary", "mixed", "all")


def _random_side(
    rng: random.Random,
    boundary: tuple[str, ...],
    prefix: str,
    first_edge_id: int,
    terminal_mode: str,
    extra_nodes: int,
    extra_edges: int,
) -> StochasticGraph:
    nodes = list(dict.fromkeys(boundary)) + [f"{prefix}{i}" for i in range(1, extra_nodes + 1)]
    rng.shuffle(nodes)
    edges = []
    eid = first_edge_id
    for i in range(1, len(nodes)):
        a = nodes[rng.randrange(i)]
        edges.append(Edge(eid, a, nodes[i], random_probability(rng)))
        eid += 1
    for _ in range(extra_edges):
        u = rng.choice(nodes)
        v = rng.choice(nodes)  # u == v gives an occasional self-loop
        edges.append(Edge(eid, u, v, random_probability(rng)))
        eid += 1
    terminals = set(boundary)
    if terminal_mode != "boundary":
        for x in nodes:
            if x not in terminals and (terminal_mode == "all" or rng.random() < 0.5):
                terminals.add(x)
    return StochasticGraph(nodes=frozenset(nodes), edges=tuple(edges), terminals=frozenset(terminals))


def random_decomposition(
    rng: random.Random,
    n: int,
    terminal_mode: str = "boundary",
    max_union_edges: int = 12,
) -> CutDecomposition:
    """One random decomposition with an n-node boundary.

    Sides get a random spanning tree plus a few extra edges (parallels and
    self-loops allowed), so each side is connected and the union never
    strands a terminal.  Rejection keeps the union small enough to
    brute-force; a bound that no draw can meet raises ValueError at once.

    terminal_mode picks the terminal set of each side: "boundary" keeps the
    terminals exactly on the cut (the regime where every route, the joint
    boundary-state sum included, computes the same number), "mixed" promotes
    a random selection of interior nodes, and "all" makes every node a
    terminal (the random-cluster regime).
    """
    if terminal_mode not in TERMINAL_MODES:
        raise ValueError(f"terminal_mode must be one of {TERMINAL_MODES}")
    fewest = max(2, 2 * (n - 1))  # a spanning tree per side, one edge each at n = 1
    if fewest > max_union_edges:
        raise ValueError(f"two sides on {n} boundary nodes need at least {fewest} edges, not {max_union_edges}")
    boundary = tuple(f"b{i}" for i in range(1, n + 1))
    while True:
        extra1 = rng.randint(1 if n == 1 else 0, 2)
        extra2 = rng.randint(1 if n == 1 else 0, 2)
        g1 = _random_side(rng, boundary, "u", 1, terminal_mode, extra1, rng.randint(0, 2))
        g2 = _random_side(
            rng, boundary, "v", len(g1.edges) + 1, terminal_mode, extra2, rng.randint(0, 2)
        )
        if len(g1.edges) + len(g2.edges) <= max_union_edges:
            return CutDecomposition(g1=g1, g2=g2, boundary=boundary)


def corpus(seed: int, n: int, count: int, terminal_mode: str = "boundary") -> list[CutDecomposition]:
    rng = random.Random(seed * 1000 + n)
    return [random_decomposition(rng, n, terminal_mode=terminal_mode) for _ in range(count)]


def bridge_graph(p: Fraction = Fraction(1, 2)) -> StochasticGraph:
    """Four outer nodes in a diamond with a middle rung; terminals are the
    rung (waist) endpoints."""
    edges = (
        Edge(1, "s", "u", p),
        Edge(2, "s", "v", p),
        Edge(3, "u", "t", p),
        Edge(4, "v", "t", p),
        Edge(5, "u", "v", p),
    )
    return StochasticGraph(
        nodes=frozenset({"s", "t", "u", "v"}),
        edges=edges,
        terminals=frozenset({"u", "v"}),
    )


def bridge_decomposition(p: Fraction = Fraction(1, 2)) -> CutDecomposition:
    """The bridge graph split along its waist: the s-side keeps the rung."""
    g1 = StochasticGraph(
        nodes=frozenset({"s", "u", "v"}),
        edges=(Edge(1, "s", "u", p), Edge(2, "s", "v", p), Edge(5, "u", "v", p)),
        terminals=frozenset({"u", "v"}),
    )
    g2 = StochasticGraph(
        nodes=frozenset({"t", "u", "v"}),
        edges=(Edge(3, "u", "t", p), Edge(4, "v", "t", p)),
        terminals=frozenset({"u", "v"}),
    )
    return CutDecomposition(g1=g1, g2=g2, boundary=("u", "v"))


# -- documents -----------------------------------------------------------------
# The writers of the wire format.  No command writes a graph, so they live
# here, beside the generators whose draws they serialise.


def graph_to_obj(g: StochasticGraph) -> dict:
    return {
        "nodes": sorted(g.nodes),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "p": fraction_to_str(e.prob)}
            for e in sorted(g.edges, key=lambda e: e.id)
        ],
        "terminals": sorted(g.terminals),
    }


def decomposition_to_obj(d: CutDecomposition) -> dict:
    return {
        "g1": graph_to_obj(d.g1),
        "g2": graph_to_obj(d.g2),
        "boundary": list(d.boundary),
    }
