"""Seeded input generators for the relfact benchmark.

Every document the benchmark feeds to ``relfact`` is built here from the
run's seed, with no help from the package itself (not ``relfact.corpus``,
not ``scripts/make_fixtures.py``), so a change to the package cannot change
a workload.  Documents are plain JSON-ready dicts in the CLI's wire format:
probabilities travel as reduced ``"num/den"`` strings.

Random streams are seeded with strings, which ``random.Random`` hashes with
SHA-512: the same seed gives the same inputs under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from checks import frac_str


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"relfact-bench/{workload}/{seed}")


def random_prob(rng: random.Random) -> Fraction:
    """An interior rational with a small denominator (never 0 or 1)."""
    den = rng.randint(2, 9)
    return Fraction(rng.randint(1, den - 1), den)


def edge(eid: int, u: str, v: str, p: Fraction) -> dict:
    return {"id": eid, "u": u, "v": v, "p": frac_str(p)}


def graph(nodes, edges: list[dict], terminals) -> dict:
    return {"nodes": sorted(nodes), "edges": edges, "terminals": sorted(terminals)}


# -- chains: series-parallel graphs with a closed-form answer ---------------


def path_graph(probs: list[Fraction]) -> dict:
    """A path v0 - v1 - ... with one edge per probability; terminals at the ends."""
    nodes = [f"v{i}" for i in range(len(probs) + 1)]
    edges = [edge(i + 1, nodes[i], nodes[i + 1], p) for i, p in enumerate(probs)]
    return graph(nodes, edges, (nodes[0], nodes[-1]))


def necklace_graph(beads: list[tuple[Fraction, Fraction]]) -> dict:
    """Beads of two parallel edges in series; terminals at the ends."""
    nodes = [f"v{i}" for i in range(len(beads) + 1)]
    edges = []
    for i, (p, q) in enumerate(beads):
        edges.append(edge(2 * i + 1, nodes[i], nodes[i + 1], p))
        edges.append(edge(2 * i + 2, nodes[i], nodes[i + 1], q))
    return graph(nodes, edges, (nodes[0], nodes[-1]))


# -- grids cut down a column -------------------------------------------------


def grid_node(i: int, j: int) -> str:
    return f"r{i}c{j}"


def grid_edges(rows: int, cols: int, rng: random.Random) -> list[tuple[int, str, str, Fraction]]:
    """Edges of a rows x cols grid as (id, u, v, p): horizontal edges row by
    row, then vertical edges column by column."""
    out = []
    for i in range(rows):
        for j in range(cols - 1):
            out.append((grid_node(i, j), grid_node(i, j + 1)))
    for j in range(cols):
        for i in range(rows - 1):
            out.append((grid_node(i, j), grid_node(i + 1, j)))
    return [(k + 1, u, v, random_prob(rng)) for k, (u, v) in enumerate(out)]


def _col(node: str) -> int:
    return int(node.split("c")[1])


def grid_terminals(rows: int, cols: int, cut_cols: tuple[int, ...]) -> set[str]:
    """Two opposite corners plus every node of each column the grid is cut at.

    Cutting at any of those columns then leaves the union's terminal set
    unchanged, so every cut of one grid must give the same reliability.
    """
    terms = {grid_node(0, 0), grid_node(rows - 1, cols - 1)}
    for k in cut_cols:
        terms |= {grid_node(i, k) for i in range(rows)}
    return terms


def grid_cut(rows: int, cols: int, edges, terminals: set[str], k: int) -> dict:
    """Decomposition of the grid at interior column k.

    The boundary is column k, top to bottom.  g1 holds columns 0..k with
    column k's vertical edges, g2 holds columns k..cols-1 and the rest.
    Every boundary node is a terminal of both sides.
    """
    if not 0 < k < cols - 1:
        raise ValueError(f"cut column {k} is not interior to a grid of {cols} columns")
    boundary = [grid_node(i, k) for i in range(rows)]
    # column k's vertical edges have max column k, so they land in g1
    side1 = [e for e in edges if max(_col(e[1]), _col(e[2])) <= k]
    side2 = [e for e in edges if max(_col(e[1]), _col(e[2])) > k]
    nodes1 = [grid_node(i, j) for i in range(rows) for j in range(k + 1)]
    nodes2 = [grid_node(i, j) for i in range(rows) for j in range(k, cols)]
    t1 = (terminals & set(nodes1)) | set(boundary)
    t2 = (terminals & set(nodes2)) | set(boundary)
    return {
        "g1": graph(nodes1, [edge(*e) for e in side1], t1),
        "g2": graph(nodes2, [edge(*e) for e in side2], t2),
        "boundary": boundary,
    }


# -- small random decompositions -----------------------------------------------


def _random_side(
    wiring: random.Random,
    probs: random.Random,
    boundary: list[str],
    prefix: str,
    first_id: int,
    extra_nodes: int,
    extra_edges: int,
    terminal_mode: str,
) -> dict:
    """A connected side: a random spanning tree over the boundary and
    extra_nodes interior nodes, plus extra_edges random chords (parallels
    allowed, no loops).  The wiring stream picks the shape and the interior
    terminals, the probs stream the edge probabilities."""
    nodes = list(boundary) + [f"{prefix}{i}" for i in range(1, extra_nodes + 1)]
    wiring.shuffle(nodes)
    pairs = [(nodes[wiring.randrange(i)], nodes[i]) for i in range(1, len(nodes))]
    pairs += [tuple(wiring.sample(nodes, 2)) for _ in range(extra_edges)]
    edges = [edge(first_id + k, u, v, random_prob(probs)) for k, (u, v) in enumerate(pairs)]
    terminals = set(boundary)
    for x in nodes:
        if terminal_mode == "all" or (terminal_mode == "mixed" and wiring.random() < 0.5):
            terminals.add(x)
    return graph(nodes, edges, terminals)


def random_decomposition(
    wiring: random.Random,
    probs: random.Random,
    n: int,
    interior: tuple[int, int],
    chords: tuple[int, int],
    terminal_mode: str,
) -> dict:
    """A decomposition with an n-node boundary.

    Side k gets interior[k] interior nodes and chords[k] chords on top of its
    spanning tree, so the union has 2n - 2 + sum(interior) + sum(chords)
    edges.  terminal_mode is "boundary", "mixed" or "all".
    """
    boundary = [f"b{i}" for i in range(1, n + 1)]
    g1 = _random_side(wiring, probs, boundary, "u", 1, interior[0], chords[0], terminal_mode)
    g2 = _random_side(
        wiring, probs, boundary, "v", len(g1["edges"]) + 1, interior[1], chords[1], terminal_mode
    )
    return {"g1": g1, "g2": g2, "boundary": boundary}


def union_of(d: dict) -> dict:
    """The union graph of a decomposition document."""
    g1, g2 = d["g1"], d["g2"]
    return graph(
        set(g1["nodes"]) | set(g2["nodes"]),
        sorted(g1["edges"] + g2["edges"], key=lambda e: e["id"]),
        set(g1["terminals"]) | set(g2["terminals"]),
    )


def with_equal_probability(g: dict, p: Fraction) -> dict:
    return {**g, "edges": [{**e, "p": frac_str(p)} for e in g["edges"]]}
