"""Stochastic multigraphs with exact rational edge probabilities.

Graphs are immutable values, and parallel edges and self-loops are first
class.  integer_form is the one place that turns a graph into the integers
every kernel reads, and the one place that identifies a cut side's boundary
through a partition: merged nodes share a member's number, so a side solve
builds no graph, and the loops and parallel edges an identification makes
stay until the factoring kernel, on its own copy, reduces them away.  The
errors a cut decomposition raises are here and the decomposition is in
cut, so a command that reads only a graph compiles no cut code, and the
factoring kernel's pruning DFS is in reliability.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .base import Value

if TYPE_CHECKING:
    from .partitions import Partition


class GraphError(ValueError):
    pass


class DecompositionError(GraphError):
    pass


class Hypothesis1Error(DecompositionError):
    """Sides share an edge, or a boundary node is missing from a side's terminals."""


class Hypothesis2Error(DecompositionError):
    """Some terminal cannot reach any boundary node; the reliability is 0."""


class Edge(Value):
    """One stochastic edge; endpoints are unordered and may coincide (loop).
    The endpoints are stored sorted and the probability as a Fraction: one
    given as an exact Fraction is kept as it is, anything else (a Fraction
    subclass included) is converted."""

    __slots__ = FIELDS = ("id", "u", "v", "prob")
    id: int
    u: str
    v: str
    prob: Fraction

    def __init__(self, id: int, u: str, v: str, prob: Fraction) -> None:
        if v < u:
            u, v = v, u
        if prob.__class__ is not Fraction:
            prob = Fraction(prob)
        self._set(id, u, v, prob)
        if not 0 <= prob.numerator <= prob.denominator:
            raise GraphError(f"edge {id}: probability {prob} outside [0,1]")


class StochasticGraph(Value):
    """Nodes, edges and terminals, stored as a frozenset, a tuple and a
    frozenset; every edge endpoint and every terminal is a node."""

    __slots__ = FIELDS = ("nodes", "edges", "terminals")
    nodes: frozenset[str]
    edges: tuple[Edge, ...]
    terminals: frozenset[str]

    def __init__(self, nodes: Iterable[str], edges: Iterable[Edge], terminals: Iterable[str]) -> None:
        nodes = frozenset(nodes)
        edges = tuple(edges)
        terminals = frozenset(terminals)
        self._set(nodes, edges, terminals)
        if not all(isinstance(x, str) for x in nodes):
            raise GraphError("node identifiers must be strings")
        ids = [e.id for e in edges]
        if len(ids) != len(set(ids)):
            raise GraphError("edge identifiers must be pairwise distinct")
        for e in edges:
            if e.u not in nodes or e.v not in nodes:
                raise GraphError(f"edge {e.id} endpoint outside the node set")
        if not terminals <= nodes:
            raise GraphError("terminals must be a subset of the nodes")

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(e.id for e in self.edges)


class UnionFind:
    """Plain disjoint-set union over hashable items, with path compression."""

    def __init__(self, items: Iterable = ()) -> None:
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry

    def component_count(self) -> int:
        return sum(1 for x in self.parent if self.parent[x] == x)


def components(g: StochasticGraph) -> UnionFind:
    """The components of g's nodes joined by every edge of g."""
    uf = UnionFind(g.nodes)
    for e in g.edges:
        uf.union(e.u, e.v)
    return uf


def is_k_connected(g: StochasticGraph) -> bool:
    """Connectivity of the terminals when every edge is operative: every
    terminal has the same root in the components of g."""
    uf = components(g)
    return len({uf.find(t) for t in g.terminals}) <= 1


def integer_form(g: StochasticGraph, boundary: Sequence[str] = (), a: Partition | None = None) -> tuple:
    """g in the integers every kernel reads: (index, edges, terminals, D).

    index numbers the nodes in name order; edges lists (id, u, v, up, down)
    in g.edges order, an edge p = n/d as up = n and down = d - n; terminals
    holds the terminals' numbers, and D is the product of the d.  With a
    partition a of the boundary, the boundary nodes that share a block of
    a, transitively (a boundary may list a node twice), take one member's
    number, so g is read with its boundary identified through a, every
    edge kept.  Raises GraphError when a is not over the boundary's
    positions or a boundary node is not in g.
    """
    index = {v: i for i, v in enumerate(sorted(g.nodes))}
    if a is not None:
        if a.n != len(boundary):
            raise GraphError(f"partition of {a.n} labels against boundary of size {len(boundary)}")
        for x in boundary:
            if x not in g.nodes:
                raise GraphError(f"boundary node {x!r} not in graph")
        uf = UnionFind(boundary)
        for x, k in zip(boundary, a.labels):  # x joins the first member of its block
            uf.union(x, boundary[a.labels.index(k)])
        for x in boundary:
            index[x] = index[uf.find(x)]
    edges = []
    denom = 1
    for e in g.edges:
        up, d = e.prob.numerator, e.prob.denominator
        edges.append((e.id, index[e.u], index[e.v], up, d - up))
        denom *= d
    return index, edges, {index[t] for t in g.terminals}, denom
