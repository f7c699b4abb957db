"""Exact counts of edge states on the frontier kernel, behind one
enumeration bound.

One frontier kernel, _frontier_walk, merges equal partial states (Carlier
& Lucet 1996; Hardy, Lucet & Limnios 2007), so its work is O(m * states on
the frontier) rather than 2^m: reliability_polynomial,
cluster.partition_function, and state_distribution, whose final states are
a side's boundary states.  joint_reliability sums two such distributions
over the pairs of states that link the boundary, the quadratic route that
precedes the factorization.  _check_bound is the one enumeration bound:
every route here, cluster's and the 2^m oracle in enumeration check it.
Each route reads the graph's integer form (graphs.integer_form), summing
integer numerators over one common denominator into Fractions once, at the
end.  This module imports graphs and base alone, and partitions when a
boundary-state route runs, so the graph counts compile no factoring route,
no cut route, no 2^m oracle and no partition lattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Iterable, Sized

from .base import DEFAULT_ENUMERATION_BOUND, Value
from .graphs import StochasticGraph, integer_form

if TYPE_CHECKING:
    from .partitions import Partition


class EnumerationBoundError(ValueError):
    """Too many edges for state enumeration under the current bound."""


def _check_bound(edges: Sized, bound: int | None) -> None:
    """The enumeration bound of every state-counting route: more edges than
    the bound (DEFAULT_ENUMERATION_BOUND when None) raise
    EnumerationBoundError."""
    limit = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if len(edges) > limit:
        raise EnumerationBoundError(
            f"{len(edges)} edges exceed the enumeration bound {limit}; "
            "raise it with --bound or RELFACT_BOUND"
        )


def _frontier_plan(
    nodes: Iterable[int], edges: list[tuple], terminals: set[int], stay: set[int]
) -> tuple[list[tuple], list[int]]:
    """The fixed schedule of the frontier kernel over an integer form's node
    numbers and edges (graphs.integer_form), one operation per entry, and
    the node numbers of the frontier it ends with.

    Vertices enter in BFS order: each search starts at the least unvisited
    node number and visits neighbours in number order, which is name order.
    After a vertex enters, the edges whose later endpoint it is follow,
    sorted by earlier endpoint and then edge id; then every frontier vertex
    whose last edge that was leaves.  The vertices in stay never leave, as
    their last step is past the end, so the frontier ends with them, in the
    order they entered.  Operations are ("enter", is terminal), ("edge", i,
    j, up, down) and ("leave", i), with i and j indices into the frontier,
    which is the same for every state at a given point of the schedule.
    """
    adj: dict[int, set[int]] = {v: set() for v in nodes}
    for _, u, v, _, _ in edges:
        adj[u].add(v)
        adj[v].add(u)
    order: list[int] = []
    pos: dict[int, int] = {}
    for root in sorted(adj):
        if root in pos:
            continue
        k = pos[root] = len(order)
        order.append(root)
        while k < len(order):
            for y in sorted(adj[order[k]]):
                if y not in pos:
                    pos[y] = len(order)
                    order.append(y)
            k += 1
    later: list[list] = [[] for _ in order]
    last = [len(order) if v in stay else s for s, v in enumerate(order)]
    for eid, u, v, up, down in edges:
        i, j = sorted((pos[u], pos[v]))
        later[j].append((i, eid, up, down))
        last[i] = max(last[i], j)
    plan: list[tuple] = []
    frontier: list[int] = []
    for s, v in enumerate(order):
        frontier.append(s)
        plan.append(("enter", v in terminals))
        for i, _, up, down in sorted(later[s]):
            plan.append(("edge", frontier.index(i), len(frontier) - 1, up, down))
        for u in [u for u in frontier if last[u] == s]:
            plan.append(("leave", frontier.index(u)))
            frontier.remove(u)
    return plan, [order[s] for s in frontier]


def _relabel(labels: tuple, marks: tuple) -> tuple[tuple, tuple]:
    """Renumber labels 0, 1, ... in order of first occurrence and carry each
    block's mark along; a label no longer used drops its mark."""
    first: dict = {}
    labels = tuple([first.setdefault(x, len(first)) for x in labels])
    return labels, tuple([marks[x] for x in first])


def _add(acc: dict, state, counts: dict[int, int], factor: int, shift: int) -> None:
    """acc[state] += factor * counts, every key of counts moved up by shift."""
    out = acc.get(state)
    if out is None:
        acc[state] = {k + shift: w * factor for k, w in counts.items()}
        return
    for k, w in counts.items():
        out[k + shift] = out.get(k + shift, 0) + w * factor


def _frontier_walk(
    nodes: Iterable[int], edges: list[tuple], terminals: set[int] | None, stay: set[int] = frozenset()
) -> tuple[list[int], dict]:
    """The frontier kernel behind the polynomial, the cluster counts and the
    boundary distributions, over an integer form's node numbers and edges;
    its callers check the bound.

    Runs _frontier_plan's schedule over states of the frontier: the
    component labels of its vertices as a restricted-growth tuple, and one
    mark per block that holds a terminal.  States that become equal merge,
    so the work is O(m * states on the frontier) rather than 2^m.  Each
    state carries its weights keyed by a count: integers over the form's
    D, as in enumeration._state_masks, an edge multiplying them by up when
    it works and by down when it fails (unit weights (1, 1) count edge
    states).
    A block that leaves the frontier closes one cluster.

    With terminals, the key is the number of operative edges, and only the
    states that link every terminal count.  When a marked block leaves,
    either it holds every terminal (all have entered and no other block is
    marked) and the state becomes the linked state, which absorbs every
    later edge, or some terminal is cut off and the state dies.  With
    terminals None, the key is the number of closed clusters, and every
    state counts.  Returns the final frontier (_frontier_plan) and states
    with their weights by key: with stay empty, at most one state, the
    linked state or the empty frontier; with stay a side's boundary and
    terminals None, one per boundary partition the side induces.
    """
    counting_edges = terminals is not None
    total = len(terminals) if counting_edges else 0
    seen = 0
    # the state None is the linked state: its frontier no longer matters
    states: dict = {((), ()): {0: 1}}
    plan, frontier = _frontier_plan(nodes, edges, terminals or set(), stay)
    for op in plan:
        nxt: dict = {}
        if op[0] == "enter":
            mark = op[1]
            seen += mark
            for state, counts in states.items():
                if state is not None:
                    labels, marks = state
                    state = (labels + (len(marks),), marks + (mark,))
                nxt[state] = counts
        elif op[0] == "edge":
            _, i, j, up, down = op
            for state, counts in states.items():
                if down:
                    _add(nxt, state, counts, down, 0)
                if up:
                    if state is not None:
                        labels, marks = state
                        x, y = sorted((labels[i], labels[j]))
                        if x != y:
                            merged = marks[:x] + (marks[x] or marks[y],) + marks[x + 1 :]
                            state = _relabel(tuple([x if z == y else z for z in labels]), merged)
                    _add(nxt, state, counts, up, int(counting_edges))
        else:
            i = op[1]
            for state, counts in states.items():
                closes = False
                if state is not None:
                    labels, marks = state
                    x = labels[i]
                    rest = labels[:i] + labels[i + 1 :]
                    closes = x not in rest
                    if closes and marks[x]:
                        if seen < total or sum(marks) > 1:
                            continue
                        state = None
                    else:
                        state = _relabel(rest, marks)
                _add(nxt, state, counts, 1, int(closes and not counting_edges))
        states = nxt
    return frontier, states


class ReliabilityPolynomial(Value):
    """Pathset counts by number of operative edges, for equal edge
    probability p: R(p) = sum_i C_i p^i (1-p)^(m-i)."""

    __slots__ = FIELDS = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        self._set(coefficients)

    @property
    def edge_count(self) -> int:
        return len(self.coefficients) - 1

    def monomial_coefficients(self) -> list[int]:
        """Coefficients of R(p) expanded in powers of p."""
        m = self.edge_count
        out = [0] * (m + 1)
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            for j in range(i, m + 1):
                out[j] += c * (-1) ** (j - i) * comb(m - i, j - i)
        return out


def reliability_polynomial(g: StochasticGraph, bound: int | None = None) -> ReliabilityPolynomial:
    """Count terminal-linking states by operative edge count.

    The counts come from the frontier kernel with unit weights (1, 1) on
    every edge of g's integer form, so they ignore the edge probabilities:
    states with a p = 0 or p = 1 edge are counted like any other."""
    _check_bound(g.edges, bound)
    index, edges, terminals, _ = integer_form(g)
    _, states = _frontier_walk(index.values(), [(eid, u, v, 1, 1) for eid, u, v, _, _ in edges], terminals)
    counts = next(iter(states.values()), {})  # the linked state, if any
    return ReliabilityPolynomial(tuple(counts.get(i, 0) for i in range(len(g.edges) + 1)))


class StateDistribution(Value):
    """Exact probability of each boundary partition induced by one side."""

    __slots__ = FIELDS = ("boundary", "probs")
    boundary: tuple[str, ...]
    probs: dict[Partition, Fraction]

    def __init__(self, boundary: Iterable[str], probs: dict[Partition, Fraction]) -> None:
        self._set(tuple(boundary), probs)
        total = sum(probs.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"state distribution mass {total} != 1")

    @property
    def n(self) -> int:
        return len(self.boundary)


def state_distribution(
    g: StochasticGraph, boundary: list[str] | tuple[str, ...], bound: int | None = None
) -> StateDistribution:
    """Distribution over boundary partitions: labels i and j share a block
    exactly when the operative edges join boundary[i-1] to boundary[j-1].
    The boundary stays on the frontier to the end, and each final state's
    labels at its positions name its partition."""
    from .partitions import Partition

    boundary = tuple(boundary)
    for b in boundary:
        if b not in g.nodes:
            raise ValueError(f"boundary node {b!r} not in graph")
    _check_bound(g.edges, bound)
    index, edges, _, denom = integer_form(g)
    bix = [index[b] for b in boundary]
    frontier, states = _frontier_walk(index.values(), edges, None, set(bix))
    at = [frontier.index(b) for b in bix]
    acc: dict[Partition, int] = {}
    for (labels, _), counts in states.items():
        # a node listed twice reads one label at both of its positions
        key = Partition.from_labels([labels[i] for i in at])
        acc[key] = acc.get(key, 0) + sum(counts.values())
    probs = {key: Fraction(w, denom) for key, w in acc.items()}
    return StateDistribution(boundary=boundary, probs=probs)


def joint_reliability(d1: StateDistribution, d2: StateDistribution) -> Fraction:
    """Mass of the pairs of side states that jointly link the boundary.

    This is the quadratic pre-factorization route: it sums P1(A) * P2(B)
    over connected pairs rather than going through the inverse matrix.
    """
    from .partitions import is_connected_pair

    if d1.n != d2.n:
        raise ValueError(f"boundary sizes differ: {d1.n} vs {d2.n}")
    total = Fraction(0)
    for a, pa in d1.probs.items():
        if pa == 0:
            continue
        for b, pb in d2.probs.items():
            if pb and is_connected_pair(a, b):
                total += pa * pb
    return total
