"""Exact counts of edge states on one frontier kernel.

_frontier_walk merges equal partial states (Carlier & Lucet 1996; Hardy,
Lucet & Limnios 2007), so its work is O(m * states on the frontier) rather
than 2^m, and each state carries one integer: the random-cluster sum of
its edge states at one integer q.  reliability_polynomial,
cluster.partition_function and state_distribution (whose final states are
a side's boundary states) each choose the edge weights and q so that their
counts are that integer's digits in base 2^b (_digits).  joint_reliability
sums two distributions over the pairs of states that link the boundary,
the quadratic route that precedes the factorization.  Each route checks
base's enumeration bound and reads the graph's integer form
(graphs.integer_form), dividing by its one denominator at the end.  This
module imports graphs and base alone, and partitions when a boundary-state
route runs: the graph counts compile no factoring or cut route, no 2^m
oracle and no partition lattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Iterable

from . import base
from .graphs import StochasticGraph, integer_form

if TYPE_CHECKING:
    from .partitions import Partition


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


def _frontier_walk(
    nodes: Iterable[int], edges: list[tuple], terminals: set[int], stay: set[int] = frozenset(), q: int = 1
) -> tuple[list[int], dict]:
    """The frontier kernel behind the polynomial, the cluster counts and the
    boundary distributions, over an integer form's node numbers and edges;
    its callers check the bound.

    Runs _frontier_plan's schedule over states of the frontier: the
    component labels of its vertices as a restricted-growth tuple, and one
    mark per block that holds a terminal.  States that become equal merge.
    Each state carries one integer weight, summed over its edge states: an
    edge multiplies it by up when it works and by down when it fails, and
    a block that leaves the frontier unmarked closes a cluster and
    multiplies it by q.  When a marked block leaves, either it holds every
    terminal (all have entered and no other block is marked) and the state
    becomes the linked state, which absorbs every later edge and closes no
    cluster, or some terminal is cut off and the state dies.

    Returns the final frontier (_frontier_plan) and the final states with
    their weights: with stay empty, at most one state, the linked state or
    the empty frontier; with stay a side's boundary and no terminals, one
    per boundary partition the side induces.  A caller that wants weights
    by a count makes the count a base-2^b digit: q = 2^b moves a weight up
    one digit per closed cluster, and up = 2^b per operative edge.  No
    digit carries into the next while every count stays below 2^b.
    """
    total = len(terminals)
    seen = 0
    # the state None is the linked state: its frontier no longer matters
    states: dict = {((), ()): 1}
    plan, frontier = _frontier_plan(nodes, edges, terminals, stay)
    for op in plan:
        nxt: dict = {}
        if op[0] == "enter":
            mark = op[1]
            seen += mark
            for state, w in states.items():
                if state is not None:
                    labels, marks = state
                    state = (labels + (len(marks),), marks + (mark,))
                nxt[state] = w
        elif op[0] == "edge":
            _, i, j, up, down = op
            for state, w in states.items():
                if down:
                    nxt[state] = nxt.get(state, 0) + w * down
                if up:
                    if state is not None:
                        labels, marks = state
                        x, y = sorted((labels[i], labels[j]))
                        if x != y:
                            merged = marks[:x] + (marks[x] or marks[y],) + marks[x + 1 :]
                            state = _relabel(tuple([x if z == y else z for z in labels]), merged)
                    nxt[state] = nxt.get(state, 0) + w * up
        else:
            i = op[1]
            for state, w in states.items():
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
                        if closes:
                            w *= q
                nxt[state] = nxt.get(state, 0) + w
        states = nxt
    return frontier, states


def _digits(x: int, b: int, count: int) -> list[int]:
    """The count lowest digits of x in base 2^b, the lowest first."""
    mask = (1 << b) - 1
    return [x >> (b * k) & mask for k in range(count)]


class ReliabilityPolynomial(base.Value):
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

    Every edge of g's integer form weighs (2^b, 1), b = m + 1, ignoring the
    edge probabilities, so a state with i operative edges weighs 2^(b*i):
    digit i of the linked state's weight is C_i, and C_i <= C(m, i) < 2^b
    keeps it there (Kronecker substitution)."""
    base._check_bound(g.edges, bound)
    index, edges, terminals, _ = integer_form(g)
    b = len(edges) + 1
    _, states = _frontier_walk(index.values(), [(eid, u, v, 1 << b, 1) for eid, u, v, _, _ in edges], terminals)
    linked = next(iter(states.values()), 0)  # the linked state, if any
    return ReliabilityPolynomial(tuple(_digits(linked, b, len(edges) + 1)))


class StateDistribution(base.Value):
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
    base._check_bound(g.edges, bound)
    index, edges, _, denom = integer_form(g)
    bix = [index[b] for b in boundary]
    frontier, states = _frontier_walk(index.values(), edges, set(), set(bix))
    at = [frontier.index(b) for b in bix]
    acc: dict[Partition, int] = {}
    for (labels, _), w in states.items():
        # a node listed twice reads one label at both of its positions
        key = Partition.from_labels([labels[i] for i in at])
        acc[key] = acc.get(key, 0) + w
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
        for b, pb in d2.probs.items():
            if is_connected_pair(a, b):
                total += pa * pb
    return total
