"""Exact reliability by factoring.

Contraction/deletion factoring with series/parallel reductions and
irrelevant-block pruning (relevant_edges, one DFS per subproblem), on a
whole graph (reliability_factoring) or on a cut side with its boundary
identified through a partition (conditioned_reliability, the side solver
of the cut routes in cut).  The routes that count edge states live in
states, with the enumeration bound that caps them, and the 2^m oracle in
enumeration; factoring has no bound.  All routes are exact and must agree
bit for bit; the test suite leans on that equality everywhere.  Factoring,
like the counting kernels, reads the graph's integer form
(graphs.integer_form) and builds one Fraction over the form's common
denominator, at the end.

This module is the factoring kernel alone and imports only graphs: it
compiles no partition lattice, no connectivity matrix, no counting kernel
and no cut code, and only the routes that factor compile it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

from .graphs import StochasticGraph, integer_form

if TYPE_CHECKING:
    from .partitions import Partition


def relevant_edges(adj: Mapping, terminals: Iterable) -> set[int] | None:
    """Edge ids that some simple path between two terminals crosses, or None
    when the terminals are not all connected.

    adj maps every node to its incident edges as {edge id: neighbour},
    loops left out, the factoring kernel's own adjacency (_Subproblem.adj);
    nodes may be any mutually comparable values.  At least two terminals.
    One biconnected DFS from the least terminal decides it: each block
    closes at a node p over the search subtree of p's child u, and p
    separates that subtree from the rest of the graph, the root terminal
    included, so the block's edges are relevant exactly when the subtree
    holds a terminal.  No set of used edges is kept: an edge to an earlier
    node lowers low, so a parallel edge to the DFS parent closes a cycle.
    The DFS keeps its frames on an explicit stack, so the depth of the
    graph is not limited by the interpreter's recursion limit.
    """
    terminals = set(terminals)
    root = min(terminals)
    disc = {root: 0}
    low = {root: 0}
    below = {root: 1}  # terminals in each node's search subtree
    pending: list[int] = []  # edge ids not yet in a block
    relevant: set[int] = set()
    # (node, index in pending of the edge from its parent, edges left)
    frames = [(root, 0, iter(adj[root].items()))]
    while frames:
        u, start, rest = frames[-1]
        du = disc[u]
        for eid, w in rest:
            dw = disc.get(w)
            if dw is None:
                pending.append(eid)
                disc[w] = low[w] = len(disc)
                below[w] = int(w in terminals)
                frames.append((w, len(pending) - 1, iter(adj[w].items())))
                break
            if dw < du:
                pending.append(eid)
                if dw < low[u]:
                    low[u] = dw
        else:
            frames.pop()
            if not frames:
                break
            p = frames[-1][0]
            lu = low[u]
            if lu < low[p]:
                low[p] = lu
            below[p] += below[u]
            if lu >= disc[p]:
                if below[u]:
                    relevant.update(pending[start:])
                del pending[start:]
    return relevant if below[root] == len(terminals) else None


class _Subproblem:
    """One factoring subproblem on integer nodes, reduced in place.

    edges maps an edge id to (u, v, up, down), the edge working with
    probability up / (up + down); adj maps every node to its incident edges
    as {edge id: neighbour}.  weight is an integer.  With N(edges, terms)
    the sum, over the edge states that link the terminals, of the product
    of up for each working edge and down for each failed one, every
    reduction keeps weight * N equal to D times the subproblem's share of
    the answer, D being the product of the input's edge denominators.  So
    an edge that leaves multiplies the weight by up when it works, by down
    when it fails, and by its mass up + down when its state does not
    matter.  An edge known to work leaves by _contract with down set to 0.
    """

    def __init__(self, weight: int, edges: dict, terms: set[int]) -> None:
        self.weight = weight
        self.edges = edges
        self.terms = terms
        self.adj: dict[int, dict[int, int]] = {t: {} for t in terms}
        for eid, (u, v, _, _) in edges.items():
            self.adj.setdefault(u, {})[eid] = v
            self.adj.setdefault(v, {})[eid] = u

    def _drop(self, eid: int) -> tuple[int, int, int, int]:
        edge = self.edges.pop(eid)
        u, v, _, _ = edge
        del self.adj[u][eid]
        if v != u:
            del self.adj[v][eid]
        return edge

    def _discard(self, eid: int) -> tuple[int, int]:
        """Drop an edge whose state does not matter: weight times its mass."""
        u, v, up, down = self._drop(eid)
        self.weight *= up + down
        return u, v

    def _contract(self, keep: int, gone: int) -> None:
        """Merge node gone into keep; edges between them become loops and
        leave with their mass (a p = 1 edge's mass is its up)."""
        adj, edges = self.adj, self.edges
        for eid, w in adj.pop(gone).items():
            if w == gone or w == keep:
                adj[keep].pop(eid, None)
                _, _, up, down = edges.pop(eid)
                self.weight *= up + down
                continue
            _, _, up, down = edges[eid]
            edges[eid] = (keep, w, up, down)
            adj[w][eid] = keep
            adj[keep][eid] = w
        if gone in self.terms:
            self.terms.discard(gone)
            self.terms.add(keep)

    def _reduce_locally(self, work: list[int]) -> bool:
        """Series/parallel/degree reductions to a fixpoint, starting from the
        nodes in work; False when some terminal is cut off from the rest."""
        adj, edges, terms = self.adj, self.edges, self.terms
        queued = set(work)

        def push(y: int) -> None:
            if y not in queued:
                queued.add(y)
                work.append(y)

        while work:
            if len(terms) < 2:
                return True
            x = work.pop()
            queued.discard(x)
            inc = adj.get(x)
            if inc is None:
                continue
            by_neighbour: dict[int, int] = {}
            for eid, y in list(inc.items()):
                _, _, up, down = edges[eid]
                if y == x or not up:
                    self._discard(eid)
                    push(y)
                elif not down:
                    self._contract(x, y)
                    push(x)
                    break
                elif y in by_neighbour:
                    # parallel edges: one edge that works when either does
                    f = by_neighbour[y]
                    _, _, up2, down2 = edges[f]
                    keep, gone = min(eid, f), max(eid, f)
                    self._drop(gone)
                    fails = down * down2
                    edges[keep] = (x, y, (up + down) * (up2 + down2) - fails, fails)
                    by_neighbour[y] = keep
                    push(y)
                else:
                    by_neighbour[y] = eid
            else:
                degree = len(inc)
                if x in terms:
                    if degree == 0:
                        return False
                    if degree == 1:
                        # a pendant terminal links up only through its edge
                        ((eid, y),) = inc.items()
                        u, v, up, _ = edges[eid]
                        edges[eid] = (u, v, up, 0)
                        self._contract(y, x)
                        push(y)
                elif degree <= 1:
                    for eid, y in list(inc.items()):
                        self._discard(eid)
                        push(y)
                    del adj[x]
                elif degree == 2:
                    # two edges in series through a non-terminal node
                    (e, a), (f, b) = inc.items()
                    _, _, up, down = self._drop(e)
                    _, _, up2, down2 = self._drop(f)
                    del adj[x]
                    keep = min(e, f)
                    works = up * up2
                    edges[keep] = (a, b, works, (up + down) * (up2 + down2) - works)
                    adj[a][keep] = b
                    adj[b][keep] = a
                    push(a)
                    push(b)
        return True

    def reduce(self) -> bool:
        """Local rules to their fixpoint, one relevance DFS whose irrelevant
        edges leave by their mass, and the local rules again where they left;
        False when the terminals cannot be linked.  A second DFS would prune
        nothing: each edge left lies on a simple path between two terminals,
        and no local rule takes an edge off every such path."""
        if not self._reduce_locally(list(self.adj)):
            return False
        if len(self.terms) < 2:
            return True
        relevant = relevant_edges(self.adj, self.terms)
        if relevant is None:
            return False
        work: list[int] = []
        for eid in [eid for eid in self.edges if eid not in relevant]:
            work.extend(self._discard(eid))
        return self._reduce_locally(work)


def reliability_factoring(g: StochasticGraph) -> Fraction:
    """Contraction/deletion factoring with exact reductions before every branch.

    g is read once as graphs.integer_form, edges keyed by id, an edge
    p = a/d held as (u, v, up, down) = (u, v, a, d - a).  The
    arithmetic is in integers over one common denominator D, the product
    of the edge denominators, as in the enumeration and frontier kernels:
    each subproblem carries an integer weight (see _Subproblem), each leaf
    adds its weight times the masses up + down of the edges it has left,
    and one Fraction(total, D) is built at the end.  Subproblems wait on
    an explicit stack, so the depth of a graph never meets the
    interpreter's recursion limit.  Before it branches,
    each subproblem is reduced to a fixpoint by a worklist of exact local
    rules: loops and p = 0 edges are deleted, p = 1 edges contracted,
    parallel edges merged (their downs multiply), non-terminal degree-2
    nodes spliced out (their ups multiply), non-terminal degree-1 nodes
    dropped, and a degree-1 terminal folded into its neighbour, its edge
    contracted as p = 1 (weight times up), while two or more terminals
    remain.  Then one DFS from the least terminal (see relevant_edges)
    prunes the biconnected blocks off every terminal-to-terminal path, and
    the local rules run once more where it pruned (see _Subproblem.reduce).
    The pivot is an edge touching a terminal with the smallest id; a merged
    edge keeps the smaller of its ids.  Agrees exactly with enumeration
    wherever both run.
    """
    return _factored(integer_form(g))


def conditioned_reliability(
    g: StochasticGraph, boundary: list[str] | tuple[str, ...], a: Partition
) -> Fraction:
    """Reliability of one side after identifying its boundary through a."""
    return _factored(integer_form(g, boundary, a))


def _factored(form: tuple) -> Fraction:
    """The factoring loop of reliability_factoring over an integer form,
    which it leaves as it was: the subproblems reduce copies of its edges
    and terminals in place.  At a branch the subproblem itself becomes the
    child in which the pivot fails, so only the other child is built."""
    _, edges, terms, denom = form
    stack = [_Subproblem(1, {eid: (u, v, up, down) for eid, u, v, up, down in edges}, set(terms))]
    total = 0
    while stack:
        sub = stack.pop()
        if not sub.reduce():
            continue
        if len(sub.terms) < 2:
            leaf = sub.weight
            for _, _, up, down in sub.edges.values():
                leaf *= up + down
            total += leaf
            continue
        pivot = min(eid for t in sub.terms for eid in sub.adj[t])
        u, v, up, down = sub.edges[pivot]
        # contracted by the p = 1 rule, weight times up
        works = _Subproblem(sub.weight, {**sub.edges, pivot: (u, v, up, 0)}, set(sub.terms))
        sub._drop(pivot)
        sub.weight *= down
        stack.append(sub)
        stack.append(works)
    return Fraction(total, denom)

