"""Exact reliability computation by independent routes.

Routes: full state enumeration (the oracle), contraction/deletion factoring
with series/parallel reductions and irrelevant-block pruning, the joint
boundary-state sum, and the bilinear cut factorization through the inverse
connectivity matrix.  All routes work in exact rational arithmetic and must
agree bit for bit; the test suite leans on that equality everywhere.

The two 2^m routes, reliability_bruteforce and state_distribution, stay
the oracle: short accumulators over one bit-parallel kernel, _state_masks,
which holds up to 2^16 edge states as the bits of one int and decides
their connectivity at once by a reachability fixpoint, merging and pruning
none.  The counts, reliability_polynomial here and
cluster.partition_function, are short accumulators over one frontier
kernel, _frontier_walk, which merges equal partial states (Carlier & Lucet
1996; Hardy, Lucet & Limnios 2007), so its work is O(m * states on the
frontier) rather than 2^m.  Both kernels sit behind the same enumeration
bound (_check_bound) and run in integers over one common denominator, the
product of the edge denominators; each route sums integer numerators and
builds its Fractions once, at the end.  Every quantity that factors over a
cut (factorization_detail here and cluster.factorized_dq) goes through one
combine, _cut_factorization.  A CutDecomposition checks itself when it is
built (see graphs), so the cut routes take it as it is; a stranded terminal
never reaches them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import comb, prod
from operator import and_, mul
from typing import Iterable

from .conmatrix import ConnectivityBundle, invert_connectivity_matrix
from .graphs import (
    CutDecomposition,
    Edge,
    StochasticGraph,
    identify_nodes,
    relevant_edges,
)
from .partitions import Partition, Value, coherent_order, is_connected_pair

DEFAULT_ENUMERATION_BOUND = 24


class EnumerationBoundError(ValueError):
    """Too many edges for state enumeration under the current bound."""


def _check_bound(g: StochasticGraph, bound: int | None) -> None:
    """The enumeration bound of every state-counting route: more edges than
    the bound (DEFAULT_ENUMERATION_BOUND when None) raise
    EnumerationBoundError."""
    limit = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if len(g.edges) > limit:
        raise EnumerationBoundError(
            f"{len(g.edges)} edges exceed the enumeration bound {limit}; "
            "raise it with --bound or RELFACT_BOUND"
        )


_CHUNK = 16  # low edges: a mask over their states is one int of 2^16 bits


def _products(edges: list[tuple]) -> list[int]:
    """The weight of each state of edges, bit i of the index for edge i."""
    out = [1]
    for _, _, up, down in edges:
        out = [x * down for x in out] + [x * up for x in out]
    return out


def _state_masks(g: StochasticGraph):
    """The bit-parallel kernel behind the 2^m oracle routes: the edge states
    of g as masks, (index, D, full, mass, states).

    index numbers the nodes in sorted order.  With p_i = a_i/d_i, a state's
    probability is its integer weight prod(a_i or d_i - a_i) over
    D = prod d_i.  The first _CHUNK edges with 0 < p < 1 are the low edges:
    bit s of a mask is the state whose up low edges are the set bits of s,
    full holds all 2^k of them, and mass(mask) sums their weights.  The
    other edges, p in {0, 1} among them, are high: states yields each of
    their states of nonzero weight as (weight, ops), where ops lists the
    operative non-loop edges as (u, v, mask of the states where it is up).
    """
    index = {v: i for i, v in enumerate(sorted(g.nodes))}
    denom = 1
    low, high = [], []
    for e in g.edges:
        a, d = e.prob.numerator, e.prob.denominator
        denom *= d
        (low if 0 < a < d and len(low) < _CHUNK else high).append((index[e.u], index[e.v], a, d - a))
    k = len(low)
    size = 1 << max(k - 3, 0)  # bytes per mask
    full = (1 << (1 << k)) - 1
    ops = []
    for i, (u, v, _, _) in enumerate(low):
        # edge i is up in the states whose bit i is set: a byte pattern
        # for i < 3, runs of 2^(i-3) zero and 0xff bytes above
        pattern = bytes([(0xAA, 0xCC, 0xF0)[i]]) if i < 3 else bytes(1 << (i - 3)) + b"\xff" * (1 << (i - 3))
        if u != v:
            ops.append((u, v, int.from_bytes(pattern * (size // len(pattern)), "little") & full))
    # byte j of a mask holds the states 8j..8j+7: the lowest 3 edges vary
    # inside it, as table[byte] sums; the others are j's bits, split in
    # two small tables, so byte j weighs rows[j // len(cols)] * cols[j % len(cols)]
    table = [0]
    for w in _products(low[:3]):
        table += [x + w for x in table]
    half = (max(k - 3, 0) + 1) // 2
    cols, rows = _products(low[3 : 3 + half]), _products(low[3 + half :])

    def mass(mask: int) -> int:
        data, n = mask.to_bytes(size, "little"), len(cols)
        sums = (sum(map(mul, cols, map(table.__getitem__, data[j : j + n]))) for j in range(0, size, n))
        return sum(map(mul, rows, sums))

    # a high edge is down, or up and operative in every low state
    branches = [
        [(w, [(u, v, full)] if is_up and u != v else []) for is_up, w in ((False, down), (True, up)) if w]
        for u, v, up, down in high
    ]
    states = (
        (prod(w for w, _ in pick), ops + [op for _, more in pick for op in more]) for pick in product(*branches)
    )
    return index, denom, full, mass, states


def _linked_masks(ops: list[tuple], source: int, full: int) -> dict[int, int]:
    """Per node, the mask of the states in which ops link it to source, by a
    fixpoint over the edges; a node reached in no state is absent."""
    reach = {source: full}
    changed = True
    while changed:
        changed = False
        for u, v, m in ops:
            ru, rv = reach.get(u, 0), reach.get(v, 0)
            if (ru ^ rv) & m:
                x = (ru | rv) & m
                reach[u], reach[v] = ru | x, rv | x
                changed = True
    return reach


def _frontier_plan(g: StochasticGraph, terminals: frozenset[str]) -> list[tuple]:
    """The fixed schedule of the frontier kernel, one operation per entry.

    Vertices enter in BFS order: each search starts at the least unvisited
    node name and visits neighbours in name order.  After a vertex enters,
    the edges whose later endpoint it is follow, sorted by earlier endpoint
    and then edge id; then every frontier vertex whose last edge that was
    leaves.  Operations are ("enter", is terminal), ("edge", i, j, edge)
    and ("leave", i), with i and j indices into the frontier, which is the
    same for every state at a given point of the schedule.
    """
    adj: dict[str, set[str]] = {v: set() for v in g.nodes}
    for e in g.edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)
    order: list[str] = []
    pos: dict[str, int] = {}
    for root in sorted(g.nodes):
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
    last = list(range(len(order)))
    for e in g.edges:
        i, j = sorted((pos[e.u], pos[e.v]))
        later[j].append((i, e.id, e))
        last[i] = max(last[i], j)
    plan: list[tuple] = []
    frontier: list[int] = []
    for s, v in enumerate(order):
        frontier.append(s)
        plan.append(("enter", v in terminals))
        for i, _, e in sorted(later[s]):
            plan.append(("edge", frontier.index(i), len(frontier) - 1, e))
        for u in [u for u in frontier if last[u] == s]:
            plan.append(("leave", frontier.index(u)))
            frontier.remove(u)
    return plan


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
    g: StochasticGraph, bound: int | None, weighted: bool, terminals: frozenset[str] | None
) -> tuple[int, dict[int, int]]:
    """The frontier kernel behind the polynomial and cluster counts.

    Checks the bound, then runs _frontier_plan's schedule over states of
    the frontier: the component labels of its vertices as a restricted-
    growth tuple, and one mark per block that holds a terminal.  States
    that become equal merge, so the work is O(m * states on the frontier)
    rather than 2^m.  Each state carries its weights keyed by a count.
    Weights are integers over one common denominator D, as in _state_masks:
    with weighted, an edge p = a/d multiplies by a up and by d - a down and
    D is the product of the d; without, every edge state weighs 1 and D = 1.
    A block that leaves the frontier closes one cluster.

    With terminals, the key is the number of operative edges, and only the
    states that link every terminal count.  When a marked block leaves,
    either it holds every terminal (all have entered and no other block is
    marked) and the state becomes the linked state, which absorbs every
    later edge, or some terminal is cut off and the state dies.  With
    terminals None, the key is the number of closed clusters, and every
    state counts.  Returns D and the summed weights by key, in key order.
    """
    _check_bound(g, bound)
    counting_edges = terminals is not None
    total = len(terminals) if counting_edges else 0
    seen = 0
    denom = 1
    # the state None is the linked state: its frontier no longer matters
    states: dict = {((), ()): {0: 1}}
    for op in _frontier_plan(g, terminals or frozenset()):
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
            _, i, j, e = op
            up = down = 1
            if weighted:
                up, d = e.prob.numerator, e.prob.denominator
                down = d - up
                denom *= d
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
    # every vertex has left, so at most one state remains: the linked state,
    # or with no terminal to mark, the empty frontier
    counts = next(iter(states.values()), {})
    return denom, dict(sorted(counts.items()))


def reliability_bruteforce(g: StochasticGraph, bound: int | None = None) -> Fraction:
    """Sum of state probabilities over every terminal-linking state: the
    states in which the least terminal reaches every other."""
    _check_bound(g, bound)
    if len(g.terminals) <= 1:
        return Fraction(1)
    index, denom, full, mass, states = _state_masks(g)
    source, *targets = sorted(index[t] for t in g.terminals)
    total = 0
    for weight, ops in states:
        reach = _linked_masks(ops, source, full)
        if linked := reduce(and_, [reach.get(t, 0) for t in targets], full):
            total += weight * mass(linked)
    return Fraction(total, denom)


class _Subproblem:
    """One factoring subproblem on integer nodes, reduced in place.

    edges maps an edge id to (u, v, p); adj maps every node to its incident
    edges as {edge id: neighbour}.  Every reduction keeps
    weight * R(edges, terms) equal to the subproblem's share of the answer.
    """

    def __init__(self, weight: Fraction, edges: dict, terms: set[int]) -> None:
        self.weight = weight
        self.edges = edges
        self.terms = terms
        self.adj: dict[int, dict[int, int]] = {t: {} for t in terms}
        for eid, (u, v, _) in edges.items():
            self.adj.setdefault(u, {})[eid] = v
            self.adj.setdefault(v, {})[eid] = u

    def _drop(self, eid: int) -> tuple[int, int]:
        u, v, _ = self.edges.pop(eid)
        del self.adj[u][eid]
        if v != u:
            del self.adj[v][eid]
        return u, v

    def _contract(self, keep: int, gone: int) -> None:
        """Merge node gone into keep; edges between them disappear."""
        adj, edges = self.adj, self.edges
        for eid, w in adj.pop(gone).items():
            if w == gone or w == keep:
                adj[keep].pop(eid, None)
                del edges[eid]
                continue
            edges[eid] = (keep, w, edges[eid][2])
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
                if eid not in inc:
                    continue
                p = edges[eid][2]
                if y == x or p == 0:
                    self._drop(eid)
                    push(y)
                elif p == 1:
                    self._contract(x, y)
                    push(x)
                    break
                elif y in by_neighbour:
                    # parallel edges: one edge that works when either does
                    f = by_neighbour[y]
                    q = edges[f][2]
                    keep, gone = min(eid, f), max(eid, f)
                    self._drop(gone)
                    edges[keep] = (x, y, 1 - (1 - p) * (1 - q))
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
                        self.weight *= edges[eid][2]
                        self._drop(eid)
                        del adj[x]
                        terms.discard(x)
                        terms.add(y)
                        push(y)
                elif degree <= 1:
                    for eid, y in list(inc.items()):
                        self._drop(eid)
                        push(y)
                    del adj[x]
                elif degree == 2:
                    # two edges in series through a non-terminal node
                    (e, a), (f, b) = inc.items()
                    p = edges[e][2] * edges[f][2]
                    self._drop(e)
                    self._drop(f)
                    del adj[x]
                    keep = min(e, f)
                    edges[keep] = (a, b, p)
                    adj[a][keep] = b
                    adj[b][keep] = a
                    push(a)
                    push(b)
        return True

    def reduce(self) -> bool:
        """Local reductions and irrelevant-block pruning to a fixpoint; False
        when the terminals cannot be linked."""
        work = list(self.adj)
        while True:
            if not self._reduce_locally(work):
                return False
            if len(self.terms) < 2:
                return True
            relevant = relevant_edges(
                {x: inc.items() for x, inc in self.adj.items()}, self.terms
            )
            if relevant is None:
                return False
            junk = [eid for eid in self.edges if eid not in relevant]
            if not junk:
                return True
            for eid in junk:
                work.extend(self._drop(eid))


def reliability_factoring(g: StochasticGraph) -> Fraction:
    """Contraction/deletion factoring with exact reductions before every branch.

    g is converted once to integer nodes and (u, v, p) edges keyed by edge
    id.  Subproblems (weight, edges, terminals) wait on an explicit stack,
    so the depth of a graph never meets the interpreter's recursion limit.
    Before it branches, each subproblem is reduced to a fixpoint by a
    worklist of exact rules: loops and p = 0 edges are deleted, p = 1 edges
    contracted, parallel edges merged (1 - (1-p)(1-q)), non-terminal
    degree-2 nodes spliced out (p * q), non-terminal degree-1 nodes dropped,
    a degree-1 terminal folded into its neighbour (weight * p) while two or
    more terminals remain, and blocks off every terminal-to-terminal path
    pruned (see graphs.relevant_edges).  The pivot is an edge touching a
    terminal with the smallest id; a merged edge keeps the smaller of its
    ids.  Agrees exactly with enumeration wherever both run.
    """
    if len(g.terminals) <= 1:
        return Fraction(1)
    index = {v: i for i, v in enumerate(sorted(g.nodes))}
    edges = {e.id: (index[e.u], index[e.v], e.prob) for e in g.edges}
    stack = [(Fraction(1), edges, {index[t] for t in g.terminals})]
    total = Fraction(0)
    while stack:
        sub = _Subproblem(*stack.pop())
        if not sub.reduce():
            continue
        if len(sub.terms) < 2:
            total += sub.weight
            continue
        pivot = min(eid for t in sub.terms for eid in sub.adj[t])
        u, v, p = sub.edges[pivot]
        works = dict(sub.edges)
        works[pivot] = (u, v, Fraction(1))  # contracted by the p = 1 rule
        del sub.edges[pivot]
        stack.append((sub.weight * (1 - p), sub.edges, sub.terms))
        stack.append((sub.weight * p, works, set(sub.terms)))
    return total


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

    def evaluate(self, p: Fraction) -> Fraction:
        p = Fraction(p)
        m = self.edge_count
        return sum(
            (c * p**i * (1 - p) ** (m - i) for i, c in enumerate(self.coefficients)),
            Fraction(0),
        )

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

    def degree(self) -> int:
        mono = self.monomial_coefficients()
        for j in range(len(mono) - 1, -1, -1):
            if mono[j]:
                return j
        return -1

    def leading_coefficient(self) -> int:
        d = self.degree()
        return self.monomial_coefficients()[d] if d >= 0 else 0


def reliability_polynomial(g: StochasticGraph, bound: int | None = None) -> ReliabilityPolynomial:
    """Count terminal-linking states by operative edge count.

    The counts come from the frontier kernel run unweighted, so they ignore
    the edge probabilities: states with a p = 0 or p = 1 edge are counted
    like any other."""
    _, counts = _frontier_walk(g, bound, weighted=False, terminals=g.terminals)
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

    def prob(self, a: Partition) -> Fraction:
        return self.probs.get(a, Fraction(0))


def state_distribution(
    g: StochasticGraph, boundary: list[str] | tuple[str, ...], bound: int | None = None
) -> StateDistribution:
    """Distribution over boundary partitions: labels i and j share a block
    exactly when the operative edges join boundary[i-1] to boundary[j-1]."""
    boundary = tuple(boundary)
    for b in boundary:
        if b not in g.nodes:
            raise ValueError(f"boundary node {b!r} not in graph")
    _check_bound(g, bound)
    index, denom, full, mass, states = _state_masks(g)
    bix = [index[b] for b in boundary]
    acc: dict[tuple[int, ...], int] = {}
    for weight, ops in states:
        # the last boundary node opens no block that a later one could join
        reach = [_linked_masks(ops, b, full) for b in bix[:-1]]
        split = [((), full)]
        for b in bix:
            nxt = []
            for labels, mask in split:
                # b joins the block of the first earlier node it reaches, or opens one
                firsts = [labels.index(c) for c in range(len(set(labels)))]
                for c, f in enumerate(firsts):
                    sub = mask & reach[f].get(b, 0)
                    if sub:
                        nxt.append((labels + (c,), sub))
                        mask ^= sub
                if mask:
                    nxt.append((labels + (len(firsts),), mask))
            split = nxt
        for labels, mask in split:
            acc[labels] = acc.get(labels, 0) + weight * mass(mask)
    probs = {Partition.from_labels(key): Fraction(w, denom) for key, w in acc.items()}
    return StateDistribution(boundary=boundary, probs=probs)


def joint_reliability(d1: StateDistribution, d2: StateDistribution) -> Fraction:
    """Mass of the pairs of side states that jointly link the boundary.

    This is the quadratic pre-factorization route: it sums P1(A) * P2(B)
    over connected pairs rather than going through the inverse matrix.
    """
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


def conditioned_reliability(
    g: StochasticGraph, boundary: list[str] | tuple[str, ...], a: Partition
) -> Fraction:
    """Reliability of one side after identifying its boundary through a."""
    return reliability_factoring(identify_nodes(g, tuple(boundary), a))


def ordered_parallel_map(fn, tasks, jobs: int = 1) -> list:
    """Deterministic map: results come back in task order regardless of the
    worker count, so parallel and sequential runs are bitwise identical.
    The pool starts no more workers than there are tasks."""
    if jobs > 1 and len(tasks) > 1:
        # imported here: the pool pulls in multiprocessing, which a
        # single-process run never needs to load
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as ex:
            return list(ex.map(fn, tasks))
    return [fn(t) for t in tasks]


class FactorizationResult(Value):
    """The factorized value with the bundle it was combined through and each
    side's value per boundary partition, in the bundle's order."""

    __slots__ = FIELDS = ("bundle", "side1", "side2", "value")
    bundle: ConnectivityBundle
    side1: tuple[Fraction, ...]
    side2: tuple[Fraction, ...]
    value: Fraction

    def __init__(
        self,
        bundle: ConnectivityBundle,
        side1: tuple[Fraction, ...],
        side2: tuple[Fraction, ...],
        value: Fraction,
    ) -> None:
        self._set(bundle, side1, side2, value)

    def side_reliabilities(self) -> tuple[dict[Partition, Fraction], dict[Partition, Fraction]]:
        states = self.bundle.order.states
        return (
            dict(zip(states, self.side1)),
            dict(zip(states, self.side2)),
        )


def _side_task(task) -> Fraction:
    solve, g, boundary, a = task
    return solve(g, boundary, a)


def _cut_factorization(
    d: CutDecomposition,
    variant: str,
    bundle: ConnectivityBundle | None,
    jobs: int,
    solve,
) -> FactorizationResult:
    """The factorization combine, shared by every quantity that factors.

    solve(g, boundary, a) is one side's value after its boundary is
    identified through a.  The 2 * Bell(n) side solves are independent and
    run through the deterministic parallel map; the bilinear combination
    sum_ij A_inv[i][j] * r1[i] * r2[j] runs in fixed index order.  solve
    must be picklable (a module-level function or a partial of one) when
    jobs > 1.
    """
    n = d.n
    if bundle is None:
        bundle = invert_connectivity_matrix(coherent_order(n, variant))
    if bundle.n != n:
        raise ValueError(f"bundle is for boundary size {bundle.n}, decomposition has {n}")
    states = bundle.order.states
    tasks = [(solve, g, d.boundary, a) for g in (d.g1, d.g2) for a in states]
    vals = ordered_parallel_map(_side_task, tasks, jobs)
    r1 = tuple(vals[: len(states)])
    r2 = tuple(vals[len(states) :])
    value = Fraction(0)
    for row, x in zip(bundle.A_inv, r1):
        if x:
            for b, y in zip(row, r2):
                if y:
                    value += b * x * y
    return FactorizationResult(bundle=bundle, side1=r1, side2=r2, value=value)


def factorization_detail(
    d: CutDecomposition,
    variant: str = "canonical",
    bundle: ConnectivityBundle | None = None,
    jobs: int = 1,
) -> FactorizationResult:
    """Exact reliability of the union graph via the cut factorization, with
    the per-partition side reliabilities exposed; each side is solved by
    conditioned_reliability (see _cut_factorization)."""
    return _cut_factorization(d, variant, bundle, jobs, conditioned_reliability)


def n2_closed_form(d: CutDecomposition) -> Fraction:
    """Three-term inclusion-exclusion for a two-node boundary.

    With hats marking the sides whose two boundary nodes are identified:
    R = R(G1) * R(G2^) + R(G1^) * R(G2) - R(G1) * R(G2).  Taking the same
    node twice as the boundary degenerates it to the articulation-point
    product R(G1) * R(G2).
    """
    if d.n != 2:
        raise ValueError(f"closed form needs a boundary of size 2, got {d.n}")
    bottom = Partition.singletons(2)
    top = Partition.top(2)
    r1 = conditioned_reliability(d.g1, d.boundary, bottom)
    r2 = conditioned_reliability(d.g2, d.boundary, bottom)
    r1_hat = conditioned_reliability(d.g1, d.boundary, top)
    r2_hat = conditioned_reliability(d.g2, d.boundary, top)
    return r1 * r2_hat + r1_hat * r2 - r1 * r2


def gamma_graph(n: int, a: Partition, p: Fraction = Fraction(1, 2)) -> StochasticGraph:
    """Complete graph on n nodes with equal edge probability p, its nodes
    identified through a, and every resulting node terminal."""
    if a.n != n:
        raise ValueError(f"partition of {a.n} labels for a {n}-node graph")
    names = tuple(str(i) for i in range(1, n + 1))
    edges = tuple(
        Edge(k + 1, names[i - 1], names[j - 1], p)
        for k, (i, j) in enumerate(combinations(range(1, n + 1), 2))
    )
    base = StochasticGraph(nodes=frozenset(names), edges=edges, terminals=frozenset(names))
    out = identify_nodes(base, names, a)
    return StochasticGraph(nodes=out.nodes, edges=out.edges, terminals=out.nodes)
