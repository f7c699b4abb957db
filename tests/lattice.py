"""The partition-lattice and graph helpers that only the tests and scripts
call, a test reference: Bell numbers, the "13|2" partition syntax, join,
meet and the refinement order, the relabeling action of permutations with
its orbits, the pathset test of one edge state, the diagonal factor C of a
connectivity bundle and the determinant of the connectivity matrix, a
graph with its boundary nodes identified through a partition, the
identified complete graphs with the leading term of their polynomials, the
values of the reliability and cluster polynomials at a point, one state's
probability, and an edge's endpoints and loop test.

The package reaches none of them: is_connected_pair reads the merged
labels without building the join, a coherent order sorts the partitions by
block sizes directly, the factorizations read alpha in closed form, a side
solve identifies its boundary in the integer form it reads rather than in
a new graph, and is_k_connected reads the components of the whole graph.
The tests check the package's routes against these independent
definitions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Iterable, Mapping, Sequence

from relfact.base import Value
from relfact.cluster import ClusterPolynomial
from relfact.conmatrix import ConnectivityBundle, _mu
from relfact.graphs import Edge, GraphError, StochasticGraph, UnionFind
from relfact.partitions import Partition, _merged, _require_same_ground, all_partitions
from relfact.states import ReliabilityPolynomial, StateDistribution


def bell_number(n: int) -> int:
    """Count of set partitions of an n-set, by the Bell-triangle recurrence."""
    if n < 0:
        raise ValueError("n must be non-negative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def parse_partition(text: str) -> Partition:
    """Parse the "13|2" block syntax (single-digit elements)."""
    try:
        blocks = tuple(tuple(int(c) for c in part) for part in text.split("|"))
    except ValueError:
        raise ValueError(f"bad partition syntax: {text!r}") from None
    return Partition(blocks)


def join(a: Partition, b: Partition) -> Partition:
    """Finest partition coarser than both."""
    return Partition.from_labels(_merged(a, b))


def meet(a: Partition, b: Partition) -> Partition:
    """Coarsest partition refining both: two elements share a block exactly
    when they share one in a and one in b."""
    _require_same_ground(a, b)
    return Partition.from_labels(zip(a.labels, b.labels))


def refines(a: Partition, b: Partition) -> bool:
    """True iff every block of a lies inside a block of b (a <= b): each
    label of a always meets the same label of b."""
    _require_same_ground(a, b)
    owner: dict[int, int] = {}
    return all(owner.setdefault(i, j) == j for i, j in zip(a.labels, b.labels))


def conjugate(sigma: Sequence[int], a: Partition) -> Partition:
    """Relabel a through the permutation sigma (sigma[i-1] is the image of i)."""
    if sorted(sigma) != list(range(1, a.n + 1)):
        raise ValueError(f"sigma is not a permutation of 1..{a.n}: {sigma!r}")
    return Partition(tuple(tuple(sigma[x - 1] for x in blk) for blk in a.blocks))


class Orbit(Value):
    """One relabeling class of partitions: all members share a block-size multiset."""

    __slots__ = FIELDS = ("members", "block_count", "signature")
    members: tuple[Partition, ...]
    block_count: int
    signature: tuple[int, ...]

    def __init__(
        self, members: tuple[Partition, ...], block_count: int, signature: tuple[int, ...]
    ) -> None:
        self._set(members, block_count, signature)

    @property
    def size(self) -> int:
        return len(self.members)


@lru_cache(maxsize=None)
def orbits(n: int) -> tuple[Orbit, ...]:
    """Relabeling classes of the partitions of {1..n}.

    Grouping is by block-size multiset, which is a complete invariant for
    the permutation action on set partitions.  Orbits come out in the same
    sequence the canonical coherent order uses: levels of decreasing block
    count, then descending signature.
    """
    groups: dict[tuple[int, ...], list[Partition]] = {}
    for p in all_partitions(n):
        groups.setdefault(p.block_sizes, []).append(p)
    out = []
    for sig in sorted(groups, key=lambda s: (-len(s), tuple(-x for x in s))):
        members = tuple(sorted(groups[sig], key=str))
        out.append(Orbit(members=members, block_count=len(sig), signature=sig))
    return tuple(out)


def is_k_pathset(g: StochasticGraph, state: Mapping[int, int]) -> bool:
    """True iff the operative edges of the state link all terminals together."""
    if set(state) != set(g.edge_ids):
        raise GraphError("state domain must equal the graph's edge-id set")
    if len(g.terminals) <= 1:
        return True
    uf = UnionFind(g.nodes)
    for e in g.edges:
        if state[e.id]:
            uf.union(e.u, e.v)
    root = None
    for t in g.terminals:
        r = uf.find(t)
        if root is None:
            root = r
        elif r != root:
            return False
    return True


def diagonal_factor(bundle: ConnectivityBundle) -> list[list[Fraction]]:
    """The diagonal factor C of A_inv = B * C * D, holding 1 / alpha."""
    m = len(bundle.alpha)
    out = [[Fraction(0)] * m for _ in range(m)]
    for k, a in enumerate(bundle.alpha):
        out[k][k] = Fraction(1, a)
    return out


def identify_nodes(g: StochasticGraph, boundary: Iterable[str], a: Partition) -> StochasticGraph:
    """Merge boundary nodes that share a block of a, transitively (a boundary
    may list a node twice), and name each merged node after one of its
    members; everything else is mapped through the quotient.  All edges are
    retained (loops included).  The reference of graphs.integer_form's
    identification: the kernels read a side identified there, and the
    tests solve the graph built here."""
    boundary = tuple(boundary)
    if a.n != len(boundary):
        raise GraphError(f"partition of {a.n} labels against boundary of size {len(boundary)}")
    for x in boundary:
        if x not in g.nodes:
            raise GraphError(f"boundary node {x!r} not in graph")
    uf = UnionFind(boundary)
    for blk in a.blocks:
        for i in blk[1:]:
            uf.union(boundary[i - 1], boundary[blk[0] - 1])
    rename = {x: uf.find(x) for x in boundary}

    def q(x: str) -> str:
        return rename.get(x, x)

    return StochasticGraph(
        nodes=frozenset(q(x) for x in g.nodes),
        edges=tuple(Edge(e.id, q(e.u), q(e.v), e.prob) for e in g.edges),
        terminals=frozenset(q(t) for t in g.terminals),
    )


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


def leading_term(poly: ReliabilityPolynomial) -> tuple[int, int]:
    """The degree of R(p) expanded in powers of p and its coefficient there;
    (-1, 0) for the zero polynomial."""
    mono = poly.monomial_coefficients()
    for j in range(len(mono) - 1, -1, -1):
        if mono[j]:
            return j, mono[j]
    return -1, 0


def connectivity_matrix_det(n: int) -> int:
    """Determinant of the connectivity matrix over n nodes, in any coherent
    order.  B^T * A * B = diag(alpha) with det B = 1, so det A is the
    product of alpha(a) = mu(a, top) over the partitions a."""
    return prod(_mu(a.block_count) for a in all_partitions(n))


def evaluate_polynomial(poly: ReliabilityPolynomial, p: Fraction) -> Fraction:
    """R(p) = sum_i C_i p^i (1-p)^(m-i) at one edge probability p."""
    p = Fraction(p)
    m = poly.edge_count
    return sum(
        (c * p**i * (1 - p) ** (m - i) for i, c in enumerate(poly.coefficients)),
        Fraction(0),
    )


def evaluate_cluster(z: ClusterPolynomial, q: Fraction) -> Fraction:
    """Z(q) = sum_k w_k q^k at one q."""
    q = Fraction(q)
    return sum((w * q**k for k, w in z.coeffs.items()), Fraction(0))


def state_prob(dist: StateDistribution, a: Partition) -> Fraction:
    """The probability of boundary state a; 0 for a state the side never induces."""
    return dist.probs.get(a, Fraction(0))


def is_loop(e: Edge) -> bool:
    return e.u == e.v


def endpoints(e: Edge) -> tuple[str, str]:
    return (e.u, e.v)
