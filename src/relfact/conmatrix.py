"""Connectivity matrices over a coherent partition order, and their exact
inverses built from the sparse integer factors pi and xi.

The matrix A marks which pairs of boundary partitions jointly link the whole
boundary.  Its inverse supplies the bilinear coefficients of the cut
factorization.  B and D are the matrices of two linear operators on the
partition algebra: pi expands a state through alternating joins over the
block-crossing pairs, xi through alternating meets over one-block splits.
Both are triangular with unit diagonal in any coherent order, and
A^-1 = B * C * D with C diagonal, holding the reciprocals of the
connectivity numbers alpha.  A bundle stores alpha, one number per state,
and builds C only when it is read.  Every |alpha| = (blocks - 1)! divides
L = (n - 1)!, so L * A^-1 is the integer matrix sum_k (L / alpha_k) *
B[:, k] * D[k, :], summed over the nonzeros of pi and xi alone.  The build
checks A * (L * A^-1) = L * I and symmetry in integers before it returns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from .linalg import fraction_free_determinant, is_symmetric
from .partitions import (
    CoherentOrder,
    Partition,
    Value,
    coherent_order,
    is_connected_pair,
    join,
    meet,
)

# Sparse vector in the partition algebra: absent entries are 0.
AlgebraVector = dict[Partition, int]


def pair_partition(n: int, i: int, j: int) -> Partition:
    """The partition of {1..n} whose only non-singleton block is {i, j}."""
    return Partition.from_labels(i if x == j else x for x in range(1, n + 1))


def crossing_pairs(a: Partition) -> list[tuple[int, int]]:
    """Unordered pairs of ground elements lying in different blocks of a."""
    return [(i, j) for (i, x), (j, y) in combinations(enumerate(a.labels, 1), 2) if x != y]


def lattice_action(op, p: Partition, vec: AlgebraVector) -> AlgebraVector:
    """Multiply a sparse algebra vector by a basis state in the algebra of
    the lattice operation op (join or meet)."""
    out: AlgebraVector = {}
    for s, c in vec.items():
        t = op(p, s)
        c2 = out.get(t, 0) + c
        if c2:
            out[t] = c2
        elif t in out:
            del out[t]
    return out


def _vec_sub(u: AlgebraVector, v: AlgebraVector) -> AlgebraVector:
    out = dict(u)
    for s, c in v.items():
        c2 = out.get(s, 0) - c
        if c2:
            out[s] = c2
        elif s in out:
            del out[s]
    return out


def pi_vector(a: Partition) -> AlgebraVector:
    """Expansion of pi(a) in the partition basis.

    pi(a) is the product, over every pair {i,j} crossing the blocks of a, of
    (identity - pair_state({i,j})) in the join algebra, applied to a.
    Expanded, that is the signed sum over subsets F of crossing pairs of
    join(a, <F>).  The coefficient of a itself is 1 and all other support is
    strictly coarser, so the matrix of pi is lower triangular with unit
    diagonal in a coherent order.
    """
    vec: AlgebraVector = {a: 1}
    n = a.n
    for i, j in crossing_pairs(a):
        vec = _vec_sub(vec, lattice_action(join, pair_partition(n, i, j), vec))
    return vec


def connectivity_number(a: Partition) -> int:
    """Coefficient of the one-block state in pi(a); magnitude (m-1)! for a
    state with m blocks, and invariant under relabeling."""
    return pi_vector(a).get(Partition.top(a.n), 0)


def cocovers(a: Partition) -> list[Partition]:
    """States obtained from a by splitting exactly one block into two
    non-empty parts: the immediate refinements of a."""
    out = []
    for blk in a.blocks:
        others = blk[1:]
        # the part keeping the block minimum names each split once; the
        # rest of the block moves to a new label
        for r in range(len(others)):
            for keep in combinations(others, r):
                moved = set(others).difference(keep)
                labels = (-1 if x in moved else k for x, k in enumerate(a.labels, 1))
                out.append(Partition.from_labels(labels))
    return out


def xi_vector(a: Partition) -> AlgebraVector:
    """Expansion of xi(a) in the partition basis.

    xi(a) is the product, over the one-block splits c of a, of (a - c) in
    the meet algebra.  Any state strictly below a is annihilated by some
    factor, any state above a fixes the whole vector, the coefficient of a
    itself is 1, and the rest of the support is strictly finer: the matrix
    of xi is upper triangular with unit diagonal in a coherent order.
    """
    vec: AlgebraVector = {a: 1}
    for c in cocovers(a):
        vec = _vec_sub(vec, lattice_action(meet, c, vec))
    return vec


def connectivity_matrix(order: CoherentOrder) -> list[list[int]]:
    """Symmetric 0/1 matrix marking the pairs of states that jointly link
    the whole boundary."""
    states = order.states
    m = len(states)
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            bit = int(is_connected_pair(states[i], states[j]))
            out[i][j] = bit
            out[j][i] = bit
    return out


class ConnectivityBundle(Value):
    """The connectivity matrix of one coherent order with its exact inverse
    and the factors it came from: B, D and the connectivity numbers alpha,
    one per state."""

    __slots__ = FIELDS = ("order", "A", "B", "alpha", "D", "A_inv")
    order: CoherentOrder
    A: list[list[int]]
    B: list[list[int]]
    alpha: tuple[int, ...]
    D: list[list[int]]
    A_inv: list[list[Fraction]]

    def __init__(
        self,
        order: CoherentOrder,
        A: list[list[int]],
        B: list[list[int]],
        alpha: tuple[int, ...],
        D: list[list[int]],
        A_inv: list[list[Fraction]],
    ) -> None:
        self._set(order, A, B, alpha, D, A_inv)

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def C(self) -> list[list[Fraction]]:
        """The diagonal factor of A_inv = B * C * D, holding 1 / alpha;
        built on every read."""
        m = len(self.alpha)
        out = [[Fraction(0)] * m for _ in range(m)]
        for k, a in enumerate(self.alpha):
            out[k][k] = Fraction(1, a)
        return out


# n = 6 (Bell(6) = 203 states) builds in about a second; at n = 7 (877 states)
# the exact check A * M = L * I alone is up to 877^3 ~ 675M multiply-adds.
MAX_BUNDLE_GROUND_SET = 6


def invert_connectivity_matrix(order: CoherentOrder) -> ConnectivityBundle:
    """Assemble A and its exact inverse over the given coherent order.

    B holds the pi expansions column by column, D the xi expansions, and
    alpha the connectivity numbers, the coefficient of the one-block state
    in each pi expansion.  With L = (n - 1)!, each w_k = L / alpha_k is an integer, so the inverse
    is A_inv = M / L for the integer matrix M = sum_k w_k * B[:, k] * D[k, :],
    accumulated over the nonzeros of B and D only.  Before anything is
    returned, M is checked in integers: A * M must equal L * I (each entry a
    sum of the entries of M picked out by the ones of A), and M must be
    symmetric; either failure raises RuntimeError.  Boundaries larger than
    MAX_BUNDLE_GROUND_SET raise ValueError before any work.
    """
    n = order.n
    if n > MAX_BUNDLE_GROUND_SET:
        raise ValueError(
            f"the connectivity inverse is built for boundaries of at most "
            f"{MAX_BUNDLE_GROUND_SET} nodes, got {n}"
        )
    states = order.states
    m = len(states)
    A = connectivity_matrix(order)
    B = [[0] * m for _ in range(m)]
    D = [[0] * m for _ in range(m)]
    alphas = []
    L = factorial(n - 1)
    top = Partition.top(n)
    pi_cols: list[tuple[int, list[tuple[int, int]]]] = []  # (w_k, nonzeros of B[:, k])
    xi_rows: list[list[tuple[int, int]]] = [[] for _ in range(m)]  # nonzeros of D[k, :]
    for j, a in enumerate(states):
        pv = pi_vector(a)
        col = []
        for s, c in pv.items():
            i = order.position(s)
            B[i][j] = c
            col.append((i, c))
        alpha = pv.get(top, 0)
        if alpha == 0 or L % alpha:
            raise RuntimeError(f"connectivity number {alpha} of {a} does not divide {L}")
        alphas.append(alpha)
        pi_cols.append((L // alpha, col))
        for s, c in xi_vector(a).items():
            k = order.position(s)
            D[k][j] = c
            xi_rows[k].append((j, c))
    M = [[0] * m for _ in range(m)]
    for (w, col), row in zip(pi_cols, xi_rows):
        for i, b in col:
            Mi = M[i]
            wb = w * b
            for j, d in row:
                Mi[j] += wb * d
    for i, a_row in enumerate(A):
        # every row of A has a one, in the column of the one-block state
        acc = [sum(col) for col in zip(*[M[k] for k, bit in enumerate(a_row) if bit])]
        acc[i] -= L
        if any(acc):
            raise RuntimeError("B*C*D failed to invert the connectivity matrix")
    if not is_symmetric(M):
        raise RuntimeError("inverse of the connectivity matrix must be symmetric")
    entries = {x: Fraction(x, L) for x in set().union(*M)}  # few distinct values
    A_inv = [[entries[x] for x in row] for row in M]
    return ConnectivityBundle(order=order, A=A, B=B, alpha=tuple(alphas), D=D, A_inv=A_inv)


def connectivity_matrix_det(n: int) -> int:
    """Determinant of the connectivity matrix, by exact fraction-free
    elimination on the canonical order."""
    return fraction_free_determinant(connectivity_matrix(coherent_order(n)))
