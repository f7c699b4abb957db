"""Connectivity matrices over a coherent partition order, and their exact
inverses built from the sparse integer factors pi and xi.

The matrix A marks which pairs of boundary partitions jointly link the whole
boundary.  Its inverse supplies the bilinear coefficients of the cut
factorization.  B and D are the matrices of two linear operators on the
partition algebra, pi(a) = sum over c >= a of mu(a, c) * c and
xi(a) = sum over c <= a of mu(c, a) * c, where mu is the Moebius function
of the partition lattice (Rota 1964): mu(x, y) is the product, over the
blocks of y, of (-1)^(k-1) * (k-1)!, with k the number of blocks of x
inside that block.  These closed forms are the products that define pi and
xi multiplied out: alternating joins over the block-crossing pairs, and
alternating meets over the one-block splits.  So D is the transpose of B;
both are triangular with unit diagonal in any coherent order, and
A^-1 = B * C * D with C diagonal, holding the reciprocals of the
connectivity numbers alpha.  A bundle stores alpha, one number per state,
and builds C only when it is read.  Every |alpha| = (blocks - 1)! divides
L = (n - 1)!, so L * A^-1 is the integer matrix sum_k (L / alpha_k) *
B[:, k] * D[k, :], summed over the nonzeros of pi and xi alone.  The build
checks A * (L * A^-1) = L * I and symmetry in integers before it returns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, prod

from .linalg import fraction_free_determinant, is_symmetric
from .partitions import (
    CoherentOrder,
    Partition,
    Value,
    all_partitions,
    coherent_order,
    is_connected_pair,
)

# Sparse vector in the partition algebra: absent entries are 0.
AlgebraVector = dict[Partition, int]


def _mu(k: int) -> int:
    """The Moebius function of the lattice of partitions of a k-set, from
    its bottom to its top: (-1)^(k-1) * (k-1)!."""
    return (-1) ** (k - 1) * factorial(k - 1)


def pi_vector(a: Partition) -> AlgebraVector:
    """Expansion of pi(a) = sum over c >= a of mu(a, c) * c.

    Each partition q of a's blocks merges them into one c, and
    mu(a, c) = prod over q's blocks, of size s, of (-1)^(s-1) * (s-1)!.
    This is the product, over every pair {i,j} crossing the blocks of a, of
    (identity - pair_state({i,j})) in the join algebra, applied to a.  The
    coefficient of a itself is 1 and all other support is strictly coarser,
    so the matrix of pi is lower triangular with unit diagonal in a
    coherent order.
    """
    return {
        Partition.from_labels([q.labels[k] for k in a.labels]): prod(map(_mu, q.block_sizes))
        for q in all_partitions(a.block_count)
    }


def connectivity_number(a: Partition) -> int:
    """Coefficient of the one-block state in pi(a); magnitude (m-1)! for a
    state with m blocks, and invariant under relabeling."""
    return pi_vector(a).get(Partition.top(a.n), 0)


def xi_vector(a: Partition) -> AlgebraVector:
    """Expansion of xi(a) = sum over c <= a of mu(c, a) * c.

    Each choice of a partition of every block of a splits it into one c,
    and mu(c, a) = prod over a's blocks of (-1)^(j-1) * (j-1)!, with j the
    number of parts the block splits into.  This is the product, over the
    one-block splits c of a, of (a - c) in the meet algebra.  The
    coefficient of a itself is 1 and the rest of the support is strictly
    finer: the matrix of xi is upper triangular with unit diagonal in a
    coherent order, the transpose of the matrix of pi.
    """
    blocks = a.blocks
    labels: list[tuple[int, int]] = [(0, 0)] * a.n
    out: AlgebraVector = {}
    for splits in product(*(all_partitions(len(blk)) for blk in blocks)):
        for k, (blk, q) in enumerate(zip(blocks, splits)):
            for x, j in zip(blk, q.labels):
                labels[x - 1] = (k, j)
        out[Partition.from_labels(labels)] = prod(_mu(q.block_count) for q in splits)
    return out


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
