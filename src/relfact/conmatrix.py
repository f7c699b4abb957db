"""Connectivity matrices over a coherent partition order, and their exact
inverses built from the sparse integer factor pi.

The matrix A marks which pairs of boundary partitions jointly link the whole
boundary.  Its inverse supplies the bilinear coefficients of the cut
factorization.  B is the matrix of the linear operator on the partition
algebra pi(a) = sum over c >= a of mu(a, c) * c, where mu is the Moebius
function of the partition lattice (Rota 1964): mu(x, y) is the product,
over the blocks of y, of (-1)^(k-1) * (k-1)!, with k the number of blocks
of x inside that block.  This closed form is the product that defines pi
multiplied out: alternating joins over the block-crossing pairs.  B is
triangular with unit diagonal in any coherent order, and it diagonalises A:
B^T * A * B = diag(alpha), with the connectivity numbers
alpha(a) = mu(a, top).  So A^-1 = B * C * D with C = diag(1 / alpha) and
D = B^T, the matrix of the paper's xi(a) = sum over c <= a of mu(c, a) * c
(alternating meets over the one-block splits).  det A is the product of
the alphas, and, B being unimodular, A has the Smith normal form of
diag(|alpha|).

A bundle stores alpha and the inverse; B, C and D are built only when
read.  Every |alpha| = (blocks - 1)! divides L = (n - 1)!, so L * A^-1 is
the integer matrix sum_k (L / alpha_k) * B[:, k] * B[:, k]^T, summed over
the nonzeros of pi alone.  The build checks A * (L * A^-1) = L * I and
symmetry in integers before it returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .linalg import is_symmetric
from .partitions import (
    CoherentOrder,
    Partition,
    Value,
    all_partitions,
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
    """The connectivity matrix of one coherent order with its connectivity
    numbers alpha, one per state, and its exact inverse.  The factors of
    A_inv = B * C * D are views, built on every read."""

    __slots__ = FIELDS = ("order", "A", "alpha", "A_inv")
    order: CoherentOrder
    A: list[list[int]]
    alpha: tuple[int, ...]
    A_inv: list[list[Fraction]]

    def __init__(
        self,
        order: CoherentOrder,
        A: list[list[int]],
        alpha: tuple[int, ...],
        A_inv: list[list[Fraction]],
    ) -> None:
        self._set(order, A, alpha, A_inv)

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def B(self) -> list[list[int]]:
        """The pi expansions column by column: unit lower triangular."""
        m = len(self.alpha)
        out = [[0] * m for _ in range(m)]
        for j, a in enumerate(self.order.states):
            for s, c in pi_vector(a).items():
                out[self.order.position(s)][j] = c
        return out

    @property
    def D(self) -> list[list[int]]:
        """B transposed: column j holds xi(a) = sum over c <= a of
        mu(c, a) * c for the j-th state a."""
        return [list(col) for col in zip(*self.B)]

    @property
    def C(self) -> list[list[Fraction]]:
        """The diagonal factor, holding 1 / alpha."""
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

    Column k of B is the pi expansion of the k-th state, and alpha_k its
    coefficient of the one-block state.  With L = (n - 1)!, each
    w_k = L / alpha_k is an integer, so the inverse is A_inv = M / L for the
    integer matrix M = sum_k w_k * B[:, k] * B[:, k]^T, accumulated over the
    nonzeros of the pi expansions only.  Before anything is returned, M is
    checked in integers: A * M must equal L * I (each entry a sum of the
    entries of M picked out by the ones of A), and M must be symmetric;
    either failure raises RuntimeError.  Boundaries larger than
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
    L = factorial(n - 1)
    top = Partition.top(n)
    alphas = []
    M = [[0] * m for _ in range(m)]
    for a in states:
        pv = pi_vector(a)
        alpha = pv.get(top, 0)
        if alpha == 0 or L % alpha:
            raise RuntimeError(f"connectivity number {alpha} of {a} does not divide {L}")
        alphas.append(alpha)
        w = L // alpha
        col = [(order.position(s), c) for s, c in pv.items()]
        for i, b in col:
            Mi = M[i]
            wb = w * b
            for j, d in col:
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
    return ConnectivityBundle(order=order, A=A, alpha=tuple(alphas), A_inv=A_inv)


def connectivity_matrix_det(n: int) -> int:
    """Determinant of the connectivity matrix over n nodes, in any coherent
    order.  B^T * A * B = diag(alpha) with det B = 1, so det A is the
    product of alpha(a) = mu(a, top) over the partitions a."""
    return prod(_mu(a.block_count) for a in all_partitions(n))
