"""Connectivity matrices over a coherent partition order, their exact
inverses, and the bilinear form of the cut factorization, all from the
sparse integer factor pi.

The matrix A marks which pairs of boundary partitions jointly link the whole
boundary.  The cut factorization combines the two sides' vectors as
r1^T * A^-1 * r2.  B is the matrix of the linear operator on the partition
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

Every |alpha| = (blocks - 1)! divides L = (n - 1)!, so L * A^-1 is the
integer matrix sum over a of (L / alpha(a)) * pi(a) * pi(a)^T, summed over
the nonzeros of pi alone.  _inverse_terms yields those terms, and both
readers of A^-1 sum over it: inverse_form reads r1^T * A^-1 * r2 off it,
with no order and no dense matrix, and the bundle, which the CLI prints,
builds the dense inverse from it and checks A * (L * A^-1) = L * I in
integers before it returns.  The bundle stores alpha and the inverse; B
and D are built only when read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from typing import Iterable, Iterator

from .base import Value
from .partitions import CoherentOrder, Partition, all_partitions, is_connected_pair

# Sparse vector in the partition algebra: absent entries are 0.
AlgebraVector = dict[Partition, int]


def _mu(k: int) -> int:
    """The Moebius function of the lattice of partitions of a k-set, from
    its bottom to its top: (-1)^(k-1) * (k-1)!."""
    return (-1) ** (k - 1) * factorial(k - 1)


@lru_cache(maxsize=None)
def _mu_from_bottom(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each partition q of a k-set, as its labels, with mu(bottom, q): the
    product, over q's blocks, of _mu of the block's size."""
    return tuple((q.labels, prod(map(_mu, q.block_sizes))) for q in all_partitions(k))


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
    terms = _mu_from_bottom(a.block_count)
    return {Partition.from_labels(map(q.__getitem__, a.labels)): c for q, c in terms}


def connectivity_number(a: Partition) -> int:
    """Coefficient of the one-block state in pi(a): alpha(a) = mu(a, top),
    of magnitude (m-1)! for a state with m blocks, and invariant under
    relabeling."""
    return _mu(a.block_count)


def _inverse_terms(states: Iterable[Partition], L: int) -> Iterator[tuple[AlgebraVector, int]]:
    """pi(a) and the integer L / alpha(a) for each state a, L = (n - 1)!:
    the terms of L * A^-1 = B * diag(L / alpha) * B^T, yielded one by one."""
    for a in states:
        yield pi_vector(a), L // connectivity_number(a)


def inverse_form(r1: dict[Partition, Fraction], r2: dict[Partition, Fraction]) -> Fraction:
    """r1^T * A^-1 * r2 for two vectors over every partition of {1..n}:
    as A^-1 = B * diag(1 / alpha) * B^T, the sum over a of
    <pi(a), r1> * <pi(a), r2> / alpha(a), the same in every coherent order.
    It is summed in integers, each vector over its common denominator and
    each term times L / alpha(a); one Fraction is built."""
    d1 = lcm(*(x.denominator for x in r1.values()))
    d2 = lcm(*(x.denominator for x in r2.values()))
    n1 = {a: x.numerator * (d1 // x.denominator) for a, x in r1.items()}
    n2 = {a: x.numerator * (d2 // x.denominator) for a, x in r2.items()}
    L = factorial(next(iter(r1)).n - 1)
    total = 0
    for pv, w in _inverse_terms(r1, L):
        x = sum([c * n1[s] for s, c in pv.items()])
        if x:
            total += x * sum([c * n2[s] for s, c in pv.items()]) * w
    return Fraction(total, L * d1 * d2)


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
    numbers alpha, one per state, and its exact inverse.  The factors B
    and D = B^T of A_inv = B * C * D are views, built on every read."""

    __slots__ = FIELDS = ("order", "A", "alpha", "A_inv")
    order: CoherentOrder
    A: list[list[int]]
    alpha: tuple[int, ...]
    A_inv: list[list[Fraction]]

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


# n = 6 (Bell(6) = 203 states) builds in ~0.2 s in process (Python 3.11, 2-core
# Xeon); at n = 7 (877 states) the check A * M = L * I alone is ~675M multiply-adds.
MAX_BUNDLE_GROUND_SET = 6


def invert_connectivity_matrix(order: CoherentOrder) -> ConnectivityBundle:
    """Assemble A and its exact inverse over the given coherent order.

    The inverse is A_inv = M / L for the integer matrix M summed over
    _inverse_terms, accumulated over the nonzeros of the pi expansions
    only.  Before anything is returned, M is checked in integers: A * M
    must equal L * I (each entry a sum of the entries of M picked out by
    the ones of A), else RuntimeError.  That one check suffices: A is
    symmetric, so its unique inverse M / L is too.  Boundaries larger than
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
    M = [[0] * m for _ in range(m)]
    for pv, w in _inverse_terms(states, L):
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
    entries = {x: Fraction(x, L) for x in set().union(*M)}  # few distinct values
    A_inv = [[entries[x] for x in row] for row in M]
    return ConnectivityBundle(order=order, A=A, alpha=tuple(map(connectivity_number, states)), A_inv=A_inv)

