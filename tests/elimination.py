"""Exact elimination on dense matrices, a test reference: fraction-free
determinant, rational Gauss-Jordan inversion, and Smith normal form over the
integers.

The package reads det A, the Smith form and A^-1 of a connectivity matrix
off its Moebius diagonalisation; these routines know nothing of that
structure, so they are the independent route the closed forms are checked
against.  Everything operates on plain lists of lists holding ints or
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from relfact.linalg import InvariantFactors, abelian_signature


class SingularMatrixError(ValueError):
    pass


def fraction_free_determinant(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by Bareiss elimination (exact)."""
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rational_inverse_oracle(m: Sequence[Sequence]) -> list[list[Fraction]]:
    """Inverse by exact Gauss-Jordan elimination, pivoting on nonzero entries.

    Independent of any structured factorization of the input; used as the
    second route when cross-checking inverses.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    a = [[Fraction(x) for x in row] for row in m]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        piv = a[col][col]
        a[col] = [x / piv for x in a[col]]
        inv[col] = [x / piv for x in inv[col]]
        for i in range(n):
            if i == col or a[i][col] == 0:
                continue
            f = a[i][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
            inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    return inv


def smith_normal_form(m: Sequence[Sequence[int]]) -> InvariantFactors:
    """Smith normal form of a nonsingular square integer matrix.

    Row and column reduction with the smallest-magnitude nonzero pivot and
    Euclidean steps, plus the usual divisibility fix-up so the diagonal
    forms a divisor chain.  Raises SingularMatrixError when the matrix has
    rank below its size.
    """
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    diag: list[int] = []
    for t in range(n):
        while True:
            pivot = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                raise SingularMatrixError("matrix is singular; cokernel has free rank")
            pi, pj = pivot
            a[t], a[pi] = a[pi], a[t]
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            offender = next(
                (i for i in range(t + 1, n) if any(x % p for x in a[i][t + 1 :])),
                None,
            )
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        diag.append(abs(a[t][t]))
    for prev, cur in zip(diag, diag[1:]):
        if cur % prev:
            raise AssertionError(f"diagonal is not a divisor chain: {diag}")
    return InvariantFactors(
        snf_diagonal=tuple(diag),
        torsion_prime_powers=abelian_signature(diag),
    )
