"""Exact matrix routines: fraction-free determinant, rational Gauss-Jordan
inversion, and Smith normal form over the integers.

Everything operates on plain lists of lists holding ints or Fractions.  The
package calls these on connectivity matrices of up to Bell(6) = 203 states:
determinant and Smith form in integers, and the rational elimination only as
an independent cross-check of the inverse built in conmatrix.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence

from .partitions import Value


class SingularMatrixError(ValueError):
    pass


def is_symmetric(m: Sequence[Sequence]) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


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


class InvariantFactors(Value):
    """Diagonal of the Smith normal form plus the torsion it encodes.

    snf_diagonal is the full divisor chain d_1 | d_2 | ... | d_m (all
    non-negative).  torsion_prime_powers lists (prime, exponent,
    multiplicity) for the cyclic prime-power summands of the cokernel,
    i.e. the abelian-group signature of the quotient lattice.
    """

    __slots__ = FIELDS = ("snf_diagonal", "torsion_prime_powers")
    snf_diagonal: tuple[int, ...]
    torsion_prime_powers: tuple[tuple[int, int, int], ...]

    def __init__(
        self, snf_diagonal: tuple[int, ...], torsion_prime_powers: tuple[tuple[int, int, int], ...]
    ) -> None:
        self._set(snf_diagonal, torsion_prime_powers)

    @property
    def determinant_magnitude(self) -> int:
        out = 1
        for d in self.snf_diagonal:
            out *= d
        return out


def _prime_power_factors(d: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            k = 0
            while d % p == 0:
                d //= p
                k += 1
            out.append((p, k))
        p += 1
    if d > 1:
        out.append((d, 1))
    return out


def abelian_signature(cyclic_orders: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
    """Prime-power multiset of a direct sum of cyclic groups Z_d.

    Two finite abelian groups are isomorphic exactly when these multisets
    agree, so the signature is the right thing to compare across different
    cyclic decompositions.
    """
    counts: Counter[tuple[int, int]] = Counter()
    for d in cyclic_orders:
        if d < 0:
            raise ValueError("cyclic orders must be non-negative")
        if d in (0, 1):
            continue
        for p, k in _prime_power_factors(d):
            counts[(p, k)] += 1
    return tuple((p, k, mult) for (p, k), mult in sorted(counts.items()))


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
