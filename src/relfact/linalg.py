"""Integer invariants of a matrix: the Smith normal form of a diagonal
matrix, with the prime-power torsion signature of its cokernel.

The connectivity matrix A needs no elimination: B^T * A * B = diag(alpha)
with B unimodular (conmatrix), so A and diag(|alpha|) share their Smith
normal form.  Everything operates on plain ints and lists of lists.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

from .base import Value


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


def diagonal_smith_form(entries: Sequence[int]) -> InvariantFactors:
    """Smith normal form of diag(entries), for entries of at least 1.

    Each prime's exponents among the entries are dealt out in ascending
    order to the last factors of the chain, so every d_i divides d_(i+1);
    the cokernel is the direct sum of the Z_entry.
    """
    if any(d < 1 for d in entries):
        raise ValueError("diagonal entries must be positive")
    diag = [1] * len(entries)
    exponents: defaultdict[int, list[int]] = defaultdict(list)
    for d in entries:
        for p, k in _prime_power_factors(d):
            exponents[p].append(k)
    for p, ks in exponents.items():
        for i, k in enumerate(sorted(ks), start=len(diag) - len(ks)):
            diag[i] *= p**k
    return InvariantFactors(snf_diagonal=tuple(diag), torsion_prime_powers=abelian_signature(entries))
