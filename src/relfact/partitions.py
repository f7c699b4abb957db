"""Set partitions of {1..n}: the connectivity states of a cut boundary.

A partition records which boundary nodes end up linked inside one side of
a decomposition.  This module enumerates the partitions of {1..n}, tells
whether two of them link the boundary into one block, and builds the
coherent linear orders that index the printed connectivity matrices.
Every route that reads the states of a boundary loads it: the cut
factorizations (cut), the boundary-state routes (states) and the
connectivity matrices.  The graph routes, factoring and the counts, do
not, so the value base, MAX_GROUND_SET and the order variants live in base.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .base import MAX_GROUND_SET, ORDER_VARIANTS, Value


def _check_ground_set(n: int) -> None:
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground set size must be in 1..{MAX_GROUND_SET}, got {n}")


class Partition(Value):
    """A set partition of {1..n}, held as its restricted-growth string.

    labels[x-1] is the index of the block holding x, and blocks are numbered
    0, 1, ... in order of their least element, so every partition has one
    label tuple.  The constructor takes blocks in any arrangement and
    rejects those that do not partition 1..n exactly once.  Partitions are
    the keys of every state-indexed dict, so == and hash are written out
    for the one field rather than read through FIELDS.
    """

    __slots__ = FIELDS = ("labels",)
    labels: tuple[int, ...]

    def __init__(self, blocks: Iterable[Iterable[int]]) -> None:
        blocks = [tuple(b) for b in blocks]
        n = sum(map(len, blocks))
        owner = {x: k for k, blk in enumerate(blocks) for x in blk}
        if not blocks or not all(blocks) or set(owner) != set(range(1, n + 1)):
            raise ValueError(f"blocks must partition 1..n exactly once: {tuple(blocks)!r}")
        labels = Partition.from_labels(owner[x] for x in range(1, n + 1)).labels
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def block_count(self) -> int:
        return max(self.labels) + 1

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks, elements ascending inside each, ordered by least element."""
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for x, k in enumerate(self.labels, 1):
            out[k].append(x)
        return tuple(map(tuple, out))

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """Multiset of block sizes, descending; a complete relabeling invariant."""
        return tuple(sorted(map(len, self.blocks), reverse=True))

    @classmethod
    def from_labels(cls, labels: Iterable) -> "Partition":
        """The partition of {1..n}, for n labels, in which i and j share a
        block exactly when the i-th and the j-th label are equal.  Any
        hashable labels will do; they are renumbered 0, 1, ... in order of
        first occurrence, not validated."""
        seen: dict = {}
        p = cls.__new__(cls)
        object.__setattr__(p, "labels", tuple([seen.setdefault(x, len(seen)) for x in labels]))
        return p

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def top(cls, n: int) -> "Partition":
        return cls((tuple(range(1, n + 1)),))

    def __str__(self) -> str:
        return "|".join("".join(str(x) for x in b) for b in self.blocks)

    def __repr__(self) -> str:
        return f"Partition({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Partition:
            return self.labels == other.labels
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.labels,))


def _require_same_ground(a: Partition, b: Partition) -> None:
    if a.n != b.n:
        raise ValueError(f"partitions live on different ground sets: {a.n} vs {b.n}")


@lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple[Partition, ...]:
    """Every set partition of {1..n}, in lexicographic order of label tuples."""
    _check_ground_set(n)
    strings = [(0,)]
    for _ in range(n - 1):
        strings = [s + (k,) for s in strings for k in range(max(s) + 2)]
    return tuple(map(Partition.from_labels, strings))


def _merged(a: Partition, b: Partition) -> list[int]:
    """a's labels, merged along every block of b."""
    _require_same_ground(a, b)
    labels = list(a.labels)
    heads: list[int] = []  # heads[k] is the least element of b's block k
    for x, k in enumerate(b.labels):
        if k == len(heads):
            heads.append(x)
            continue
        keep, gone = labels[heads[k]], labels[x]
        if keep != gone:
            labels = [keep if y == gone else y for y in labels]
    return labels


def is_connected_pair(a: Partition, b: Partition) -> bool:
    """True iff merging both partitions links the whole boundary into one block."""
    return len(set(_merged(a, b))) == 1


class CoherentOrder(Value):
    """A linear order on all partitions of {1..n} extending refinement.

    Finer states always come before coarser ones, so any matrix indexed by
    the order is triangular with respect to refinement.  The states of one
    block-size multiset sit in a contiguous run inside each block-count
    level.  index, each state's position, is derived from states and takes
    no part in == or hash.
    """

    FIELDS = ("n", "variant", "states")
    __slots__ = FIELDS + ("index",)
    n: int
    variant: str
    states: tuple[Partition, ...]
    index: dict[Partition, int]

    def __init__(
        self, n: int, variant: str, states: tuple[Partition, ...], index: dict[Partition, int]
    ) -> None:
        self._set(n, variant, states, index)

    def position(self, p: Partition) -> int:
        return self.index[p]


@lru_cache(maxsize=None)
def coherent_order(n: int, variant: str = "canonical") -> CoherentOrder:
    """Deterministic coherent order: finest level first, then descending
    block sizes, then lexicographic order of the "13|2" text.

    The "reversed-levels" variant reverses the state sequence inside every
    block-count level; states in one level are pairwise incomparable, so the
    result is still coherent.
    """
    _check_ground_set(n)
    if variant not in ORDER_VARIANTS:
        raise ValueError(f"unknown order variant {variant!r}; expected one of {ORDER_VARIANTS}")
    states = sorted(
        all_partitions(n), key=lambda p: (-p.block_count, tuple(-x for x in p.block_sizes), str(p))
    )
    if variant == "reversed-levels":
        # the sort is stable: levels back in place, each one reversed
        states = sorted(reversed(states), key=lambda p: -p.block_count)
    index = {p: i for i, p in enumerate(states)}
    return CoherentOrder(n=n, variant=variant, states=tuple(states), index=index)
