"""Set partitions of {1..n}: the connectivity states of a cut boundary.

A partition records which boundary nodes end up linked inside one side of
a decomposition.  This module provides the lattice structure on partitions
(join and meet under the refinement order), the relabeling action of
permutations together with its orbits, and the coherent linear orders that
index connectivity matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

# Bell(8) = 4140 states.  The distribution and joint routes reach this size;
# the connectivity inverse stops at conmatrix.MAX_BUNDLE_GROUND_SET.
MAX_GROUND_SET = 8

ORDER_VARIANTS = ("canonical", "reversed-levels")


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


def _check_ground_set(n: int) -> None:
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground set size must be in 1..{MAX_GROUND_SET}, got {n}")


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..n} in canonical block form.

    Canonical form: elements ascending inside each block, blocks ordered by
    their minimum element.  Any block arrangement passed to the constructor
    is normalized; invalid ground sets are rejected.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.blocks or any(not b for b in self.blocks):
            raise ValueError("blocks must be non-empty")
        blocks = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0]))
        object.__setattr__(self, "blocks", blocks)
        elems = sorted(x for b in blocks for x in b)
        if elems != list(range(1, len(elems) + 1)):
            raise ValueError(f"blocks must partition 1..n exactly once: {self.blocks!r}")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """Multiset of block sizes, descending; a complete relabeling invariant."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    @classmethod
    def from_labels(cls, labels: Iterable) -> "Partition":
        """The partition of {1..n}, for n labels, in which i and j share a
        block exactly when the i-th and the j-th label are equal."""
        blocks: dict = {}
        for x, label in enumerate(labels, 1):
            blocks.setdefault(label, []).append(x)
        return cls(tuple(map(tuple, blocks.values())))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def top(cls, n: int) -> "Partition":
        return cls((tuple(range(1, n + 1)),))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the "13|2" block syntax (single-digit elements)."""
        try:
            blocks = tuple(tuple(int(c) for c in part) for part in text.split("|"))
        except ValueError:
            raise ValueError(f"bad partition syntax: {text!r}") from None
        return cls(blocks)

    def __str__(self) -> str:
        return "|".join("".join(str(x) for x in b) for b in self.blocks)

    def __repr__(self) -> str:
        return f"Partition({str(self)!r})"


def _require_same_ground(a: Partition, b: Partition) -> None:
    if a.n != b.n:
        raise ValueError(f"partitions live on different ground sets: {a.n} vs {b.n}")


@lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple[Partition, ...]:
    """Every set partition of {1..n}, canonical, without duplicates."""
    _check_ground_set(n)

    def extend(k: int) -> list[tuple[tuple[int, ...], ...]]:
        if k == 1:
            return [((1,),)]
        out = []
        for smaller in extend(k - 1):
            out.append(smaller + ((k,),))
            for i, blk in enumerate(smaller):
                out.append(smaller[:i] + (blk + (k,),) + smaller[i + 1 :])
        return out

    return tuple(Partition(blocks) for blocks in extend(n))


def _labels(p: Partition) -> list[int]:
    """labels[x-1] is the index of the block of p holding x."""
    labels = [0] * p.n
    for k, blk in enumerate(p.blocks):
        for x in blk:
            labels[x - 1] = k
    return labels


def join(a: Partition, b: Partition) -> Partition:
    """Finest partition coarser than both: a's block labels, merged along
    every block of b."""
    _require_same_ground(a, b)
    labels = _labels(a)
    for blk in b.blocks:
        merged = {labels[x - 1] for x in blk}
        if len(merged) > 1:
            keep = labels[blk[0] - 1]
            labels = [keep if x in merged else x for x in labels]
    return Partition.from_labels(labels)


def meet(a: Partition, b: Partition) -> Partition:
    """Coarsest partition refining both: two elements share a block exactly
    when they share one in a and one in b."""
    _require_same_ground(a, b)
    return Partition.from_labels(zip(_labels(a), _labels(b)))


def refines(a: Partition, b: Partition) -> bool:
    """True iff every block of a lies inside a block of b (a <= b)."""
    _require_same_ground(a, b)
    owner = _labels(b)
    return all(len({owner[x - 1] for x in blk}) == 1 for blk in a.blocks)


def is_connected_pair(a: Partition, b: Partition) -> bool:
    """True iff merging both partitions links the whole boundary into one block."""
    return join(a, b).block_count == 1


def conjugate(sigma: Sequence[int], a: Partition) -> Partition:
    """Relabel a through the permutation sigma (sigma[i-1] is the image of i)."""
    if sorted(sigma) != list(range(1, a.n + 1)):
        raise ValueError(f"sigma is not a permutation of 1..{a.n}: {sigma!r}")
    return Partition(tuple(tuple(sigma[x - 1] for x in blk) for blk in a.blocks))


@dataclass(frozen=True)
class Orbit:
    """One relabeling class of partitions: all members share a block-size multiset."""

    members: tuple[Partition, ...]
    block_count: int
    signature: tuple[int, ...]

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


@dataclass(frozen=True)
class CoherentOrder:
    """A linear order on all partitions of {1..n} extending refinement.

    Finer states always come before coarser ones, so any matrix indexed by
    the order is triangular with respect to refinement.  Orbit members sit
    in contiguous runs inside each block-count level.
    """

    n: int
    variant: str
    states: tuple[Partition, ...]
    index: dict[Partition, int] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.states)

    def position(self, p: Partition) -> int:
        return self.index[p]


@lru_cache(maxsize=None)
def coherent_order(n: int, variant: str = "canonical") -> CoherentOrder:
    """Deterministic coherent order: finest level first, orbits by descending
    signature, members in lexicographic label order.

    The "reversed-levels" variant reverses the member sequence inside every
    block-count level; states in one level are pairwise incomparable, so the
    result is still coherent.
    """
    _check_ground_set(n)
    if variant not in ORDER_VARIANTS:
        raise ValueError(f"unknown order variant {variant!r}; expected one of {ORDER_VARIANTS}")
    states: list[Partition] = []
    for m in range(n, 0, -1):
        level = [p for o in orbits(n) if o.block_count == m for p in o.members]
        if variant == "reversed-levels":
            level.reverse()
        states.extend(level)
    index = {p: i for i, p in enumerate(states)}
    return CoherentOrder(n=n, variant=variant, states=tuple(states), index=index)
