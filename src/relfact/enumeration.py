"""The 2^m enumeration oracle, reliability_bruteforce: a short accumulator
over a bit-parallel kernel, _state_masks, which holds up to 2^16 edge
states as the bits of one int and decides their connectivity at once by a
reachability fixpoint, merging and pruning none.  It checks the one
enumeration bound, base._check_bound, and reads the graph's integer
form (graphs.integer_form), summing integer numerators over one common
denominator into a Fraction once, at the end.  Only reliability --route
bruteforce, factor --verify and verify load it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod
from operator import and_, mul

from .base import _check_bound
from .graphs import StochasticGraph, integer_form

_CHUNK = 16  # low edges: a mask over their states is one int of 2^16 bits


def _products(edges: list[tuple]) -> list[int]:
    """The weight of each state of edges, bit i of the index for edge i."""
    out = [1]
    for _, _, up, down in edges:
        out = [x * down for x in out] + [x * up for x in out]
    return out


def _state_masks(edges: list[tuple]):
    """The bit-parallel kernel of the 2^m oracle, reliability_bruteforce: the
    states of an integer form's edges (graphs.integer_form) as masks,
    (full, mass, states).

    A state's probability is its integer weight, the product of up for
    each working edge and down for each failed one, over the form's D.  The
    first _CHUNK edges with 0 < p < 1 are the low edges: bit s of a mask is
    the state whose up low edges are the set bits of s, full holds all 2^k
    of them, and mass(mask) sums their weights.  The other edges, p in
    {0, 1} among them, are high: states yields each of their states of
    nonzero weight as (weight, ops), where ops lists the operative non-loop
    edges as (u, v, mask of the states where it is up).
    """
    low, high = [], []
    for _, u, v, up, down in edges:
        (low if up and down and len(low) < _CHUNK else high).append((u, v, up, down))
    k = len(low)
    size = 1 << max(k - 3, 0)  # bytes per mask
    full = (1 << (1 << k)) - 1
    ops = []
    for i, (u, v, _, _) in enumerate(low):
        # edge i is up in the states whose bit i is set: a byte pattern
        # for i < 3, runs of 2^(i-3) zero and 0xff bytes above
        pattern = bytes([(0xAA, 0xCC, 0xF0)[i]]) if i < 3 else bytes(1 << (i - 3)) + b"\xff" * (1 << (i - 3))
        if u != v:
            ops.append((u, v, int.from_bytes(pattern * (size // len(pattern)), "little") & full))
    # byte j of a mask holds the states 8j..8j+7: the lowest 3 edges vary
    # inside it, as table[byte] sums; the others are j's bits, split in
    # two small tables, so byte j weighs rows[j // len(cols)] * cols[j % len(cols)]
    table = [0]
    for w in _products(low[:3]):
        table += [x + w for x in table]
    half = (max(k - 3, 0) + 1) // 2
    cols, rows = _products(low[3 : 3 + half]), _products(low[3 + half :])

    def mass(mask: int) -> int:
        data, n = mask.to_bytes(size, "little"), len(cols)
        sums = (sum(map(mul, cols, map(table.__getitem__, data[j : j + n]))) for j in range(0, size, n))
        return sum(map(mul, rows, sums))

    # a high edge is down, or up and operative in every low state
    branches = [
        [(w, [(u, v, full)] if is_up and u != v else []) for is_up, w in ((False, down), (True, up)) if w]
        for u, v, up, down in high
    ]
    states = (
        (prod(w for w, _ in pick), ops + [op for _, more in pick for op in more]) for pick in product(*branches)
    )
    return full, mass, states


def _linked_masks(ops: list[tuple], source: int, full: int) -> dict[int, int]:
    """Per node, the mask of the states in which ops link it to source, by a
    fixpoint over the edges; a node reached in no state is absent."""
    reach = {source: full}
    changed = True
    while changed:
        changed = False
        for u, v, m in ops:
            ru, rv = reach.get(u, 0), reach.get(v, 0)
            if (ru ^ rv) & m:
                x = (ru | rv) & m
                reach[u], reach[v] = ru | x, rv | x
                changed = True
    return reach


def reliability_bruteforce(g: StochasticGraph, bound: int | None = None) -> Fraction:
    """Sum of state probabilities over every terminal-linking state: the
    states in which the least terminal reaches every other."""
    _check_bound(g.edges, bound)
    if len(g.terminals) <= 1:
        return Fraction(1)
    _, edges, terminals, denom = integer_form(g)
    full, mass, states = _state_masks(edges)
    source, *targets = sorted(terminals)
    total = 0
    for weight, ops in states:
        reach = _linked_masks(ops, source, full)
        if linked := reduce(and_, [reach.get(t, 0) for t in targets], full):
            total += weight * mass(linked)
    return Fraction(total, denom)
