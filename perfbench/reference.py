"""A fixed computation that measures how fast the machine is right now.

The timed run spawns this script between invocations, about once per
second of invocation time, and reports the workload's times as multiples
of its median time (see run.py).  The machine the benchmark was tuned on is
a share of a busy host whose speed drifts by 20-40% over tens of seconds
and minutes.  CPU time drifts with wall time, so the drift is not queueing,
and a longer run does not average it out.  A time divided by the time of a
fixed computation run in the same minutes keeps the program's own cost and
loses most of the drift.

The work resembles relfact's: exact ``Fraction`` arithmetic, a
contraction/deletion recursion that rebuilds small graphs held in tuples
and frozensets, and a dense rational matrix product whose entries grow.
It does not import ``relfact`` and takes no input, so no change to the
package or to the seed can change it.  Run it as
``python3 perfbench/reference.py``; it prints the two results it computed,
which never change.
"""

from __future__ import annotations

from fractions import Fraction

# A 2x6 grid: edges (u, v, p) with p = (1 + (u * v) % 7) / 9, terminals at
# opposite corners.  The recursion and the matrix products take about 0.1 s
# each on the machine the benchmark was tuned on, so that many runs fit in
# one benchmark run.
ROWS, COLS = 2, 6
MATRIX_SIZE = 18
MATRIX_PRODUCTS = 3


def grid() -> tuple[tuple[tuple[int, int, Fraction], ...], frozenset[int]]:
    edges = []
    for r in range(ROWS):
        for c in range(COLS):
            u = r * COLS + c
            for v in ((u + 1) if c + 1 < COLS else None, (u + COLS) if r + 1 < ROWS else None):
                if v is not None:
                    edges.append((u, v, Fraction(1 + (u * v) % 7, 9)))
    return tuple(edges), frozenset({0, ROWS * COLS - 1})


def linked(edges, terminals) -> bool:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for u, v, _ in edges:
        parent[find(u)] = find(v)
    return len({find(t) for t in terminals}) == 1


def factoring(edges, terminals) -> Fraction:
    """Two-terminal reliability by contracting or deleting the first edge."""
    if len(terminals) <= 1:
        return Fraction(1)
    if not linked(edges, terminals):
        return Fraction(0)
    (u, v, p), rest = edges[0], edges[1:]
    merged = tuple((v if a == u else a, v if b == u else b, q) for a, b, q in rest)
    merged = tuple(e for e in merged if e[0] != e[1])
    joined = frozenset(v if t == u else t for t in terminals)
    return p * factoring(merged, joined) + (1 - p) * factoring(rest, terminals)


def matrix_work() -> Fraction:
    """An entry of A^(1 + MATRIX_PRODUCTS) for a fixed rational matrix A."""
    n = MATRIX_SIZE
    a = [[Fraction((i * n + j) % 11 - 5, 1 + (i + 2 * j) % 7) for j in range(n)] for i in range(n)]
    b = a
    for _ in range(MATRIX_PRODUCTS):
        b = [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
    return b[0][0]


def main() -> None:
    edges, terminals = grid()
    print(factoring(edges, terminals), matrix_work())


if __name__ == "__main__":
    main()
