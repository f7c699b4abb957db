"""Independent answer checks and failure classification.

Nothing here imports ``relfact``: the closed forms, the state enumeration
and the partition join are the benchmark's own, so a defect in the package
cannot hide itself by also breaking the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

TRACEBACK_MARK = "Traceback (most recent call last)"

# Failure kinds.  WRONG and BYTES mean the program printed something it
# should not have; they make a run incorrect.  The other kinds count as
# failed invocations but say nothing false about the answers printed.
EXIT, TRACEBACK, TIMEOUT, WRONG, BYTES, UNCHECKED = (
    "exit",
    "traceback",
    "timeout",
    "wrong",
    "bytes",
    "unchecked",
)
INCORRECT_KINDS = frozenset({WRONG, BYTES})


@dataclass(frozen=True)
class Failure:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def classify(returncode: int | None, stderr: str, timed_out: bool = False) -> Failure | None:
    """Failure of one invocation judged from its exit and stderr alone."""
    if timed_out:
        return Failure(TIMEOUT, "killed at the run deadline")
    if TRACEBACK_MARK in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return Failure(TRACEBACK, last[:200])
    if returncode != 0:
        return Failure(EXIT, f"exit code {returncode}")
    return None


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# -- closed forms --------------------------------------------------------------


def path_reliability(probs: list[Fraction]) -> Fraction:
    """Two end terminals of a path: every edge must work."""
    out = Fraction(1)
    for p in probs:
        out *= p
    return out


def necklace_reliability(beads: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Series of parallel pairs: each bead works unless both edges fail."""
    out = Fraction(1)
    for p, q in beads:
        out *= 1 - (1 - p) * (1 - q)
    return out


# -- state enumeration ---------------------------------------------------------


def enumerate_reliability(doc: dict) -> Fraction:
    """K-terminal reliability of a graph document by walking all 2^m edge
    states.  Weights are kept as integer numerators over the common
    denominator prod(den), so the walk does no rational arithmetic."""
    nodes = sorted(doc["nodes"])
    ix = {v: i for i, v in enumerate(nodes)}
    terms = [ix[t] for t in sorted(doc["terminals"])]
    if len(terms) <= 1:
        return Fraction(1)
    edges = []
    denom = 1
    for e in doc["edges"]:
        p = Fraction(e["p"])
        edges.append((ix[e["u"]], ix[e["v"]], p.numerator, p.denominator - p.numerator))
        denom *= p.denominator
    m = len(edges)
    total = 0

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def walk(i: int, parent: list[int], weight: int) -> None:
        nonlocal total
        if weight == 0:
            return
        root = find(parent, terms[0])
        if all(find(parent, t) == root for t in terms[1:]):
            # terminals already linked: every completion of the state counts,
            # and the completions' weights sum to the rest of the denominator
            rest = 1
            for _, _, up, down in edges[i:]:
                rest *= up + down
            total += weight * rest
            return
        if i == m:
            return
        u, v, up, down = edges[i]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            joined = parent.copy()
            joined[ru] = rv
            walk(i + 1, joined, weight * up)
        else:
            walk(i + 1, parent, weight * up)
        walk(i + 1, parent, weight * down)

    walk(0, list(range(len(nodes))), 1)
    return Fraction(total, denom)


# -- partitions in the CLI's "12|3" syntax -------------------------------------


def parse_partition(text: str) -> list[list[int]]:
    return [[int(c) for c in block] for block in text.split("|")]


def joins_to_top(a: list[list[int]], b: list[list[int]], n: int) -> bool:
    """True iff merging the blocks of a and b links all of 1..n."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for blocks in (a, b):
        for blk in blocks:
            for x in blk[1:]:
                parent[find(x)] = find(blk[0])
    return len({find(x) for x in range(1, n + 1)}) == 1


def joint_sum(dist1: dict[str, str], dist2: dict[str, str], n: int) -> Fraction:
    """Mass of the pairs of side states that link the whole boundary."""
    total = Fraction(0)
    for a, pa in dist1.items():
        for b, pb in dist2.items():
            if joins_to_top(parse_partition(a), parse_partition(b), n):
                total += Fraction(pa) * Fraction(pb)
    return total


def polynomial_value(coefficients: list[int], p: Fraction) -> Fraction:
    """R(p) = sum_i C_i p^i (1-p)^(m-i) from pathset counts by size."""
    m = len(coefficients) - 1
    return sum((c * p**i * (1 - p) ** (m - i) for i, c in enumerate(coefficients)), Fraction(0))


# -- the connectivity matrix -----------------------------------------------------


def check_conmatrix(out: dict, n: int, det_magnitude: int) -> str | None:
    """Problems with a ``conmatrix --n n`` answer, or None.

    A must mark exactly the pairs of listed states whose join is the top
    partition, A_inv must be its exact two-sided inverse, and |det A| must
    be the published value.
    """
    order = [parse_partition(s) for s in out["order"]]
    A = out["A"]
    if any(
        A[i][j] != int(joins_to_top(a, b, n)) for i, a in enumerate(order) for j, b in enumerate(order)
    ):
        return "A does not mark the connected pairs of the listed order"
    inv = [[Fraction(x) for x in row] for row in out["A_inv"]]
    size = len(order)
    for i in range(size):
        a_row = A[i]
        for j in range(size):
            acc = sum((inv[k][j] for k in range(size) if a_row[k]), Fraction(0))
            if acc != (i == j):
                return f"(A * A_inv)[{i}][{j}] = {acc}"
    if abs(int(out["det"])) != det_magnitude:
        return f"|det A| = {abs(int(out['det']))}, expected {det_magnitude}"
    return None
