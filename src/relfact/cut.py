"""The cut factorization: a graph split at an n-node boundary, solved side
by side and recombined through the inverse connectivity matrix.

A CutDecomposition checks the paper's hypotheses on the cut when it is
built, so one that exists is valid and carries its union graph; the routes
here take it as it is, and a stranded terminal never reaches them.  Every
quantity that factors over a cut (factorization_detail and factorized_dq)
goes through one combine, _cut_factorization.  It takes no coherent order
and builds no dense inverse, so it runs at every boundary size a
decomposition allows.  The side solvers stay beside their kernels:
reliability.conditioned_reliability and cluster._conditioned_dq.

Only the commands that read a decomposition load this module (factor,
distribution, verify); the graph commands compile none of it.  At load time
it imports graphs and base alone: the combine imports partitions and
conmatrix when it runs, factorization_detail and n2_closed_form import the
factoring kernel (reliability), factorized_dq imports cluster, and
ordered_parallel_map imports the process pool.  So distribution and factor
--route joint, which build a decomposition but solve no side through it,
compile neither the factoring kernel nor the connectivity matrix.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Iterable

from .base import MAX_GROUND_SET, Value
from .graphs import DecompositionError, Hypothesis1Error, Hypothesis2Error, StochasticGraph, components

if TYPE_CHECKING:
    from .partitions import Partition


class CutDecomposition(Value):
    """Two subgraphs sharing exactly the boundary nodes (and no edges).

    Built only when valid: raises Hypothesis1Error when the sides share an
    edge, share nodes beyond the boundary, or a boundary node is not a
    terminal of both sides; then raises DecompositionError for a boundary
    outside 1..MAX_GROUND_SET nodes, as no route takes it; then raises
    Hypothesis2Error when some terminal of the union cannot reach the
    boundary (in that case the overall reliability is 0).  The boundary may
    list a node more than once.  union is the graph of both sides together;
    it is derived from the sides and takes no part in == or hash.
    """

    FIELDS = ("g1", "g2", "boundary")
    __slots__ = FIELDS + ("union",)
    g1: StochasticGraph
    g2: StochasticGraph
    boundary: tuple[str, ...]
    union: StochasticGraph

    def __init__(self, g1: StochasticGraph, g2: StochasticGraph, boundary: Iterable[str]) -> None:
        boundary = tuple(boundary)
        bset = set(boundary)
        shared_edges = g1.edge_ids & g2.edge_ids
        if shared_edges:
            raise Hypothesis1Error(
                f"Hypothesis 1 violated: sides share edge ids {sorted(shared_edges)}"
            )
        shared_nodes = g1.nodes & g2.nodes
        if shared_nodes != bset:
            raise Hypothesis1Error(
                "Hypothesis 1 violated: shared nodes "
                f"{sorted(shared_nodes)} differ from the boundary {sorted(bset)}"
            )
        for side, g in (("g1", g1), ("g2", g2)):
            missing = bset - g.terminals
            if missing:
                raise Hypothesis1Error(
                    f"Hypothesis 1 violated: boundary nodes {sorted(missing)} "
                    f"missing from the terminals of {side}"
                )
        if not 1 <= len(boundary) <= MAX_GROUND_SET:
            raise DecompositionError(f"a boundary has 1..{MAX_GROUND_SET} nodes, got {len(boundary)}")
        union = union_graph(g1, g2)
        uf = components(union)
        boundary_roots = {uf.find(b) for b in bset}
        stranded = sorted(t for t in union.terminals if uf.find(t) not in boundary_roots)
        if stranded:
            raise Hypothesis2Error(
                f"Hypothesis 2 violated: terminals {stranded} reach no boundary node"
            )
        self._set(g1, g2, boundary, union)

    @property
    def n(self) -> int:
        return len(self.boundary)


def union_graph(g1: StochasticGraph, g2: StochasticGraph) -> StochasticGraph:
    return StochasticGraph(
        nodes=g1.nodes | g2.nodes,
        edges=g1.edges + g2.edges,
        terminals=g1.terminals | g2.terminals,
    )


def ordered_parallel_map(fn, tasks, jobs: int = 1) -> list:
    """fn(*t) for each argument tuple t of tasks, a deterministic map:
    results come back in task order regardless of the worker count, so
    parallel and sequential runs are bitwise identical.  The pool starts no
    more workers than there are tasks or CPUs: under fork it starts every
    worker up front, so an uncapped --jobs would start one process per task."""
    if jobs > 1 and len(tasks) > 1:
        # imported here: the pool pulls in multiprocessing, which a
        # single-process run never needs to load
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, *zip(*tasks)))
    return [fn(*t) for t in tasks]


class FactorizationResult(Value):
    """The factorized value with each side's value per boundary partition."""

    __slots__ = FIELDS = ("side1", "side2", "value")
    side1: dict[Partition, Fraction]
    side2: dict[Partition, Fraction]
    value: Fraction

    def __init__(
        self, side1: dict[Partition, Fraction], side2: dict[Partition, Fraction], value: Fraction
    ) -> None:
        self._set(side1, side2, value)


def _cut_factorization(d: CutDecomposition, jobs: int, solve) -> FactorizationResult:
    """The factorization combine, shared by every quantity that factors.

    solve(g, boundary, a) is one side's value after its boundary is
    identified through a.  The 2 * Bell(n) side solves, one per side and
    partition, run through the deterministic parallel map; then
    conmatrix.inverse_form combines them as r1^T * A^-1 * r2.  solve must
    be picklable (a module-level function or a partial of one) when jobs > 1.
    """
    from .conmatrix import inverse_form
    from .partitions import all_partitions

    states = all_partitions(d.n)
    tasks = [(g, d.boundary, a) for g in (d.g1, d.g2) for a in states]
    vals = ordered_parallel_map(solve, tasks, jobs)
    side1 = dict(zip(states, vals))
    side2 = dict(zip(states, vals[len(states) :]))
    return FactorizationResult(side1=side1, side2=side2, value=inverse_form(side1, side2))


def factorization_detail(d: CutDecomposition, jobs: int = 1) -> FactorizationResult:
    """Exact reliability of the union graph via the cut factorization, with
    the per-partition side reliabilities exposed; each side is solved by
    reliability.conditioned_reliability (see _cut_factorization)."""
    from .reliability import conditioned_reliability

    return _cut_factorization(d, jobs, conditioned_reliability)


def factorized_dq(d: CutDecomposition, jobs: int = 1, bound: int | None = None) -> Fraction:
    """The q -> 0 derivative of the random cluster model's Z for the union,
    assembled from the sides through the same combine as the reliability;
    each side is solved by cluster._conditioned_dq.

    Requires the all-terminal case (every node of the union is a terminal).
    A side that is disconnected after some identification contributes 0 for
    it, as its conditioned reliability does; the result equals
    cluster.dq_at_zero of the union exactly.
    """
    if d.union.terminals != d.union.nodes:
        raise ValueError("the factorized derivative needs every node terminal")
    from .cluster import _conditioned_dq

    return _cut_factorization(d, jobs, partial(_conditioned_dq, bound=bound)).value


def n2_closed_form(d: CutDecomposition) -> Fraction:
    """Three-term inclusion-exclusion for a two-node boundary.

    With hats marking the sides whose two boundary nodes are identified:
    R = R(G1) * R(G2^) + R(G1^) * R(G2) - R(G1) * R(G2).  Taking the same
    node twice as the boundary degenerates it to the articulation-point
    product R(G1) * R(G2).
    """
    if d.n != 2:
        raise ValueError(f"closed form needs a boundary of size 2, got {d.n}")
    from .partitions import Partition
    from .reliability import conditioned_reliability

    bottom = Partition.singletons(2)
    top = Partition.top(2)
    r1 = conditioned_reliability(d.g1, d.boundary, bottom)
    r2 = conditioned_reliability(d.g2, d.boundary, bottom)
    r1_hat = conditioned_reliability(d.g1, d.boundary, top)
    r2_hat = conditioned_reliability(d.g2, d.boundary, top)
    return r1 * r2_hat + r1_hat * r2 - r1 * r2
