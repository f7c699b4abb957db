"""Random cluster model partition function and its non-cluster limit.

Z(q, G) collects state probabilities weighted by q raised to the number of
connected components of the operative subgraph (isolated vertices count).
Its linear coefficient in q is exactly the all-terminal reliability, which
carries the cut factorization over to the q -> 0 derivative.  Z is one
frontier walk of states, behind base's enumeration bound, at q = 2^b with
b = D.bit_length(): the weight w_k, the integer numerator of cluster count
k over the common denominator D, is at most D < 2^b, so it is digit k of
the walk's one integer.  The derivative factors over a cut through
cut.factorized_dq, whose side solver, _conditioned_dq, is here: it reads a
side's integer form with the boundary identified, and a side that this
disconnects, having no single-cluster state, contributes 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .base import Value, _check_bound
from .graphs import StochasticGraph, components, integer_form
from .states import _digits, _frontier_walk

if TYPE_CHECKING:
    from .partitions import Partition


class DisconnectedGraphError(ValueError):
    """The underlying graph must be connected for the partition function."""


class ClusterPolynomial(Value):
    """Z(q) = sum_k w_k q^k with exact rational weights, k = cluster count.

    Setting q = 1 recovers total probability 1; the k = 1 weight is the
    probability that the operative edges span everything in one component.
    """

    __slots__ = FIELDS = ("node_count", "coeffs")
    node_count: int
    coeffs: dict[int, Fraction]

    def __init__(self, node_count: int, coeffs: dict[int, Fraction]) -> None:
        self._set(node_count, coeffs)
        if any(not 1 <= k <= node_count for k in coeffs):
            raise ValueError("cluster counts must lie in 1..|V|")
        if any(w < 0 for w in coeffs.values()):
            raise ValueError("weights must be non-negative")
        if sum(coeffs.values(), Fraction(0)) != 1:
            raise ValueError("weights must sum to 1")


def partition_function(g: StochasticGraph, bound: int | None = None) -> ClusterPolynomial:
    """Exact cluster-count weights from the frontier kernel."""
    if not g.nodes:
        raise ValueError("the partition function needs a node; the graph has an empty node set")
    if components(g).component_count() > 1:
        raise DisconnectedGraphError("underlying graph is not connected")
    return _cluster_polynomial(integer_form(g), bound)


def _cluster_polynomial(form: tuple, bound: int | None) -> ClusterPolynomial:
    """Z of an integer form (graphs.integer_form), connected or not."""
    index, edges, _, denom = form
    _check_bound(edges, bound)
    nodes = set(index.values())
    b = denom.bit_length()
    _, states = _frontier_walk(nodes, edges, set(), q=1 << b)
    (z,) = states.values()  # every vertex has left: the empty frontier
    # a digit that carried into the next would break the sum to 1 below
    coeffs = {k: Fraction(w, denom) for k, w in enumerate(_digits(z, b, len(nodes) + 1)) if w}
    return ClusterPolynomial(node_count=len(nodes), coeffs=coeffs)


def dq_at_zero(z: ClusterPolynomial) -> Fraction:
    """d/dq of Z at q = 0: the weight of single-cluster states, which equals
    the all-terminal reliability."""
    return z.coeffs.get(1, Fraction(0))


def _conditioned_dq(
    g: StochasticGraph, boundary: tuple[str, ...], a: Partition, bound: int | None = None
) -> Fraction:
    """dq_at_zero of one side after identifying its boundary through a; 0
    when the identified side is disconnected, as no state of it is a single
    cluster (its all-terminal reliability is 0 too)."""
    return dq_at_zero(_cluster_polynomial(integer_form(g, boundary, a), bound))

