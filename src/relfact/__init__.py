"""Exact K-terminal network reliability with boundary-cut factorization.

Everything runs in exact rational arithmetic.  The public surface mirrors
the module layout: partition lattice, stochastic graphs, connectivity
matrices, the reliability routes, and the random cluster model.
"""

from .cluster import ClusterPolynomial, dq_at_zero, factorized_dq, partition_function
from .conmatrix import (
    ConnectivityBundle,
    connectivity_matrix,
    connectivity_matrix_det,
    connectivity_number,
    inverse_form,
    invert_connectivity_matrix,
    pi_vector,
)
from .graphs import CutDecomposition, Edge, StochasticGraph, identify_nodes, is_k_connected
from .linalg import InvariantFactors, abelian_signature, diagonal_smith_form
from .partitions import CoherentOrder, Partition, all_partitions, coherent_order, is_connected_pair, join
from .reliability import (
    FactorizationResult,
    ReliabilityPolynomial,
    StateDistribution,
    conditioned_reliability,
    factorization_detail,
    joint_reliability,
    n2_closed_form,
    reliability_bruteforce,
    reliability_factoring,
    reliability_polynomial,
    state_distribution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
