"""Exact K-terminal network reliability with boundary-cut factorization.

Everything runs in exact rational arithmetic.  The public surface mirrors
the module layout: partition lattice, stochastic graphs, connectivity
matrices, the reliability routes, the cut factorization, and the random
cluster model.

Each name is imported from its module on first use (PEP 562), so importing
the package, or the command line through it, loads no module that the
caller does not reach.
"""

# module -> the public names it defines
_EXPORTS = {
    "cluster": "ClusterPolynomial dq_at_zero partition_function",
    "conmatrix": "ConnectivityBundle connectivity_matrix connectivity_number inverse_form "
    "invert_connectivity_matrix pi_vector",
    "cut": "CutDecomposition FactorizationResult factorization_detail factorized_dq n2_closed_form",
    "enumeration": "reliability_bruteforce",
    "graphs": "Edge StochasticGraph is_k_connected",
    "linalg": "InvariantFactors abelian_signature diagonal_smith_form",
    "partitions": "CoherentOrder Partition all_partitions coherent_order is_connected_pair",
    "reliability": "conditioned_reliability reliability_factoring",
    "states": "ReliabilityPolynomial StateDistribution joint_reliability reliability_polynomial "
    "state_distribution",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# the submodules the package has always exported by name
_MODULES = ("cluster", "conmatrix", "graphs", "linalg", "partitions", "reliability")

__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name: str):
    if name not in _MODULES and name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ binds the module here; -X importtime does not report importlib.import_module
    __import__(f"{__name__}.{_HOME.get(name, name)}")
    if name in _HOME:
        globals()[name] = getattr(globals()[_HOME[name]], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
