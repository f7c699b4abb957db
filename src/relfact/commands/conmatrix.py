"""relfact conmatrix: the connectivity matrix, its inverse, and invariants."""

from __future__ import annotations

import sys
from math import prod

from ..cli import EXIT_FORMAT, EXIT_OK
from . import _emit, _matrix_text


def run(args) -> int:
    from ..conmatrix import MAX_BUNDLE_GROUND_SET, invert_connectivity_matrix
    from ..linalg import diagonal_smith_form
    from ..partitions import coherent_order

    if not 1 <= args.n <= MAX_BUNDLE_GROUND_SET:
        print(f"n must be in 1..{MAX_BUNDLE_GROUND_SET}, got {args.n}", file=sys.stderr)
        return EXIT_FORMAT
    order = coherent_order(args.n, args.order)
    bundle = invert_connectivity_matrix(order)
    # B^T * A * B = diag(alpha) with B unimodular: det A and the Smith form
    # of A are those of the diagonal
    det = prod(bundle.alpha)
    factors = diagonal_smith_form([abs(a) for a in bundle.alpha])
    payload = {
        "n": args.n,
        "order": [str(p) for p in order.states],
        "A": bundle.A,
        "A_inv": _matrix_text(bundle.A_inv),
        "det": str(det),
        "invariant_factors": [str(d) for d in factors.snf_diagonal],
        "torsion_prime_powers": [list(t) for t in factors.torsion_prime_powers],
    }
    lines = [
        f"n = {args.n}  states = {len(order.states)}  order = {args.order}",
        "order: " + " ".join(str(p) for p in order.states),
        f"det = {det}",
        "invariant factors: " + " ".join(str(x) for x in factors.snf_diagonal),
        "torsion prime powers (p, k, multiplicity): "
        + " ".join(str(t) for t in factors.torsion_prime_powers),
    ]
    _emit(args, payload, lines)
    return EXIT_OK
