"""relfact polynomial: the equal-probability reliability polynomial."""

from __future__ import annotations

from .. import jsonio
from ..cli import EXIT_OK
from . import _emit, _load_json


def run(args) -> int:
    g = jsonio.graph_from_obj(_load_json(args.input))
    from ..states import reliability_polynomial

    poly = reliability_polynomial(g, bound=args.bound)
    monomials = poly.monomial_coefficients()
    payload = {
        "edge_count": poly.edge_count,
        "coefficients": list(poly.coefficients),
        "monomial_coefficients": monomials,
    }
    lines = [
        f"edge count = {poly.edge_count}",
        "pathset counts by operative edges: " + " ".join(str(c) for c in poly.coefficients),
        "monomial coefficients: " + " ".join(str(c) for c in monomials),
    ]
    _emit(args, payload, lines)
    return EXIT_OK
