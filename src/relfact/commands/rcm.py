"""relfact rcm: the random cluster model partition function."""

from __future__ import annotations

from .. import jsonio
from ..cli import EXIT_OK
from . import _emit, _load_json


def run(args) -> int:
    g = jsonio.graph_from_obj(_load_json(args.input))
    from ..cluster import dq_at_zero, partition_function

    z = partition_function(g, bound=args.bound)
    w1 = dq_at_zero(z)
    payload = {
        "Z": {str(k): jsonio.fraction_to_str(w) for k, w in sorted(z.coeffs.items())},
        "dZdq_at_0": jsonio.fraction_to_str(w1),
    }
    lines = ["Z coefficients by cluster count:"]
    lines += [f"  q^{k}: {w}" for k, w in payload["Z"].items()]
    lines.append(f"dZ/dq at q=0: {payload['dZdq_at_0']}")
    _emit(args, payload, lines)
    return EXIT_OK
