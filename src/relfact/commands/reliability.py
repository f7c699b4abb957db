"""relfact reliability: exact reliability of a graph."""

from __future__ import annotations

import sys

from .. import graphs, jsonio
from ..cli import EXIT_OK
from . import _emit, _load_json


def run(args) -> int:
    g = jsonio.graph_from_obj(_load_json(args.input))
    if args.route == "bruteforce":
        from ..enumeration import reliability_bruteforce

        value = reliability_bruteforce(g, bound=args.bound)
    else:
        from .. import reliability

        value = reliability.reliability_factoring(g)
    if value == 0 and not graphs.is_k_connected(g):
        print(
            "warning: some terminal reaches no other terminal; reliability is 0",
            file=sys.stderr,
        )
    text = jsonio.fraction_to_str(value)
    payload = {"reliability": text, "route": args.route}
    _emit(args, payload, [f"reliability = {text}", f"route = {args.route}"])
    return EXIT_OK
