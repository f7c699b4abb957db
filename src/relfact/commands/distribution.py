"""relfact distribution: boundary state distributions of both sides of a cut."""

from __future__ import annotations

from .. import jsonio
from ..cli import EXIT_OK
from . import _emit, _formatted, _listing, _load_json


def run(args) -> int:
    d = jsonio.decomposition_from_obj(_load_json(args.input))
    from ..states import state_distribution

    d1 = state_distribution(d.g1, d.boundary, bound=args.bound)
    d2 = state_distribution(d.g2, d.boundary, bound=args.bound)
    dists = {"g1": _formatted(d1.probs), "g2": _formatted(d2.probs)}
    lines = [f"n = {d.n}"] + [f"{name}: {_listing(dist)}" for name, dist in dists.items()]
    _emit(args, {"n": d.n, **dists}, lines)
    return EXIT_OK
