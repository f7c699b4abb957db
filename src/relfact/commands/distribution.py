"""relfact distribution: boundary state distributions of both sides of a cut."""

from __future__ import annotations

from .. import jsonio
from ..cli import EXIT_OK, _emit, _load_json
from . import _formatted, _listing


def run(args) -> int:
    from ..states import state_distribution

    d = jsonio.decomposition_from_obj(_load_json(args.input))
    d1 = state_distribution(d.g1, d.boundary, bound=args.bound)
    d2 = state_distribution(d.g2, d.boundary, bound=args.bound)
    dists = {"g1": _formatted(d1.probs), "g2": _formatted(d2.probs)}
    lines = [f"n = {d.n}"] + [f"{name}: {_listing(dist)}" for name, dist in dists.items()]
    _emit(args, {"n": d.n, **dists}, lines)
    return EXIT_OK
