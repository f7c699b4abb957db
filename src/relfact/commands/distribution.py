"""relfact distribution: boundary state distributions of both sides of a cut."""

from __future__ import annotations

from .. import jsonio
from ..cli import EXIT_OK, _emit, _load_json


def _listing(formatted: dict[str, str]) -> str:
    """Formatted partition -> value pairs as one line, sorted by partition."""
    return ", ".join(f"{p} -> {v}" for p, v in sorted(formatted.items()))


def run(args) -> int:
    from ..states import state_distribution

    d = jsonio.decomposition_from_obj(_load_json(args.input))
    d1 = state_distribution(d.g1, d.boundary, bound=args.bound)
    d2 = state_distribution(d.g2, d.boundary, bound=args.bound)
    dists = {
        name: {str(p): jsonio.fraction_to_str(v) for p, v in dist.probs.items()}
        for name, dist in (("g1", d1), ("g2", d2))
    }
    lines = [f"n = {d.n}"] + [f"{name}: {_listing(dist)}" for name, dist in dists.items()]
    _emit(args, {"n": d.n, **dists}, lines)
    return EXIT_OK
