"""relfact factor: reliability of a decomposition via the cut theorem."""

from __future__ import annotations

import sys
from fractions import Fraction

from .. import jsonio
from ..cli import EXIT_OK, EXIT_VERIFY
from ..graphs import GraphError, Hypothesis2Error
from . import _emit, _formatted, _listing, _load_json, _matrix_text


def run(args) -> int:
    obj = _load_json(args.input)
    route = args.route
    try:
        d = jsonio.decomposition_from_obj(obj)
    except Hypothesis2Error as exc:
        # unreachable terminals: reliability is 0, not an input error
        print(f"warning: {exc}", file=sys.stderr)
        zero = jsonio.fraction_to_str(Fraction(0))
        payload = {"route": route, "n": len(obj["boundary"]), "reliability": zero}
        _emit(args, payload, [f"reliability = {zero}"])
        return EXIT_OK
    from .. import cut

    payload = {"route": route, "n": d.n}
    details: list[str] = []
    if route == "factorized":
        from ..conmatrix import invert_connectivity_matrix
        from ..partitions import coherent_order

        # built only to be printed, before any side solve: past n = 6 it exits 3
        bundle = invert_connectivity_matrix(coherent_order(d.n, args.order))
        detail = cut.factorization_detail(d, jobs=args.jobs)
        value = detail.value
        sides = {"g1": _formatted(detail.side1), "g2": _formatted(detail.side2)}
        b_matrix = _matrix_text(bundle.A_inv)
        payload["side_reliabilities"] = sides
        payload["b_matrix"] = b_matrix
        details.append(f"n = {d.n}  order = {args.order}")
        details.append("b matrix (inverse connectivity matrix):")
        details += ["  " + "  ".join(row) for row in b_matrix]
        details += [f"side {name}: {_listing(side)}" for name, side in sides.items()]
    elif route == "joint":
        off_cut = sorted(d.union.terminals - set(d.boundary))
        if off_cut:
            raise GraphError(
                f"the joint route needs every terminal on the boundary; {off_cut} are not"
            )
        from ..states import joint_reliability, state_distribution

        d1 = state_distribution(d.g1, d.boundary, bound=args.bound)
        d2 = state_distribution(d.g2, d.boundary, bound=args.bound)
        value = joint_reliability(d1, d2)
        payload["side_distributions"] = {"g1": _formatted(d1.probs), "g2": _formatted(d2.probs)}
    else:  # n2
        value = cut.n2_closed_form(d)
    payload["reliability"] = text = jsonio.fraction_to_str(value)
    lines = [f"reliability = {text}", *details]

    if args.verify:
        from ..enumeration import reliability_bruteforce

        oracle = reliability_bruteforce(d.union, bound=args.bound)
        payload["verified_against"] = checked = jsonio.fraction_to_str(oracle)
        if oracle != value:
            print(
                f"verification mismatch: route {route} gave {text}, enumeration gave {checked}",
                file=sys.stderr,
            )
            return EXIT_VERIFY
        lines.append(f"verified against enumeration: {checked}")
    _emit(args, payload, lines)
    return EXIT_OK
