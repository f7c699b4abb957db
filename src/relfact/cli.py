"""Command-line front end.

Exit codes: 0 success, 2 malformed input (bad JSON, bad document shape, an
out-of-range n, or a bad --jobs, --bound or RELFACT_BOUND), 3 semantic
validation failure, 4 cross-route verification mismatch (which would
indicate an implementation bug).

stdout is byte-identical across runs and across --jobs settings for the
same input; timing goes to stderr so it cannot perturb that contract.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import cluster, conmatrix, jsonio, reliability
from .graphs import GraphError, Hypothesis2Error, is_k_connected
from .linalg import fraction_free_determinant, smith_normal_form
from .partitions import ORDER_VARIANTS, coherent_order

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_SEMANTIC = 3
EXIT_VERIFY = 4

GRAPH_ROUTES = ("bruteforce", "factoring")
FACTOR_ROUTES = ("factorized", "joint", "n2")


def _bound_value(spec: str) -> int:
    try:
        bound = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {spec!r}")
    if bound < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {bound}")
    return bound


def _default_bound(parser: argparse.ArgumentParser) -> int:
    """The enumeration bound when --bound is absent: RELFACT_BOUND, else the
    package default.  A bad value exits 2 through parser.error."""
    env = os.environ.get("RELFACT_BOUND")
    if env is None:
        return reliability.DEFAULT_ENUMERATION_BOUND
    try:
        return _bound_value(env)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"RELFACT_BOUND {exc}")


def _jobs_count(spec: str) -> int:
    if spec == "auto":
        return os.cpu_count() or 1
    try:
        jobs = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--jobs must be an integer or 'auto', got {spec!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError("--jobs must be at least 1")
    return jobs


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise jsonio.FormatError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except ValueError as exc:  # bad syntax, or a number past the int/str digit limit
        raise jsonio.FormatError(f"{path}: malformed JSON: {exc}")
    except RecursionError:
        raise jsonio.FormatError(f"{path}: JSON nested too deeply") from None


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        sys.stdout.write(jsonio.dumps_canonical(payload))
    else:
        for line in text_lines:
            print(line)


def _frac(x: Fraction) -> str:
    return jsonio.fraction_to_str(x)


def _listing(formatted: dict[str, str]) -> str:
    """Formatted partition -> value pairs as one line, sorted by partition."""
    return ", ".join(f"{p} -> {v}" for p, v in sorted(formatted.items()))


def cmd_reliability(args: argparse.Namespace) -> int:
    g = jsonio.graph_from_obj(_load_json(args.input))
    if args.route == "bruteforce":
        value = reliability.reliability_bruteforce(g, bound=args.bound)
    else:
        value = reliability.reliability_factoring(g)
    if value == 0 and not is_k_connected(g):
        print(
            "warning: some terminal reaches no other terminal; reliability is 0",
            file=sys.stderr,
        )
    text = _frac(value)
    payload = {"reliability": text, "route": args.route}
    _emit(args, payload, [f"reliability = {text}", f"route = {args.route}"])
    return EXIT_OK


def cmd_factor(args: argparse.Namespace) -> int:
    obj = _load_json(args.input)
    route = args.route
    try:
        d = jsonio.decomposition_from_obj(obj)
    except Hypothesis2Error as exc:
        # unreachable terminals: reliability is 0, not an input error
        print(f"warning: {exc}", file=sys.stderr)
        zero = _frac(Fraction(0))
        payload = {"route": route, "n": len(obj["boundary"]), "reliability": zero}
        _emit(args, payload, [f"reliability = {zero}"])
        return EXIT_OK
    payload = {"route": route, "n": d.n}
    details: list[str] = []
    if route == "factorized":
        detail = reliability.factorization_detail(d, variant=args.order, jobs=args.jobs)
        value = detail.value
        sides = {
            name: {str(p): _frac(v) for p, v in side.items()}
            for name, side in zip(("g1", "g2"), detail.side_reliabilities())
        }
        b_matrix = [[_frac(x) for x in row] for row in detail.bundle.A_inv]
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
        d1 = reliability.state_distribution(d.g1, d.boundary, bound=args.bound)
        d2 = reliability.state_distribution(d.g2, d.boundary, bound=args.bound)
        value = reliability.joint_reliability(d1, d2)
        payload["side_distributions"] = {
            "g1": {str(p): _frac(v) for p, v in d1.probs.items()},
            "g2": {str(p): _frac(v) for p, v in d2.probs.items()},
        }
    else:  # n2
        value = reliability.n2_closed_form(d)
    payload["reliability"] = text = _frac(value)
    lines = [f"reliability = {text}", *details]

    if args.verify:
        oracle = reliability.reliability_bruteforce(d.union, bound=args.bound)
        payload["verified_against"] = checked = _frac(oracle)
        if oracle != value:
            print(
                f"verification mismatch: route {route} gave {text}, enumeration gave {checked}",
                file=sys.stderr,
            )
            return EXIT_VERIFY
        lines.append(f"verified against enumeration: {checked}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_conmatrix(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= conmatrix.MAX_BUNDLE_GROUND_SET:
        print(f"n must be in 1..{conmatrix.MAX_BUNDLE_GROUND_SET}, got {args.n}", file=sys.stderr)
        return EXIT_FORMAT
    order = coherent_order(args.n, args.order)
    bundle = conmatrix.invert_connectivity_matrix(order)
    det = fraction_free_determinant(bundle.A)
    factors = smith_normal_form(bundle.A)
    payload = jsonio.conmatrix_to_obj(bundle, det, factors)
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


def cmd_polynomial(args: argparse.Namespace) -> int:
    g = jsonio.graph_from_obj(_load_json(args.input))
    poly = reliability.reliability_polynomial(g, bound=args.bound)
    payload = {
        "edge_count": poly.edge_count,
        "coefficients": list(poly.coefficients),
        "monomial_coefficients": poly.monomial_coefficients(),
    }
    lines = [
        f"edge count = {poly.edge_count}",
        "pathset counts by operative edges: " + " ".join(str(c) for c in poly.coefficients),
        "monomial coefficients: " + " ".join(str(c) for c in poly.monomial_coefficients()),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_distribution(args: argparse.Namespace) -> int:
    d = jsonio.decomposition_from_obj(_load_json(args.input))
    d1 = reliability.state_distribution(d.g1, d.boundary, bound=args.bound)
    d2 = reliability.state_distribution(d.g2, d.boundary, bound=args.bound)
    dists = {
        name: {str(p): _frac(v) for p, v in dist.probs.items()} for name, dist in (("g1", d1), ("g2", d2))
    }
    lines = [f"n = {d.n}"] + [f"{name}: {_listing(dist)}" for name, dist in dists.items()]
    _emit(args, {"n": d.n, **dists}, lines)
    return EXIT_OK


def cmd_rcm(args: argparse.Namespace) -> int:
    g = jsonio.graph_from_obj(_load_json(args.input))
    z = cluster.partition_function(g, bound=args.bound)
    w1 = cluster.dq_at_zero(z)
    payload = {
        "Z": {str(k): _frac(w) for k, w in sorted(z.coeffs.items())},
        "dZdq_at_0": _frac(w1),
    }
    lines = ["Z coefficients by cluster count:"]
    lines += [f"  q^{k}: {w}" for k, w in payload["Z"].items()]
    lines.append(f"dZ/dq at q=0: {payload['dZdq_at_0']}")
    _emit(args, payload, lines)
    return EXIT_OK


def _verify_one(d, bound: int, jobs: int) -> tuple[bool, list[str], Fraction]:
    union = d.union
    failures: list[str] = []
    brute = reliability.reliability_bruteforce(union, bound=bound)
    factored = reliability.reliability_factoring(union)
    if factored != brute:
        failures.append("factoring != enumeration")
    for variant in ORDER_VARIANTS:
        detail = reliability.factorization_detail(d, variant=variant, jobs=jobs)
        if variant == "canonical":
            canonical = detail.bundle  # reused by the cluster derivative below
        if detail.value != brute:
            failures.append(f"factorized[{variant}] != enumeration")
    if union.terminals <= set(d.boundary):
        # the boundary-state sum equals the reliability only when every
        # terminal sits on the cut
        d1 = reliability.state_distribution(d.g1, d.boundary, bound=bound)
        d2 = reliability.state_distribution(d.g2, d.boundary, bound=bound)
        if reliability.joint_reliability(d1, d2) != brute:
            failures.append("joint-state sum != enumeration")
    if d.n == 2 and reliability.n2_closed_form(d) != brute:
        failures.append("two-node closed form != enumeration")
    if union.terminals == union.nodes:
        w1 = cluster.dq_at_zero(cluster.partition_function(union, bound=bound))
        if w1 != brute:
            failures.append("cluster-model q-linear weight != enumeration")
        if cluster.factorized_dq(d, bundle=canonical, jobs=jobs, bound=bound) != w1:
            failures.append("factorized cluster derivative != direct")
    return (not failures, failures, brute)


def cmd_verify(args: argparse.Namespace) -> int:
    root = Path(args.input)
    files = sorted(root.glob("*.json")) if root.is_dir() else [root]
    if not files:
        print(f"no fixtures found under {root}", file=sys.stderr)
        return EXIT_FORMAT
    results = []
    all_ok = True
    for path in files:
        d = jsonio.decomposition_from_obj(_load_json(str(path)))
        ok, failures, value = _verify_one(d, args.bound, args.jobs)
        all_ok &= ok
        results.append(
            {"file": path.name, "ok": ok, "reliability": _frac(value), "failures": failures}
        )
    payload = {"ok": all_ok, "results": results}
    lines = []
    for r in results:
        status = "OK" if r["ok"] else "FAIL " + "; ".join(r["failures"])
        lines.append(f"{r['file']}: {status} (R = {r['reliability']})")
    lines.append("all routes agree" if all_ok else "MISMATCHES FOUND")
    _emit(args, payload, lines)
    return EXIT_OK if all_ok else EXIT_VERIFY


COMMANDS = {
    "reliability": cmd_reliability,
    "factor": cmd_factor,
    "conmatrix": cmd_conmatrix,
    "polynomial": cmd_polynomial,
    "distribution": cmd_distribution,
    "rcm": cmd_rcm,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfact",
        description="Exact K-terminal network reliability with boundary-cut factorization",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, reads_documents=True):
        # --order is added by the two commands that read it; conmatrix reads
        # no document, so it takes neither --input nor an enumeration bound
        if reads_documents:
            p.add_argument("--input", required=True, help="input file (or directory for verify)")
            p.add_argument("--bound", type=_bound_value, metavar="E")
        p.add_argument("--jobs", type=_jobs_count, default=1, metavar="N|auto")
        p.add_argument("--output", choices=("json", "text"), default="text")

    p = sub.add_parser("reliability", help="exact reliability of a graph")
    common(p)
    p.add_argument("--route", choices=GRAPH_ROUTES, default="factoring")

    p = sub.add_parser("factor", help="reliability of a decomposition via the cut theorem")
    common(p)
    p.add_argument("--order", choices=ORDER_VARIANTS, default="canonical")
    p.add_argument("--route", choices=FACTOR_ROUTES, default="factorized")
    p.add_argument("--verify", action="store_true", help="cross-check against enumeration")

    p = sub.add_parser("conmatrix", help="connectivity matrix, inverse, and invariants")
    common(p, reads_documents=False)
    p.add_argument("--order", choices=ORDER_VARIANTS, default="canonical")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("polynomial", help="equal-probability reliability polynomial")
    common(p)

    p = sub.add_parser("distribution", help="boundary state distributions of both sides")
    common(p)

    p = sub.add_parser("rcm", help="random cluster model partition function")
    common(p)

    p = sub.add_parser("verify", help="run every route, in both orders, on a directory of fixtures")
    common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "bound") and args.bound is None:
        args.bound = _default_bound(parser)
    started = time.perf_counter()
    try:
        code = COMMANDS[args.subcommand](args)
    except jsonio.FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        code = EXIT_FORMAT
    except (
        GraphError,
        reliability.EnumerationBoundError,
        cluster.DisconnectedGraphError,
        ValueError,
    ) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        code = EXIT_SEMANTIC
    finally:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        print(f"timing_ms={elapsed_ms:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
