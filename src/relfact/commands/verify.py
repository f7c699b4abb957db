"""relfact verify: every route on a directory of decomposition fixtures."""

from __future__ import annotations

import os
import sys
from fractions import Fraction

from .. import jsonio
from ..cli import EXIT_FORMAT, EXIT_OK, EXIT_VERIFY
from . import _emit, _load_json


def _verify_one(d, bound: int, jobs: int) -> tuple[bool, list[str], Fraction]:
    from .. import cut, reliability
    from ..cluster import dq_at_zero, partition_function
    from ..enumeration import reliability_bruteforce
    from ..states import joint_reliability, state_distribution

    union = d.union
    failures: list[str] = []
    brute = reliability_bruteforce(union, bound=bound)
    factored = reliability.reliability_factoring(union)
    if factored != brute:
        failures.append("factoring != enumeration")
    if cut.factorization_detail(d, jobs=jobs).value != brute:
        failures.append("factorized != enumeration")
    if union.terminals <= set(d.boundary):
        # the boundary-state sum equals the reliability only when every
        # terminal sits on the cut
        d1 = state_distribution(d.g1, d.boundary, bound=bound)
        d2 = state_distribution(d.g2, d.boundary, bound=bound)
        if joint_reliability(d1, d2) != brute:
            failures.append("joint-state sum != enumeration")
    if d.n == 2 and cut.n2_closed_form(d) != brute:
        failures.append("two-node closed form != enumeration")
    if union.terminals == union.nodes:
        w1 = dq_at_zero(partition_function(union, bound=bound))
        if w1 != brute:
            failures.append("cluster-model q-linear weight != enumeration")
        if cut.factorized_dq(d, jobs=jobs, bound=bound) != w1:
            failures.append("factorized cluster derivative != direct")
    return (not failures, failures, brute)


def run(args) -> int:
    root = args.input
    if os.path.isdir(root):
        files = [os.path.join(root, name) for name in sorted(os.listdir(root)) if name.endswith(".json")]
    else:
        files = [root]  # read as given: '' is no file, not the working directory
    if not files:
        print(f"no fixtures found under {root}", file=sys.stderr)
        return EXIT_FORMAT
    results = []
    all_ok = True
    for path in files:
        d = jsonio.decomposition_from_obj(_load_json(path))
        ok, failures, value = _verify_one(d, args.bound, args.jobs)
        all_ok &= ok
        name, text = os.path.basename(path), jsonio.fraction_to_str(value)
        results.append({"file": name, "ok": ok, "reliability": text, "failures": failures})
    payload = {"ok": all_ok, "results": results}
    lines = []
    for r in results:
        status = "OK" if r["ok"] else "FAIL " + "; ".join(r["failures"])
        lines.append(f"{r['file']}: {status} (R = {r['reliability']})")
    lines.append("all routes agree" if all_ok else "MISMATCHES FOUND")
    _emit(args, payload, lines)
    return EXIT_OK if all_ok else EXIT_VERIFY
