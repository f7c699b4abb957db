#!/usr/bin/env python3
"""The mutation gate of the kernels, the value types and the commands: each
entry of MUTANTS changes one exact text of one source file, and a test
named beside it must fail on the change.

    python3 scripts/mutants.py

For each entry the script copies src/ to a temporary directory and applies
the one replacement there; the text must occur exactly once.  It then runs
the named tests against the copy in one pytest process at a time, under a
time limit, because a mutant can branch forever.  It prints one line per
mutant: killed (by the first failing test, or by the time limit) or
survived.  It exits 1 when a mutant survives, when a text no longer
matches, or when the named tests cannot run (pytest's exit status is then
neither 0 nor 1), and 0 when every mutant is killed.

tests/conftest.py points a spawned `python -m relfact` at the package that
pytest imported, the copy, so a test that runs the command line in its own
process judges a mutant as well as one that runs it in process.  A
refactor that moves or rewrites a text carries its mutant along.  A
survivor is mended by a new test that kills it, never by dropping its entry.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
LIMIT_S = 120  # per mutant; every list below runs in seconds unmutated
MEMORY_BYTES = 2 << 30  # a mutant that branches forever stops here, not at the machine's end


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    text: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


REL = "relfact/reliability.py"
KERNEL = "tests/test_reliability.py::TestFactoringKernel"
PRUNING = "tests/test_reliability.py::TestPruningContract"
IRRELEVANT = "tests/test_graphs.py::TestIrrelevantEdges"
FACTOR = "tests/test_cli.py::TestFactorCommand"
VERIFY = "tests/test_cli.py::TestVerifyCommand"
FRONTIER = "tests/test_reliability.py::TestFrontierKernel::test_24_edges_at_the_default_bound"
DISTRIBUTION = "tests/test_reliability.py::TestStateDistribution"
INITIALIZER = "tests/test_values.py::TestInitializer"
BUNDLE = "tests/test_conmatrix.py::TestBundle"
MISMATCH = f"{VERIFY}::test_each_check_reports_its_mismatch"

MUTANTS = [
    # the factoring kernel: pruning, mass factors, and each local rule
    Mutant(
        "no pruning",
        REL,
        "        for eid in [eid for eid in self.edges if eid not in relevant]:\n",
        "        for eid in []:\n",
        (
            f"{PRUNING}::test_k6_hung_off_a_terminal",
            f"{PRUNING}::test_bulb_that_dangles_once_its_edge_is_contracted",
        ),
    ),
    Mutant(
        "root-only pruning",
        REL,
        "    total = 0\n    while stack:\n        sub = stack.pop()\n        if not sub.reduce():\n",
        "    total = 0\n    reduces = [_Subproblem.reduce]\n    while stack:\n        sub = stack.pop()\n"
        "        if not (reduces.pop() if reduces else lambda s: s._reduce_locally(list(s.adj)))(sub):\n",
        (f"{PRUNING}::test_bulb_that_dangles_once_its_edge_is_contracted",),
    ),
    Mutant(
        "discard drops no mass",
        REL,
        "        self.weight *= up + down\n        return u, v\n",
        "        return u, v\n",
        (f"{KERNEL}::test_each_mass_factor[loop]", f"{PRUNING}::test_k6_hung_off_a_terminal"),
    ),
    Mutant(
        "a loop or p = 0 edge leaves without its mass",
        REL,
        "                if y == x or not up:\n                    self._discard(eid)\n",
        "                if y == x or not up:\n                    self._drop(eid)\n",
        (f"{KERNEL}::test_each_mass_factor[loop]", f"{KERNEL}::test_each_mass_factor[p = 0 edge]"),
    ),
    Mutant(
        "a contraction's loops leave by up, not their mass",
        REL,
        "                _, _, up, down = edges.pop(eid)\n                self.weight *= up + down\n",
        "                _, _, up, down = edges.pop(eid)\n                self.weight *= up\n",
        (f"{KERNEL}::test_each_mass_factor[parallel edge of a contraction]",),
    ),
    Mutant(
        "parallel edges fail when one fails",
        REL,
        "                    fails = down * down2\n",
        "                    fails = down * up2\n",
        (f"{KERNEL}::test_twenty_bead_necklace", f"{KERNEL}::test_matches_enumeration"),
    ),
    Mutant(
        "a series pair works when one works",
        REL,
        "                    works = up * up2\n",
        "                    works = up * down2\n",
        (f"{KERNEL}::test_long_path_over_prime_denominators", f"{KERNEL}::test_matches_enumeration"),
    ),
    Mutant(
        "a dangling non-terminal leaves without its mass",
        REL,
        "                    for eid, y in list(inc.items()):\n                        self._discard(eid)\n",
        "                    for eid, y in list(inc.items()):\n                        self._drop(eid)\n",
        (f"{KERNEL}::test_each_mass_factor[pendant non-terminal]",),
    ),
    Mutant(
        "a pendant terminal's edge keeps its down weight",
        REL,
        "                        edges[eid] = (u, v, up, 0)\n",
        "                        edges[eid] = (u, v, up, _)\n",
        ("tests/test_reliability.py::TestFactoring::test_bridge", f"{KERNEL}::test_matches_enumeration"),
    ),
    Mutant(
        "the child in which the pivot fails is weighted by up",
        REL,
        "        sub.weight *= down\n",
        "        sub.weight *= up\n",
        (
            "tests/test_reliability.py::TestFactoring::test_degenerate_probabilities",
            "tests/test_reliability.py::TestConditionedReliability::test_lemma_sum",
        ),
    ),
    Mutant(
        "the relevance DFS never lowers low on an edge to an ancestor",
        REL,
        "                if dw < low[u]:\n                    low[u] = dw\n",
        "                pass\n",
        (f"{IRRELEVANT}::test_matches_minpath_oracle", f"{IRRELEVANT}::test_bridge_all_terminals"),
    ),
    # the frontier kernel, the connectivity matrix, the 2^m oracle, the integer form
    Mutant(
        "a marked block leaves the frontier as linked before every terminal entered",
        "relfact/states.py",
        "                        if seen < total or sum(marks) > 1:\n",
        "                        if sum(marks) > 1:\n",
        (
            "tests/test_reliability.py::TestFrontierKernel::test_24_edges_at_the_default_bound[grid4x4]",
            "tests/test_reliability.py::TestPolynomial::test_evaluation_matches_enumeration",
        ),
    ),
    Mutant(
        "the cluster counts' digits are one bit too narrow",
        "relfact/cluster.py",
        "    b = denom.bit_length()\n",
        "    b = denom.bit_length() - 1\n",
        (f"{FRONTIER}[parallel24]", f"{FRONTIER}[loops24]"),
    ),
    Mutant(
        "the polynomial's digits are five bits too narrow",
        "relfact/states.py",
        "    b = len(edges) + 1\n",
        "    b = len(edges) - 4\n",
        (f"{FRONTIER}[k7+3]", f"{FRONTIER}[parallel24]", f"{FRONTIER}[loops24]"),
    ),
    Mutant(
        "a boundary distribution walks without keeping its boundary on the frontier",
        "relfact/states.py",
        "_frontier_walk(index.values(), edges, set(), set(bix))",
        "_frontier_walk(index.values(), edges, set(), set())",
        (f"{DISTRIBUTION}::test_bridge_side", f"{DISTRIBUTION}::test_single_edge"),
    ),
    Mutant(
        "the Moebius function of a k-block interval changes sign",
        "relfact/conmatrix.py",
        "    return (-1) ** (k - 1) * factorial(k - 1)\n",
        "    return (-1) ** k * factorial(k - 1)\n",
        (
            "tests/test_conmatrix.py::TestConnectivityNumbers::test_n3_values",
            "tests/test_conmatrix.py::TestMoebiusClosedForms::test_pi_equals_the_product[3]",
        ),
    ),
    Mutant(
        "the bundle skips its one check, A * M = L * I",
        "relfact/conmatrix.py",
        "        if any(acc):\n",
        "        if False:\n",
        (
            f"{BUNDLE}::test_corrupted_factor_raises[pi_vector]",
            f"{BUNDLE}::test_corrupted_matrix_raises",
            "tests/test_conmatrix.py::TestXiVector::test_pi_short_of_its_top_term_fails_the_inverse_check",
        ),
    ),
    Mutant(
        "the inverse's terms are weighted by L / |alpha|",
        "relfact/conmatrix.py",
        "        yield pi_vector(a), L // connectivity_number(a)\n",
        "        yield pi_vector(a), L // abs(connectivity_number(a))\n",
        (
            f"{BUNDLE}::test_n2_inverse_reference",
            "tests/test_reliability.py::TestFactorizedRoute::test_three_boundary_glued_complete_graphs",
            "tests/test_reliability.py::TestFactorizedRoute::test_interior_terminals_supported",
        ),
    ),
    Mutant(
        "a high edge of the oracle stays operative when it is down",
        "relfact/enumeration.py",
        "for is_up, w in ((False, down), (True, up)) if w]",
        "for is_up, w in ((True, down), (True, up)) if w]",
        (
            "tests/test_reliability.py::TestBitParallelOracle::test_all_certain_24_edges_stay_fast",
            "tests/test_reliability.py::TestBitParallelOracle::test_24_edges_at_the_default_bound[grid4x4]",
        ),
    ),
    Mutant(
        "the oracle's mass tables split the low edges one apart",
        "relfact/enumeration.py",
        "    cols, rows = _products(low[3 : 3 + half]), _products(low[3 + half :])\n",
        "    cols, rows = _products(low[3 : 3 + half]), _products(low[4 + half :])\n",
        (
            "tests/test_reliability.py::TestBruteForce::test_bridge_regression",
            "tests/test_reliability.py::TestBitParallelOracle::test_24_edges_at_the_default_bound[grid4x4]",
        ),
    ),
    Mutant(
        "the integer form identifies no boundary nodes",
        "relfact/graphs.py",
        "            uf.union(x, boundary[a.labels.index(k)])\n",
        "            uf.union(x, x)\n",
        (
            "tests/test_graphs.py::TestIdentifyNodes::test_integer_form_numbers_in_name_order_and_merges_transitively",
            "tests/test_reliability.py::TestConditionedReliability::test_lemma_sum",
        ),
    ),
    # the one initializer of the value types that only store their fields
    Mutant(
        "the initializer stores keyword arguments in the order given",
        "relfact/base.py",
        "        self._set(*args, *[kwargs[key] for key in rest])\n",
        "        self._set(*args, *kwargs.values())\n",
        (f"{INITIALIZER}::test_position_and_keyword_give_equal_values[ConnectivityBundle]",),
    ),
    Mutant(
        "the initializer accepts an unknown keyword",
        "relfact/base.py",
        "            if key not in rest:\n",
        "            if key in names[: len(args)]:\n",
        (f"{INITIALIZER}::test_a_missing_repeated_or_unknown_argument_raises_type_error[InvariantFactors]",),
    ),
    # the commands: a refusal and the comparisons that decide exit 4
    Mutant(
        "the joint route takes terminals off the boundary",
        "relfact/commands/factor.py",
        "        if off_cut:\n",
        "        if False:\n",
        (f"{FACTOR}::test_joint_route_refuses_terminals_off_the_boundary",),
    ),
    *(
        Mutant(
            f"verify reports {what} that agrees",
            "relfact/commands/verify.py",
            text,
            text.replace(" != ", " == "),
            (f"{MISMATCH}[{case}]", f"{VERIFY}::test_fixture_directory"),
        )
        for what, text, case in (
            ("a factoring value", "    if factored != brute:\n", "factoring"),
            ("a factorized value", "    if cut.factorization_detail(d, jobs=jobs).value != brute:\n", "factorized"),
            ("a joint-state sum", "        if joint_reliability(d1, d2) != brute:\n", "joint"),
            ("a two-node closed form", "    if d.n == 2 and cut.n2_closed_form(d) != brute:\n", "n2"),
            ("a cluster weight", "        if w1 != brute:\n", "cluster weight"),
            ("a cluster derivative", "        if cut.factorized_dq(d, jobs=jobs, bound=bound) != w1:\n", "cluster derivative"),
        )
    ),
    Mutant(
        "factor --verify reports a value that agrees",
        "relfact/commands/factor.py",
        "        if oracle != value:\n",
        "        if oracle == value:\n",
        (f"{FACTOR}::test_verify_flag_mismatch_exit_4", f"{FACTOR}::test_verify_flag"),
    ),
]


def mutate(m: Mutant, src: Path) -> str | None:
    """Apply m to the copy of src/ at src; the reason it cannot, or None."""
    path = src / m.file
    text = path.read_text()
    count = text.count(m.text)
    if count != 1:
        return f"its text occurs {count} times in src/{m.file}, not once"
    path.write_text(text.replace(m.text, m.replacement))
    return None


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def verdict(m: Mutant) -> tuple[bool, str]:
    """(killed, what happened) for one mutant, run against its own copy."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        stale = mutate(m, src)
        if stale:
            return False, f"stale: {stale}"
        # the copy's src goes first on the path; run in tmp, so caches land there
        command = [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), "-o", f"pythonpath={src}",
            *(str(ROOT / t) for t in m.tests),
        ]  # fmt: skip
        try:
            proc = subprocess.run(
                command, cwd=tmp, capture_output=True, text=True, timeout=LIMIT_S, preexec_fn=_limit_memory
            )
        except subprocess.TimeoutExpired:
            return True, f"killed by the {LIMIT_S} s time limit"
        # pytest writes "FAILED <path from tmp>::<test> - <message>"
        failed = []
        for line in proc.stdout.splitlines():
            if line.startswith("FAILED "):
                path, sep, test = line[7:].split(" - ")[0].partition("::")
                failed.append(os.path.relpath(Path(tmp).resolve() / path, ROOT) + sep + test)
    if proc.returncode == 0:
        return False, "survived"
    if proc.returncode == 1 and failed:
        return True, f"killed by {failed[0]}"
    tail = " | ".join(proc.stdout.strip().splitlines()[-3:])
    return False, f"tests did not run (pytest exit {proc.returncode}): {tail}"


def check(mutants: list[Mutant]) -> int:
    """Judge every mutant, one line each; 0 when all are killed, else 1."""
    status = 0
    for m in mutants:
        killed, what = verdict(m)
        print(f"{'ok  ' if killed else 'FAIL'} {m.name}: {what}", flush=True)
        status |= not killed
    return status


if __name__ == "__main__":
    sys.exit(check(MUTANTS))
