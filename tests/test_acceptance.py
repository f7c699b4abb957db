"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Everything asserts exact rational equality; the stated time
budgets are asserted too.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import reference_matrices as ref
from conftest import dense_inverse_form
from corpus import bridge_decomposition, corpus, decomposition_to_obj
from elimination import fraction_free_determinant, rational_inverse_oracle, smith_normal_form
from lattice import connectivity_matrix_det, diagonal_factor, gamma_graph, leading_term, orbits, parse_partition
from relfact import jsonio
from relfact.cluster import dq_at_zero, partition_function
from relfact.conmatrix import connectivity_matrix, connectivity_number, invert_connectivity_matrix
from relfact.cut import CutDecomposition, factorization_detail, factorized_dq, n2_closed_form
from relfact.enumeration import reliability_bruteforce
from relfact.linalg import abelian_signature, diagonal_smith_form
from relfact.partitions import ORDER_VARIANTS, all_partitions, coherent_order
from relfact.reliability import reliability_factoring
from relfact.states import joint_reliability, reliability_polynomial, state_distribution

ACCEPT_SEED = 2027
PER_N = 100
CORPUS_NS = (1, 2, 3, 4)


def report(num: int, message: str, elapsed: float | None = None) -> None:
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {num}: PASS - {message}{timing}")


@pytest.fixture(scope="module")
def bundles():
    out = {}
    for n in range(1, 6):
        out[(n, "canonical")] = invert_connectivity_matrix(coherent_order(n))
    for n in CORPUS_NS:
        out[(n, "reversed-levels")] = invert_connectivity_matrix(
            coherent_order(n, "reversed-levels")
        )
    return out


@pytest.fixture(scope="module")
def accept_corpus():
    return {n: corpus(ACCEPT_SEED, n, PER_N) for n in CORPUS_NS}


@pytest.fixture(scope="module")
def route_run(accept_corpus):
    """All four routes on the whole corpus, with the wall time they took."""
    started = time.perf_counter()
    results = {}
    for n in CORPUS_NS:
        rows = []
        for d in accept_corpus[n]:
            union = d.union
            brute = reliability_bruteforce(union)
            factored = reliability_factoring(union)
            detail = factorization_detail(d)
            joint = joint_reliability(
                state_distribution(d.g1, d.boundary),
                state_distribution(d.g2, d.boundary),
            )
            rows.append(
                {
                    "d": d,
                    "detail": detail,
                    "brute": brute,
                    "factoring": factored,
                    "factorized": detail.value,
                    "joint": joint,
                }
            )
        results[n] = rows
    return {"results": results, "elapsed": time.perf_counter() - started}


def _compare_by_labels(got, order, labels, expected, scale=1):
    for i, ri in enumerate(labels):
        for j, rj in enumerate(labels):
            gi = order.position(parse_partition(ri))
            gj = order.position(parse_partition(rj))
            assert got[gi][gj] == Fraction(expected[i][j], scale), (ri, rj)


def test_criterion_1_reference_matrix_fixtures():
    started = time.perf_counter()
    b2 = invert_connectivity_matrix(coherent_order(2))
    _compare_by_labels(b2.A, b2.order, ref.N2_ORDER, ref.N2_A)
    _compare_by_labels(b2.A_inv, b2.order, ref.N2_ORDER, ref.N2_A_INV)

    b3 = invert_connectivity_matrix(coherent_order(3))
    _compare_by_labels(b3.A, b3.order, ref.N3_ORDER, ref.N3_A)
    _compare_by_labels(b3.A_inv, b3.order, ref.N3_ORDER, ref.N3_A_INV_NUM, ref.N3_A_INV_DEN)
    _compare_by_labels(b3.B, b3.order, ref.N3_ORDER, ref.N3_B)
    _compare_by_labels(b3.D, b3.order, ref.N3_ORDER, ref.N3_D)
    c3 = diagonal_factor(b3)
    for j, label in enumerate(ref.N3_ORDER):
        k = b3.order.position(parse_partition(label))
        assert c3[k][k] == ref.N3_C_DIAG[j]

    b4 = invert_connectivity_matrix(coherent_order(4))
    _compare_by_labels(b4.A, b4.order, ref.N4_ORDER, ref.N4_A)
    _compare_by_labels(b4.A_inv, b4.order, ref.N4_ORDER, ref.N4_A_INV_NUM, ref.N4_A_INV_DEN)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, "n=2,3,4 matrices, inverses, and n=3 B/C/D match entry for entry", elapsed)


def test_criterion_2_determinants():
    started = time.perf_counter()
    assert abs(connectivity_matrix_det(3)) == 2
    assert abs(connectivity_matrix_det(4)) == 384
    expected5 = 1
    for size, blocks in ref.N5_ORBITS:
        expected5 *= math.factorial(blocks - 1) ** size
    assert abs(connectivity_matrix_det(5)) == expected5
    for n in (3, 4, 5):  # det A = prod(alpha), against elimination
        assert connectivity_matrix_det(n) == fraction_free_determinant(connectivity_matrix(coherent_order(n)))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"|det| = 2, 384, {expected5} for n = 3, 4, 5", elapsed)


def test_criterion_3_invariant_factors():
    started = time.perf_counter()
    expectations = {
        3: [2],
        4: [6] + [2] * 6,
        5: [24] + [6] * 10 + [2] * 25,
    }
    for n, cyclic in expectations.items():
        bundle = invert_connectivity_matrix(coherent_order(n))
        factors = smith_normal_form(bundle.A)
        assert factors.torsion_prime_powers == abelian_signature(cyclic), n
        # the Smith form read off the Moebius diagonal, against elimination
        assert diagonal_smith_form([abs(a) for a in bundle.alpha]) == factors, n
    # the stated n=5 group in both of its decompositions
    assert abelian_signature([24] + [6] * 10 + [2] * 25) == abelian_signature(
        [8] + [3] * 11 + [2] * 35
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, "SNF torsion matches the stated groups for n = 3, 4, 5", elapsed)


def test_criterion_4_inverse_crosscheck(bundles):
    started = time.perf_counter()
    for n in range(2, 6):
        b = bundles[(n, "canonical")]
        assert b.A_inv == rational_inverse_oracle(b.A), n
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(4, "B*C*D equals the elimination inverse bitwise for n = 2..5", elapsed)


def test_criterion_5_four_route_equality(route_run):
    total = 0
    for n in CORPUS_NS:
        rows = route_run["results"][n]
        assert len(rows) >= 100
        for row in rows:
            assert row["factoring"] == row["brute"], (n, row["d"])
            assert row["factorized"] == row["brute"], (n, row["d"])
            assert row["joint"] == row["brute"], (n, row["d"])
        total += len(rows)
    assert route_run["elapsed"] < 60.0
    report(
        5,
        f"enumeration = factoring = factorized = joint on {total} graphs "
        f"(n = 1..4)",
        route_run["elapsed"],
    )


def test_criterion_6_two_node_closed_form(route_run, accept_corpus):
    started = time.perf_counter()
    for row in route_run["results"][2]:
        assert n2_closed_form(row["d"]) == row["factorized"]
    degenerate = 0
    for d1 in accept_corpus[1][:25]:
        d = CutDecomposition(g1=d1.g1, g2=d1.g2, boundary=(d1.boundary[0], d1.boundary[0]))
        product = reliability_factoring(d.g1) * reliability_factoring(d.g2)
        assert n2_closed_form(d) == product
        assert factorization_detail(d).value == product
        degenerate += 1
    elapsed = time.perf_counter() - started
    report(
        6,
        f"closed form matches the theorem on all n=2 instances; "
        f"{degenerate} repeated-node cases reduce to the articulation product",
        elapsed,
    )


def test_criterion_7_connectivity_numbers_and_gamma_graphs():
    started = time.perf_counter()
    for n in range(1, 6):
        alphas = {}
        for a in all_partitions(n):
            alpha = connectivity_number(a)
            assert abs(alpha) == math.factorial(a.block_count - 1), (n, str(a))
            alphas[a] = alpha
        for orbit in orbits(n):
            values = {alphas[a] for a in orbit.members}
            assert len(values) == 1, (n, orbit.signature)
    for n in range(1, 6):
        for a in all_partitions(n):
            poly = reliability_polynomial(gamma_graph(n, a))
            degree = sum(
                len(b1) * len(b2) for i, b1 in enumerate(a.blocks) for b2 in a.blocks[i + 1 :]
            )
            got_degree, coefficient = leading_term(poly)
            assert got_degree == degree, (n, str(a))
            assert abs(coefficient) == math.factorial(a.block_count - 1), (n, str(a))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(
        7,
        "connectivity numbers have magnitude (m-1)!, are constant on orbits, "
        "and the identified-complete-graph polynomials carry them as leading terms",
        elapsed,
    )


def test_criterion_8_order_independence(route_run, bundles):
    started = time.perf_counter()
    total = 0
    for n in CORPUS_NS:
        for row in route_run["results"][n]:
            # the route takes no order; both orders' dense inverses must give its value
            detail = row["detail"]
            for variant in ORDER_VARIANTS:
                assert dense_inverse_form(bundles[(n, variant)], detail.side1, detail.side2) == row["factorized"]
            total += 1
    elapsed = time.perf_counter() - started
    report(8, f"canonical and reversed-level orders agree on {total} graphs", elapsed)


def test_criterion_9_random_cluster():
    started = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        for d in corpus(ACCEPT_SEED + 1, n, 20, terminal_mode="all"):
            union = d.union
            w1 = dq_at_zero(partition_function(union))
            assert w1 == reliability_bruteforce(union)
            assert factorized_dq(d) == w1
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(
        9,
        f"q-linear weight equals all-terminal reliability and factorizes, "
        f"{checked} graphs",
        elapsed,
    )


def test_criterion_10_parallel_determinism(tmp_path):
    started = time.perf_counter()
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    paths = []
    d = bridge_decomposition()
    (fixtures / "bridge.json").write_text(jsonio.dumps_canonical(decomposition_to_obj(d)))
    paths.append(fixtures / "bridge.json")
    for n in (1, 2, 3):
        for i, dd in enumerate(corpus(ACCEPT_SEED + 2, n, 2)):
            p = fixtures / f"n{n}_{i}.json"
            p.write_text(jsonio.dumps_canonical(decomposition_to_obj(dd)))
            paths.append(p)

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "relfact", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for path in paths:
        outs = {
            jobs: run("factor", "--input", str(path), "--output", "json", "--jobs", jobs)
            for jobs in ("1", "auto")
        }
        assert outs["1"] == outs["auto"], path
    verify_outs = {
        jobs: run("verify", "--input", str(fixtures), "--output", "json", "--jobs", jobs)
        for jobs in ("1", "auto")
    }
    assert verify_outs["1"] == verify_outs["auto"]
    elapsed = time.perf_counter() - started
    report(10, f"byte-identical output for --jobs 1 and --jobs auto on {len(paths)} fixtures", elapsed)
