"""The benchmark's own oracles and its failure classification."""

import json
import sys
from fractions import Fraction as F

import checks
import inputs
import spawn
from checks import BYTES, EXIT, TRACEBACK, UNCHECKED, WRONG, classify
from run import Record, evaluate, ranked_median
from workloads import chain, cut_grid


def test_path_closed_form_tiny():
    assert checks.path_reliability([F(1, 2), F(1, 3)]) == F(1, 6)
    assert checks.path_reliability([]) == 1


def test_necklace_closed_form_tiny():
    assert checks.necklace_reliability([(F(1, 2), F(1, 2))]) == F(3, 4)
    assert checks.necklace_reliability([(F(1, 2), F(1, 3)), (F(1, 4), F(1, 5))]) == F(2, 3) * F(2, 5)


def test_enumeration_matches_closed_forms():
    rng = inputs.rng_for("test", 0)
    probs = [inputs.random_prob(rng) for _ in range(6)]
    assert checks.enumerate_reliability(inputs.path_graph(probs)) == checks.path_reliability(probs)
    beads = [(inputs.random_prob(rng), inputs.random_prob(rng)) for _ in range(4)]
    assert checks.enumerate_reliability(inputs.necklace_graph(beads)) == checks.necklace_reliability(beads)


def test_enumeration_two_node_bridge():
    # two terminals joined by one edge of probability 1/3, or by a two-edge
    # detour through x of probability 1/2 each: 1 - (2/3)(3/4) = 1/2
    g = inputs.graph(
        ["s", "t", "x"],
        [
            inputs.edge(1, "s", "t", F(1, 3)),
            inputs.edge(2, "s", "x", F(1, 2)),
            inputs.edge(3, "x", "t", F(1, 2)),
        ],
        ["s", "t"],
    )
    assert checks.enumerate_reliability(g) == F(1, 2)


def test_joint_sum_and_polynomial():
    assert checks.joins_to_top([[1], [2, 3]], [[1, 2], [3]], 3)
    assert not checks.joins_to_top([[1], [2, 3]], [[1], [2], [3]], 3)
    # boundary {1,2}: side 1 links them w.p. 1/2, side 2 w.p. 1/3
    d1, d2 = {"12": "1/2", "1|2": "1/2"}, {"12": "1/3", "1|2": "2/3"}
    assert checks.joint_sum(d1, d2, 2) == 1 - F(1, 2) * F(2, 3)
    # one edge: C = [0, 1]
    assert checks.polynomial_value([0, 1], F(2, 7)) == F(2, 7)


def test_classify_exit_and_traceback():
    assert classify(0, "timing_ms=1.0\n") is None
    assert classify(3, "validation error: x\n").kind == EXIT
    tb = "Traceback (most recent call last):\n  File ...\nRecursionError: too deep\n"
    f = classify(1, tb)
    assert f.kind == TRACEBACK and "RecursionError" in f.detail
    assert classify(None, "", timed_out=True).kind == "timeout"


def test_classify_real_children(tmp_path):
    env = {"PATH": "/usr/bin:/bin"}
    quit3 = spawn.spawn([sys.executable, "-c", "raise SystemExit(3)"], tmp_path, env, timeout=60)
    assert classify(quit3.returncode, quit3.stderr).kind == EXIT
    crash = spawn.spawn([sys.executable, "-c", "1/0"], tmp_path, env, timeout=60)
    assert classify(crash.returncode, crash.stderr).kind == TRACEBACK
    fine = spawn.spawn([sys.executable, "-c", "print('ok')"], tmp_path, env, timeout=60)
    assert classify(fine.returncode, fine.stderr) is None
    assert fine.stdout == b"ok\n" and fine.max_rss_kb > 0


def _chain_answers(workload):
    """Correct stdout for each chain invocation, as the CLI prints it."""
    out = {}
    for inv in workload.invocations:
        probs = [F(e["p"]) for e in sorted(inv.doc["edges"], key=lambda e: e["id"])]
        if inv.key.startswith("path"):
            value = checks.path_reliability(probs)
        else:
            value = checks.necklace_reliability(list(zip(probs[::2], probs[1::2])))
        out[inv.key] = json.dumps({"reliability": checks.frac_str(value), "route": "factoring"}).encode()
    return out


def test_evaluate_marks_wrong_answers_and_byte_drift():
    w = chain(5)
    good = _chain_answers(w)
    wrong = json.dumps({"reliability": "1/2"}).encode()
    first = [Record(k, 0.1, v, None) for k, v in good.items()]
    first[0] = Record(first[0].key, 0.1, wrong, None)
    first[1] = Record(first[1].key, 0.1, b"", classify(1, "Traceback (most recent call last):\nX\n"))
    second = [Record(k, 0.1, v, None) for k, v in good.items()]
    second[0] = Record(second[0].key, 0.1, wrong, None)
    second[3] = Record(second[3].key, 0.1, good[second[3].key] + b" ", None)
    records = evaluate(w, [first, second], {})
    kinds = {(i // len(good), r.key): r.failure.kind for i, r in enumerate(records) if r.failure}
    keys = [inv.key for inv in w.invocations]
    assert kinds == {
        (0, keys[0]): WRONG,
        (1, keys[0]): WRONG,
        (0, keys[1]): TRACEBACK,
        (1, keys[1]): BYTES,  # printed an answer where the first pass crashed
        (1, keys[3]): BYTES,
    }


def test_evaluate_grid_disagreement_and_jobs2():
    w = cut_grid(1)
    keys = [inv.key for inv in w.invocations]
    grid4 = [k for k in keys if k.startswith("grid3x4")]
    grid5 = [k for k in keys if k.startswith("grid3x5")]
    stdout = {}
    for k in keys:
        stdout[k] = json.dumps({"reliability": "1/3"}).encode()
    # the 3x5 grid agrees across cuts (no enumeration above 20 edges), one
    # 3x4 cut disagrees with the others
    stdout[grid4[0]] = json.dumps({"reliability": "1/4"}).encode()
    first = [Record(k, 0.1, stdout[k], None) for k in keys]
    jobs2 = {k: Record(k, 0.1, stdout[k], None) for k in keys}
    jobs2[grid5[0]] = Record(grid5[0], 0.1, stdout[grid5[0]] + b"\n", None)
    records = evaluate(w, [first], jobs2)
    kinds = {r.key: r.failure.kind for r in records if r.failure}
    assert {k: kinds[k] for k in grid4} == {k: WRONG for k in grid4}
    assert kinds[grid5[0]] == BYTES
    assert all(k not in kinds for k in grid5[1:])


def test_unchecked_when_partner_fails():
    w = cut_grid(1)
    keys = [inv.key for inv in w.invocations]
    first = [Record(k, 0.1, json.dumps({"reliability": "1/3"}).encode(), None) for k in keys]
    first[0] = Record(keys[0], 0.1, b"", classify(2, "input error\n"))
    kinds = {r.key: r.failure.kind for r in evaluate(w, [first], {}) if r.failure}
    assert kinds[keys[0]] == EXIT
    assert all(kinds[k] == UNCHECKED for k in keys[1:4])


def test_ranked_median_puts_failures_last():
    assert ranked_median([1.0, 2.0, 3.0], []) == 2.0
    assert ranked_median([5.0, 6.0], [0.1]) == 6.0
    assert ranked_median([1.0], [0.1, 0.2]) == 0.1
