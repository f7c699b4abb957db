"""Work counters repeat exactly between traced runs and hash seeds."""

import json
import subprocess
import sys

from conftest import BENCH

import tracing

ROOT = BENCH.parent

# Traces a few small invocations (a 3x4 grid cut, a verify run, a path) and
# prints the deterministic counters as JSON.
SCRIPT = r"""
import json, sys
from pathlib import Path
bench, src, tmp = sys.argv[1:4]
sys.path[:0] = [bench, src]
import relfact.cli
import inputs, tracing

rng = inputs.rng_for("counters", 1)
edges = inputs.grid_edges(3, 4, rng)
docs = {
    "grid": inputs.grid_cut(3, 4, edges, inputs.grid_terminals(3, 4, (1, 2)), 1),
    "dec": inputs.random_decomposition(rng, rng, 2, (2, 2), (1, 1), "boundary"),
    "path": inputs.path_graph([inputs.random_prob(rng) for _ in range(30)]),
}
for name, doc in docs.items():
    Path(tmp, name + ".json").write_text(json.dumps(doc))
calls = [
    ["factor", "--route", "factorized", "--input", f"{tmp}/grid.json"],
    ["verify", "--input", f"{tmp}/dec.json"],
    ["reliability", "--input", f"{tmp}/path.json"],
]
tracer = tracing.Tracer()
with tracer.installed():
    for argv in calls:
        code, out, err, escaped = tracing.call_cli(argv + ["--output", "json"])
        assert code == 0 and escaped is None, (argv, code, err)
m = tracer.metrics()
print(json.dumps({k: m[k] for k in tracing.DETERMINISTIC}))
"""


def traced_counters(hash_seed: str, tmp) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(BENCH), str(ROOT / "src"), str(tmp)],
        env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_counters_repeat_across_runs_and_hash_seeds(tmp_path):
    first = traced_counters("0", tmp_path)
    assert traced_counters("0", tmp_path) == first
    assert traced_counters("977", tmp_path) == first
    assert set(first) == set(tracing.DETERMINISTIC)
    assert all(v > 0 for v in first.values()), first


def test_tracing_restores_the_package(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import relfact.cli
        import relfact.reliability

        before = relfact.reliability.reliability_factoring
        tracer = tracing.Tracer()
        with tracer.installed():
            assert relfact.reliability.reliability_factoring is not before
            assert relfact.cli.reliability.reliability_factoring is relfact.reliability.reliability_factoring
        assert relfact.reliability.reliability_factoring is before
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    # span 0 covers [0, 10], its child span 1 covers [2, 5]
    for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0)):
        tracer.name.append(name)
        tracer.parent.append(parent)
        tracer.invocation.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    m = tracer.metrics()
    first, second = tracing.TRACED_NAMES[:2]
    assert m[f"{first}.self_s"] == 7.0 and m[f"{second}.self_s"] == 3.0
    assert m[f"{first}.calls"] == 1 and m[f"{second}.calls"] == 1
