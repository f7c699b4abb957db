"""Workload inputs depend on the seed and on nothing else."""

import json
import subprocess
import sys

import pytest

from conftest import BENCH
from workloads import BUILDERS


def fingerprint(workload) -> str:
    return json.dumps(
        [(inv.key, inv.args, inv.doc) for inv in workload.invocations], sort_keys=True
    )


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_same_seed_same_inputs(name):
    assert fingerprint(BUILDERS[name](7)) == fingerprint(BUILDERS[name](7))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_other_seed_other_inputs_same_shape(name):
    a, b = BUILDERS[name](1), BUILDERS[name](2)
    assert fingerprint(a) != fingerprint(b)
    assert [inv.key for inv in a.invocations] == [inv.key for inv in b.invocations]
    for x, y in zip(a.invocations, b.invocations):
        if x.doc is not None and "edges" in x.doc:
            assert len(x.doc["edges"]) == len(y.doc["edges"])


def test_inputs_ignore_hash_seed():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from workloads import BUILDERS; "
        "print(json.dumps([[(i.key, i.args, i.doc) for i in BUILDERS[w](3).invocations] "
        "for w in sorted(BUILDERS)], sort_keys=True))"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code, str(BENCH)],
            env={"PYTHONHASHSEED": hs},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hs in ("0", "4242")
    }
    assert len(outs) == 1


def test_grid_cuts_share_the_union():
    from inputs import grid_cut, grid_edges, grid_terminals, rng_for, union_of

    edges = grid_edges(3, 5, rng_for("t", 1))
    terminals = grid_terminals(3, 5, (1, 2))
    u1 = union_of(grid_cut(3, 5, edges, terminals, 1))
    u2 = union_of(grid_cut(3, 5, edges, terminals, 2))
    assert u1 == u2
    assert len(u1["edges"]) == 22
