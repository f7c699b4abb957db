import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from relfact import cli, jsonio, reliability
from relfact.corpus import bridge_decomposition, bridge_graph, corpus
from relfact.graphs import Edge, StochasticGraph


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "relfact", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def write_graph(path, g):
    path.write_text(jsonio.dumps_canonical(jsonio.graph_to_obj(g)))
    return str(path)


def write_decomposition(path, d):
    path.write_text(jsonio.dumps_canonical(jsonio.decomposition_to_obj(d)))
    return str(path)


def wide_boundary_doc(k):
    """A path over k boundary nodes on one side, a star from a hub over
    them on the other."""
    b = [f"b{i}" for i in range(1, k + 1)]
    return {
        "g1": {"nodes": b, "terminals": b, "edges": [
            {"id": i, "u": b[i - 1], "v": b[i], "p": "1/2"} for i in range(1, k)]},
        "g2": {"nodes": b + ["h"], "terminals": b, "edges": [
            {"id": k - 1 + i, "u": "h", "v": b[i - 1], "p": "1/2"} for i in range(1, k + 1)]},
        "boundary": b,
    }


@pytest.fixture
def series_pair(tmp_path):
    g = StochasticGraph(
        nodes=frozenset({"a", "b", "c"}),
        edges=(Edge(1, "a", "b", Fraction(1, 2)), Edge(2, "b", "c", Fraction(1, 2))),
        terminals=frozenset({"a", "c"}),
    )
    return write_graph(tmp_path / "series.json", g)


class TestReliabilityCommand:
    def test_series_pair_text(self, series_pair):
        proc = run_cli("reliability", "--input", series_pair)
        assert proc.returncode == 0
        assert "reliability = 1/4" in proc.stdout

    def test_routes_agree(self, tmp_path):
        path = write_graph(tmp_path / "bridge.json", bridge_graph())
        values = set()
        for route in ("bruteforce", "factoring"):
            proc = run_cli("reliability", "--input", path, "--route", route, "--output", "json")
            assert proc.returncode == 0
            values.add(json.loads(proc.stdout)["reliability"])
        assert values == {"23/32"}

    def test_unreachable_terminal_zero_with_warning(self, tmp_path):
        g = StochasticGraph(
            nodes=frozenset({"a", "b", "z"}),
            edges=(Edge(1, "a", "b", Fraction(1, 2)),),
            terminals=frozenset({"a", "z"}),
        )
        path = write_graph(tmp_path / "stranded.json", g)
        proc = run_cli("reliability", "--input", path, "--output", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["reliability"] == "0/1"
        assert "warning" in proc.stderr

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        proc = run_cli("reliability", "--input", str(path))
        assert proc.returncode == 2

    def test_semantic_error_exit_3(self, tmp_path):
        doc = {
            "nodes": ["a"],
            "edges": [{"id": 1, "u": "a", "v": "b", "p": "1/2"}],
            "terminals": [],
        }
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("reliability", "--input", str(path))
        assert proc.returncode == 3

    def test_bound_env_override(self, tmp_path, monkeypatch):
        import os

        path = write_graph(tmp_path / "bridge.json", bridge_graph())
        env = dict(os.environ, RELFACT_BOUND="3")
        proc = run_cli("reliability", "--input", path, "--route", "bruteforce", env=env)
        assert proc.returncode == 3
        assert "enumeration bound" in proc.stderr


    @pytest.mark.parametrize("length", [1500, 5000])
    def test_long_path_factoring(self, tmp_path, length):
        probs = [Fraction(i % 3 + 1, i % 3 + 2) for i in range(length - 1)]
        names = [f"v{i}" for i in range(length)]
        g = StochasticGraph(
            nodes=frozenset(names),
            edges=tuple(Edge(i + 1, names[i], names[i + 1], p) for i, p in enumerate(probs)),
            terminals=frozenset({names[0], names[-1]}),
        )
        path = write_graph(tmp_path / "path.json", g)
        proc = run_cli("reliability", "--input", path, "--route", "factoring", "--output", "json")
        assert proc.returncode == 0
        assert re.fullmatch(r"timing_ms=[0-9.]+\n", proc.stderr)
        assert json.loads(proc.stdout)["reliability"] == jsonio.fraction_to_str(math.prod(probs))

    def test_answer_longer_than_int_str_limit(self, tmp_path):
        # 9**4999 has 4770 digits, more than the interpreter's default
        # int/str limit of 4300
        names = [f"v{i}" for i in range(5000)]
        g = StochasticGraph(
            nodes=frozenset(names),
            edges=tuple(Edge(i + 1, names[i], names[i + 1], Fraction(1, 9)) for i in range(4999)),
            terminals=frozenset({names[0], names[-1]}),
        )
        path = write_graph(tmp_path / "path.json", g)
        proc = run_cli("reliability", "--input", path, "--route", "factoring", "--output", "json")
        assert proc.returncode == 0
        num, den = json.loads(proc.stdout)["reliability"].split("/")
        value = 0
        for i in range(0, len(den), 1000):  # int(den) would meet the limit
            value = value * 10 ** len(den[i : i + 1000]) + int(den[i : i + 1000])
        assert (num, value) == ("1", 9**4999)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"[" * 100000, "nested too deeply"),
            (b"\xff\xfe{}", "cannot read"),
            (b'{"nodes": ' + b"1" * 5000 + b"}", "malformed JSON"),
        ],
        ids=["deep", "not-utf8", "long-int"],
    )
    def test_undecodable_input_exit_2(self, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        proc = run_cli("reliability", "--input", str(path))
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_boolean_edge_id_exit_2(self, tmp_path):
        doc = {
            "nodes": ["a", "b"],
            "edges": [{"id": True, "u": "a", "v": "b", "p": "1/2"}],
            "terminals": ["a", "b"],
        }
        path = tmp_path / "bool_id.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("reliability", "--input", str(path))
        assert proc.returncode == 2
        assert "'id'" in proc.stderr

    @pytest.mark.parametrize("prob", ["1e-100000", "1e-999999999"])
    def test_huge_decimal_exponent_exit_2(self, tmp_path, prob):
        doc = {
            "nodes": ["a", "b"],
            "edges": [{"id": 1, "u": "a", "v": "b", "p": prob}],
            "terminals": ["a", "b"],
        }
        path = tmp_path / "huge_exponent.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("reliability", "--input", str(path))
        assert proc.returncode == 2
        assert prob in proc.stderr
        assert proc.stdout == ""


def all_terminal_bridge():
    g = bridge_graph()
    return StochasticGraph(nodes=g.nodes, edges=g.edges, terminals=g.nodes)


class TestEnumerationBound:
    @pytest.mark.parametrize(
        "argv, doc",
        [
            (("reliability", "--route", "bruteforce"), "graph"),
            (("polynomial",), "graph"),
            (("rcm",), "graph"),
            (("distribution",), "decomposition"),
            (("factor", "--route", "joint", "--verify"), "decomposition"),
        ],
        ids=["bruteforce", "polynomial", "rcm", "distribution", "joint"],
    )
    def test_every_enumeration_route_names_the_bound(self, tmp_path, argv, doc):
        if doc == "graph":
            path = write_graph(tmp_path / "g.json", all_terminal_bridge())
        else:
            path = write_decomposition(tmp_path / "d.json", bridge_decomposition())
        proc = run_cli(*argv, "--input", path, "--bound", "2")
        assert proc.returncode == 3
        assert "enumeration bound 2" in proc.stderr
        assert "--bound" in proc.stderr and "RELFACT_BOUND" in proc.stderr
        assert "factoring" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_bad_bound_flag_exit_2(self, series_pair, value):
        proc = run_cli("reliability", "--input", series_pair, "--bound", value)
        assert proc.returncode == 2
        assert "argument --bound" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("value", ["0", "-1", "x", ""])
    def test_bad_bound_env_exit_2(self, series_pair, value):
        env = dict(os.environ, RELFACT_BOUND=value)
        proc = run_cli("reliability", "--input", series_pair, env=env)
        assert proc.returncode == 2
        assert "RELFACT_BOUND must be" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_order_is_not_an_option_of_reliability(self, series_pair):
        # only factor and conmatrix read --order
        assert main_exit_code(["reliability", "--input", series_pair, "--order", "canonical"]) == 2

    def test_bound_flag_overrides_env(self, series_pair):
        env = dict(os.environ, RELFACT_BOUND="x")
        proc = run_cli("reliability", "--input", series_pair, "--bound", "5", env=env)
        assert proc.returncode == 0
        assert "reliability = 1/4" in proc.stdout


class TestFactorCommand:
    def test_bridge_value_and_matrix_echo(self, tmp_path):
        path = write_decomposition(tmp_path / "bridge.json", bridge_decomposition())
        proc = run_cli("factor", "--input", path, "--output", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["reliability"] == "23/32"
        assert doc["n"] == 2
        assert doc["b_matrix"] == [["-1/1", "1/1"], ["1/1", "0/1"]]
        assert doc["side_reliabilities"]["g1"]["12"] == "1/1"

    def test_verify_flag(self, tmp_path):
        path = write_decomposition(tmp_path / "bridge.json", bridge_decomposition())
        proc = run_cli("factor", "--input", path, "--verify")
        assert proc.returncode == 0
        assert "verified" in proc.stdout

    def test_json_output_reparses_canonically(self, tmp_path):
        path = write_decomposition(tmp_path / "bridge.json", bridge_decomposition())
        proc = run_cli("factor", "--input", path, "--output", "json")
        assert jsonio.dumps_canonical(json.loads(proc.stdout)) == proc.stdout

    def test_routes(self, tmp_path):
        path = write_decomposition(tmp_path / "bridge.json", bridge_decomposition())
        for route in ("factorized", "joint", "n2"):
            proc = run_cli("factor", "--input", path, "--route", route, "--output", "json")
            assert proc.returncode == 0
            assert json.loads(proc.stdout)["reliability"] == "23/32"

    def test_hypothesis1_violation_exit_3(self, tmp_path):
        d = bridge_decomposition()
        broken = {
            "g1": jsonio.graph_to_obj(d.g1),
            "g2": jsonio.graph_to_obj(d.g2),
            "boundary": ["u"],
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        proc = run_cli("factor", "--input", str(path))
        assert proc.returncode == 3

    def test_seven_node_boundary(self, tmp_path):
        # past the connectivity-inverse limit the factorized route refuses;
        # the joint route builds no inverse and still answers
        path = tmp_path / "seven.json"
        path.write_text(json.dumps(wide_boundary_doc(7)))
        proc = run_cli("factor", "--input", str(path), "--route", "factorized")
        assert proc.returncode == 3
        assert "at most 6 nodes" in proc.stderr and proc.stdout == ""
        proc = run_cli("factor", "--input", str(path), "--route", "joint", "--verify")
        assert proc.returncode == 0
        assert "reliability = 1913/8192" in proc.stdout

    @pytest.mark.parametrize("k", [9, 10])
    @pytest.mark.parametrize(
        "argv", [("factor", "--route", "joint"), ("distribution",), ("verify",)]
    )
    def test_boundary_past_the_ground_set_limit(self, tmp_path, capsys, argv, k):
        # refused before any side is solved: no output, one message
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(wide_boundary_doc(k)))
        assert cli.main([*argv, "--input", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"a boundary has 1..8 nodes, got {k}" in err


def side_doc(nodes, terminals, edges):
    return {
        "nodes": nodes,
        "terminals": terminals,
        "edges": [{"id": i, "u": u, "v": v, "p": p} for i, u, v, p in edges],
    }


# the interior terminal z of g1 reaches no boundary node (Hypothesis 2)
STRANDED_DOC = {
    "g1": side_doc(["a", "k", "z"], ["k", "z"], [(1, "a", "k", "1/2")]),
    "g2": side_doc(["b", "k"], ["k"], [(2, "k", "b", "1/2")]),
    "boundary": ["k"],
}
STRANDED_MESSAGE = "Hypothesis 2 violated: terminals ['z'] reach no boundary node"
# a stranded terminal with no boundary at all, and with one past the limit
EMPTY_BOUNDARY_DOC = {
    "g1": side_doc(["a", "x"], ["a"], [(1, "a", "x", "1/2")]),
    "g2": side_doc(["y"], [], []),
    "boundary": [],
}
WIDE_STRANDED_DOC = wide_boundary_doc(9)
WIDE_STRANDED_DOC["g1"] = dict(
    WIDE_STRANDED_DOC["g1"],
    nodes=WIDE_STRANDED_DOC["boundary"] + ["z"],
    terminals=WIDE_STRANDED_DOC["boundary"] + ["z"],
)


class TestHypothesis2:
    """A stranded terminal makes the reliability 0: factor says so with a
    warning, the commands that need the cut refuse the document."""

    @pytest.mark.parametrize("output", ["json", "text"])
    @pytest.mark.parametrize("route", cli.FACTOR_ROUTES)
    def test_factor_answers_zero_with_a_warning(self, tmp_path, capsys, route, output):
        path = tmp_path / "stranded.json"
        path.write_text(json.dumps(STRANDED_DOC))
        argv = ["factor", "--input", str(path), "--route", route, "--output", output]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        if output == "json":
            assert out == f'{{"n":1,"reliability":"0/1","route":"{route}"}}\n'
        else:
            assert out == "reliability = 0/1\n"
        assert f"warning: {STRANDED_MESSAGE}\n" in err

    @pytest.mark.parametrize("route", cli.FACTOR_ROUTES)
    @pytest.mark.parametrize(
        "doc, k", [(EMPTY_BOUNDARY_DOC, 0), (WIDE_STRANDED_DOC, 9)], ids=["empty", "nine"]
    )
    def test_boundary_size_is_checked_first(self, tmp_path, capsys, doc, k, route):
        # no route takes such a boundary, stranded terminal or not
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["factor", "--input", str(path), "--route", route]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"a boundary has 1..8 nodes, got {k}" in err

    @pytest.mark.parametrize("command", ["distribution", "verify"])
    def test_commands_that_need_the_cut_exit_3(self, tmp_path, capsys, command):
        path = tmp_path / "stranded.json"
        path.write_text(json.dumps(STRANDED_DOC))
        assert cli.main([command, "--input", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"validation error: {STRANDED_MESSAGE}\n" in err


# the boundary lists a twice: a partition that joins labels 1, 2 and 3, 4
# must merge a, b and c into one node
REPEATED_BOUNDARY_DOC = {
    "g1": side_doc(["a", "b", "c", "x"], ["a", "b", "c"],
                   [(1, "a", "x", "1/2"), (2, "x", "b", "1/3"), (3, "c", "x", "1/5")]),
    "g2": side_doc(["a", "b", "c", "y"], ["a", "b", "c"],
                   [(4, "a", "y", "1/2"), (5, "y", "b", "2/7"), (6, "c", "b", "3/7")]),
    "boundary": ["a", "b", "a", "c"],
}
# g1 has an interior node named "a+b" next to the boundary nodes a and b
PLUS_NAME_DOC = {
    "g1": side_doc(["a", "a+b", "b"], ["a", "b"], [(1, "a", "a+b", "1/2"), (2, "a+b", "b", "1/2")]),
    "g2": side_doc(["a", "b", "y"], ["a", "b"], [(3, "a", "y", "1/2"), (4, "y", "b", "1/2")]),
    "boundary": ["a", "b"],
}


class TestQuotientNames:
    """Identifying boundary nodes merges them transitively and names each
    merged node after one of its members."""

    @pytest.mark.parametrize(
        "doc, routes, value",
        [
            (REPEATED_BOUNDARY_DOC, ("factorized", "joint"), "128/735"),
            (PLUS_NAME_DOC, cli.FACTOR_ROUTES, "7/16"),
        ],
        ids=["repeated-boundary", "plus-name"],
    )
    def test_every_route_matches_enumeration(self, tmp_path, capsys, doc, routes, value):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for route in routes:
            argv = ["factor", "--input", str(path), "--route", route, "--verify", "--output", "json"]
            assert cli.main(argv) == 0, capsys.readouterr().err
            out = json.loads(capsys.readouterr().out)
            assert (out["reliability"], out["verified_against"]) == (value, value)
        assert cli.main(["verify", "--input", str(path)]) == 0
        assert capsys.readouterr().out == f"doc.json: OK (R = {value})\nall routes agree\n"


class TestConmatrixCommand:
    def test_n2_document(self):
        proc = run_cli("conmatrix", "--n", "2", "--output", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["order"] == ["1|2", "12"]
        assert doc["A"] == [[0, 1], [1, 1]]
        assert doc["A_inv"] == [["-1/1", "1/1"], ["1/1", "0/1"]]
        assert abs(int(doc["det"])) == 1

    def test_n4_det(self):
        proc = run_cli("conmatrix", "--n", "4", "--output", "json")
        doc = json.loads(proc.stdout)
        assert abs(int(doc["det"])) == 384
        assert doc["invariant_factors"][-1] == "6"

    def test_out_of_bounds_exit_2(self):
        assert run_cli("conmatrix", "--n", "9").returncode == 2
        assert run_cli("conmatrix", "--n", "0").returncode == 2

    def test_enumeration_bound_is_not_an_option(self):
        # conmatrix enumerates no states, so it has no --bound to ignore
        assert main_exit_code(["conmatrix", "--n", "3", "--bound", "5"]) == 2

    def test_roundtrip(self):
        proc = run_cli("conmatrix", "--n", "3", "--output", "json")
        doc = json.loads(proc.stdout)
        assert jsonio.dumps_canonical(doc) == proc.stdout


class TestOtherCommands:
    def test_polynomial_triangle(self, tmp_path):
        g = StochasticGraph(
            nodes=frozenset({"a", "b", "c"}),
            edges=(
                Edge(1, "a", "b", Fraction(1, 2)),
                Edge(2, "b", "c", Fraction(1, 2)),
                Edge(3, "a", "c", Fraction(1, 2)),
            ),
            terminals=frozenset({"a", "b", "c"}),
        )
        path = write_graph(tmp_path / "triangle.json", g)
        proc = run_cli("polynomial", "--input", path, "--output", "json")
        assert json.loads(proc.stdout)["coefficients"] == [0, 0, 3, 1]

    def test_distribution(self, tmp_path):
        path = write_decomposition(tmp_path / "bridge.json", bridge_decomposition())
        proc = run_cli("distribution", "--input", path, "--output", "json")
        doc = json.loads(proc.stdout)
        assert doc["g1"] == {"12": "5/8", "1|2": "3/8"}

    def test_rcm(self, tmp_path):
        g = bridge_graph()
        g = StochasticGraph(nodes=g.nodes, edges=g.edges, terminals=g.nodes)
        path = write_graph(tmp_path / "bridge_all.json", g)
        proc = run_cli("rcm", "--input", path, "--output", "json")
        doc = json.loads(proc.stdout)
        assert sum(Fraction(v) for v in doc["Z"].values()) == 1
        assert doc["dZdq_at_0"] == doc["Z"]["1"]

    def test_rcm_names_an_empty_node_set(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"nodes": [], "edges": [], "terminals": []}))
        proc = run_cli("rcm", "--input", str(path))
        assert proc.returncode == 3
        assert "empty node set" in proc.stderr
        assert proc.stdout == ""


class TestVerifyCommand:
    def test_fixture_directory(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        write_decomposition(fixtures / "bridge.json", bridge_decomposition())
        for i, d in enumerate(corpus(97, 2, 2)):
            write_decomposition(fixtures / f"c{i}.json", d)
        for i, d in enumerate(corpus(97, 1, 1, terminal_mode="all")):
            write_decomposition(fixtures / f"all{i}.json", d)
        proc = run_cli("verify", "--input", str(fixtures))
        assert proc.returncode == 0
        assert "all routes agree" in proc.stdout

    def test_all_terminal_file_builds_each_bundle_once(self, monkeypatch, capsys):
        # the cluster derivative reuses the canonical bundle of the factorized route
        built = []
        real = reliability.invert_connectivity_matrix

        def counting(order):
            built.append((order.n, order.variant))
            return real(order)

        monkeypatch.setattr(reliability, "invert_connectivity_matrix", counting)
        assert cli.main(["verify", "--input", str(FIXTURES / "allterm3_0.json")]) == 0
        assert "all routes agree" in capsys.readouterr().out
        assert built == [(3, "canonical"), (3, "reversed-levels")]

    def test_side_disconnected_after_identification(self, tmp_path, capsys):
        # g1 has no edges, so under the all-singleton identification it is
        # two components: its q-linear weight is 0, as its reliability is
        doc = {
            "g1": side_doc(["a", "b"], ["a", "b"], []),
            "g2": side_doc(["a", "b"], ["a", "b"], [(1, "a", "b", "1/2")]),
            "boundary": ["a", "b"],
        }
        path = tmp_path / "edgeless_side.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", "--input", str(path), "--output", "json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["ok"] is True
        assert result["results"][0]["reliability"] == "1/2"
        for route in cli.FACTOR_ROUTES:
            assert cli.main(["factor", "--input", str(path), "--route", route, "--output", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["reliability"] == "1/2"

    def test_empty_directory_exit_2(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run_cli("verify", "--input", str(empty)).returncode == 2


class TestStartup:
    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # the pool is imported only when --jobs > 1 needs it; the value types
        # generate no code, so the import adds no dataclasses (nor the
        # inspect it pulls in), whatever site loaded before it; the package
        # itself still loads every module eagerly
        code = (
            "import sys, json; before = set(sys.modules); import relfact.cli; "
            "print(json.dumps([sorted(sys.modules), sorted(set(sys.modules) - before)]))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded, added = map(set, json.loads(proc.stdout))
        assert "concurrent.futures" not in loaded
        assert "multiprocessing" not in loaded
        assert "dataclasses" not in added
        assert "inspect" not in added
        modules = ("cli", "cluster", "conmatrix", "graphs", "jsonio", "linalg", "partitions", "reliability")
        assert {f"relfact.{m}" for m in modules} <= added


class TestDeterminism:
    def test_jobs_do_not_change_bytes(self, tmp_path):
        path = write_decomposition(tmp_path / "bridge.json", bridge_decomposition())
        runs = [
            run_cli("factor", "--input", path, "--output", "json", "--jobs", jobs)
            for jobs in ("1", "2", "auto")
        ]
        assert all(r.stdout == runs[0].stdout for r in runs)
        assert all(r.returncode == 0 for r in runs)

    def test_pool_starts_no_more_workers_than_side_solves(self, tmp_path, capsys, monkeypatch):
        # a fake pool records its size and maps in-process: no process starts
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        path = tmp_path / "three.json"
        path.write_text(json.dumps(wide_boundary_doc(3)))
        outs = []
        for jobs in ("1", "500"):
            assert cli.main(["factor", "--input", str(path), "--jobs", jobs, "--output", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert sizes == [10]  # Bell(3) = 5 states on each side
        assert outs[0] == outs[1]

    def test_counts_do_not_depend_on_the_hash_seed(self, tmp_path):
        # the frontier kernel orders its work by sorted node names, never by
        # set iteration; rcm refuses the graph with the isolated node, so it
        # also runs without that node
        edges = (
            Edge(1, "d", "a", Fraction(1, 3)),
            Edge(2, "a", "c", Fraction(1, 2)),
            Edge(3, "c", "c", Fraction(2, 7)),
            Edge(4, "c", "b", Fraction(3, 4)),
            Edge(5, "b", "c", Fraction(1, 5)),
            Edge(6, "b", "d", Fraction(5, 6)),
            Edge(7, "a", "b", Fraction(1, 9)),
        )
        isolated = StochasticGraph(frozenset("abcde"), edges, frozenset("abe"))
        connected = StochasticGraph(frozenset("abcd"), edges, frozenset("ab"))
        runs = [
            ("polynomial", write_graph(tmp_path / "isolated.json", isolated)),
            ("rcm", write_graph(tmp_path / "connected.json", connected)),
        ]
        for command, path in runs:
            for output in ("text", "json"):
                procs = [
                    run_cli(command, "--input", path, "--output", output, env=dict(os.environ, PYTHONHASHSEED=seed))
                    for seed in ("0", "1", "977")
                ]
                assert [p.returncode for p in procs] == [0, 0, 0]
                assert procs[0].stdout and all(p.stdout == procs[0].stdout for p in procs)

    def test_oracle_routes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # the enumeration kernel indexes nodes by sorted name and splits a
        # boundary in its listed order, never by set iteration
        ends1 = [("x", "a", "1/3"), ("a", "b", "1/2"), ("b", "c", "2/7"), ("c", "x", "3/4"),
                 ("x", "x", "1/5"), ("a", "b", "1/9")]
        ends2 = [("a", "y", "5/6"), ("y", "c", "1/2"), ("b", "z", "1/3"), ("z", "c", "2/3"), ("y", "z", "1/4")]
        doc = {
            "g1": {"nodes": ["a", "b", "c", "x"], "terminals": ["a", "b", "c"], "edges": [
                {"id": i, "u": u, "v": v, "p": p} for i, (u, v, p) in enumerate(ends1, 1)]},
            "g2": {"nodes": ["a", "b", "c", "y", "z"], "terminals": ["a", "b", "c"], "edges": [
                {"id": i, "u": u, "v": v, "p": p} for i, (u, v, p) in enumerate(ends2, len(ends1) + 1)]},
            "boundary": ["c", "a", "b"],
        }
        decomposition = tmp_path / "d.json"
        decomposition.write_text(json.dumps(doc))
        union = write_graph(tmp_path / "union.json", jsonio.decomposition_from_obj(doc).union)
        runs = [
            (("reliability", "--route", "bruteforce"), union),
            (("distribution",), str(decomposition)),
            (("factor", "--route", "joint", "--verify"), str(decomposition)),
            (("verify",), str(decomposition)),
        ]
        for command, path in runs:
            for output in ("text", "json"):
                procs = [
                    run_cli(*command, "--input", path, "--output", output, env=dict(os.environ, PYTHONHASHSEED=seed))
                    for seed in ("0", "1", "977")
                ]
                assert [p.returncode for p in procs] == [0, 0, 0]
                assert procs[0].stdout and all(p.stdout == procs[0].stdout for p in procs)

    def test_repeat_runs_identical(self, tmp_path):
        path = write_decomposition(tmp_path / "bridge.json", bridge_decomposition())
        a = run_cli("factor", "--input", path, "--output", "json")
        b = run_cli("factor", "--input", path, "--output", "json")
        assert a.stdout == b.stdout


# -- fuzzing the CLI in-process -------------------------------------------------

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
PROBS = st.sampled_from(["1/2", "2/3", "0.9", "1e-3", "0", "1", 0, 1, "3/2", "-1/3", "1/0", "x", 2])


def spots(doc, where=()):
    """The path to every value inside a JSON document, the root included."""
    yield where
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from spots(value, (*where, key))


def damage(doc, where, junk, drop):
    """A copy of doc with the value at where replaced by junk, or its key
    dropped when drop is set and the value sits in an object."""
    if not where:
        return junk
    doc = copy.deepcopy(doc)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if drop and isinstance(parent, dict):
        del parent[where[-1]]
    else:
        parent[where[-1]] = junk
    return doc


def damaged(doc):
    """doc as it is, or with one value of the wrong type or one key missing."""
    return st.one_of(
        st.just(doc),
        st.builds(damage, st.just(doc), st.sampled_from(list(spots(doc))), JUNK, st.booleans()),
    )


def graph_docs(names, ids):
    """Graph documents on the boundary nodes a, b plus some of names; edge
    ids may repeat, endpoints and terminals may lie outside the nodes."""
    with_ab = st.lists(names, max_size=3).map(lambda xs: ["a", "b", *xs])
    edge = st.fixed_dictionaries({"id": ids, "u": names, "v": names, "p": PROBS})
    return st.fixed_dictionaries(
        {"nodes": with_ab, "edges": st.lists(edge, max_size=8), "terminals": with_ab}
    )


SIDE1 = graph_docs(st.sampled_from(["a", "b", "x", "y", "a+b"]), st.integers(1, 4))
SIDE2 = graph_docs(st.sampled_from(["a", "b", "y", "z"]), st.integers(3, 6))
BOUNDARIES = st.sampled_from(
    [["a", "b"]] * 6 + [["a"], ["b", "a"], ["a", "a"], [], ["a", "b", "a"], ["a", "b", "a", "y"]]
)
DECOMPOSITIONS = st.fixed_dictionaries({"g1": SIDE1, "g2": SIDE2, "boundary": BOUNDARIES})
COMMANDS = st.one_of(
    st.tuples(st.sampled_from(cli.GRAPH_ROUTES).map(lambda r: ("reliability", "--route", r)), SIDE1),
    st.tuples(st.sampled_from(cli.FACTOR_ROUTES).map(lambda r: ("factor", "--route", r)), DECOMPOSITIONS),
    st.tuples(st.just(("distribution",)), DECOMPOSITIONS),
    st.tuples(st.sampled_from([("rcm",), ("polynomial",)]), SIDE1),
)


def _not_six(text):
    try:
        return int(text) != 6
    except ValueError:
        return True


# conmatrix --n values: junk text, out-of-range and valid sizes; 6 is left
# out because its connectivity bundle alone takes over a second
SIZES = st.one_of(
    st.integers(-2, 5).map(str),
    st.integers(7, 10**30).map(str),
    st.text(max_size=3).filter(_not_six),
    st.sampled_from(["1.5", "5e0", "0x3", " 3", "+2", "\u0663"]),
)
ORDERS = st.one_of(st.sampled_from(["canonical", "reversed-levels"]), st.text(max_size=4))


# a valid two-node cut: undamaged, its 2 * Bell(2) side solves run in the pool
POOL_DOC = json.loads((FIXTURES / "cut2_0.json").read_text())


def main_exit_code(argv):
    """cli.main's exit code with its output swallowed; argparse's SystemExit
    for a bad option value counts as the code it carries."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


class TestCliFuzz:
    """Every generated document or option value ends in a documented exit
    code; no exception escapes cli.main.

    The many-example cases run in-process at the default --jobs 1: a --jobs
    value above 1 starts a process pool, one process start per case.  A few
    subprocess cases run --jobs 2, so partitions go through the pool.
    """

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command=COMMANDS.flatmap(lambda c: st.tuples(st.just(c[0]), damaged(c[1]))),
           output=st.sampled_from(["json", "text"]))
    def test_documented_exit_codes(self, command, output):
        args, doc = command
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            code = main_exit_code([*args, "--input", str(path), "--output", output])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=DECOMPOSITIONS.flatmap(damaged), output=st.sampled_from(["json", "text"]))
    def test_verify_one_damaged_file(self, doc, output):
        # every route of a document it accepts agrees with enumeration
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "doc.json").write_text(json.dumps(doc))
            code = main_exit_code(["verify", "--input", tmp, "--output", output])
        assert code in (0, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(n=SIZES, order=ORDERS, output=st.sampled_from(["json", "text"]))
    def test_conmatrix_damaged_options(self, n, order, output):
        code = main_exit_code(["conmatrix", f"--n={n}", f"--order={order}", "--output", output])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from([("factor",), ("verify",)]), doc=damaged(POOL_DOC))
    @example(command=("factor",), doc=POOL_DOC)
    @example(command=("verify",), doc=POOL_DOC)
    def test_process_pool_damaged_documents(self, command, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            proc = run_cli(*command, "--input", str(path), "--jobs", "2")
        assert proc.returncode in (0, 2, 3, 4)
        assert "Traceback" not in proc.stderr
