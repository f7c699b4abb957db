import contextlib
import copy
import gc
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
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import relfact
from corpus import bridge_decomposition, bridge_graph, corpus, decomposition_to_obj, graph_to_obj
from relfact import base, cli, cluster, conmatrix, enumeration, jsonio
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
    path.write_text(jsonio.dumps_canonical(graph_to_obj(g)))
    return str(path)


def write_decomposition(path, d):
    path.write_text(jsonio.dumps_canonical(decomposition_to_obj(d)))
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

    @pytest.mark.parametrize("prob", [None, [1]], ids=["null", "list"])
    def test_probability_neither_string_nor_number_exit_2(self, tmp_path, capsys, prob):
        doc = {
            "nodes": ["a", "b"],
            "edges": [{"id": 1, "u": "a", "v": "b", "p": prob}],
            "terminals": ["a", "b"],
        }
        path = tmp_path / "typed_prob.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["reliability", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"input error: probability must be a string or 0/1, got {prob!r}\n")

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
            "g1": graph_to_obj(d.g1),
            "g2": graph_to_obj(d.g2),
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

    def test_joint_route_refuses_terminals_off_the_boundary(self):
        # a spawned process: the boundary-state sum is the reliability only
        # when every terminal sits on the cut
        proc = run_cli("factor", "--route", "joint", "--input", str(FIXTURES / "allterm2_0.json"))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert (
            "validation error: the joint route needs every terminal on the boundary; "
            "['u1', 'u2', 'v1'] are not\n"
        ) in proc.stderr

    def test_verify_flag_mismatch_exit_4(self, tmp_path, capsys, monkeypatch):
        import relfact.cut

        real = relfact.cut.n2_closed_form
        monkeypatch.setattr(relfact.cut, "n2_closed_form", lambda d: real(d) + 1)
        path = write_decomposition(tmp_path / "bridge.json", bridge_decomposition())
        assert cli.main(["factor", "--route", "n2", "--input", path, "--verify"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "verification mismatch: route n2 gave 55/32, enumeration gave 23/32\n" in err

    def test_boundary_of_non_strings_exit_2(self, tmp_path, capsys):
        doc = decomposition_to_obj(bridge_decomposition())
        doc["boundary"] = ["u", 1]
        path = tmp_path / "numbered.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["factor", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: boundary must be a list of node names\n")

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

    def test_rcm_refuses_a_disconnected_graph(self, tmp_path):
        path = tmp_path / "two_pieces.json"
        path.write_text(json.dumps({
            "nodes": ["a", "b", "c", "d"],
            "edges": [{"id": 1, "u": "a", "v": "b", "p": "1/2"}, {"id": 2, "u": "c", "v": "d", "p": "1/3"}],
            "terminals": ["a", "b", "c", "d"],
        }))
        proc = run_cli("rcm", "--input", str(path))
        assert proc.returncode == 3
        assert proc.stderr.splitlines()[0] == "validation error: underlying graph is not connected"
        assert proc.stdout == ""


# two boundary nodes that are every node and every terminal of both
# sides, so verify runs all six of its checks
TWO_NODE_DOC = {
    "g1": side_doc(["a", "b"], ["a", "b"], [(1, "a", "b", "1/2")]),
    "g2": side_doc(["a", "b"], ["a", "b"], [(2, "a", "b", "1/3")]),
    "boundary": ["a", "b"],
}


def _value_plus_one(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + 1


def _result_plus_one(real):
    return lambda *args, **kwargs: SimpleNamespace(value=real(*args, **kwargs).value + 1)


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "module, name, wrong, failures",
        [
            ("reliability", "reliability_factoring", _value_plus_one, ["factoring != enumeration"]),
            ("cut", "factorization_detail", _result_plus_one, ["factorized != enumeration"]),
            ("states", "joint_reliability", _value_plus_one, ["joint-state sum != enumeration"]),
            ("cut", "n2_closed_form", _value_plus_one, ["two-node closed form != enumeration"]),
            # the direct weight is what the factorized derivative is held to
            ("cluster", "dq_at_zero", _value_plus_one,
             ["cluster-model q-linear weight != enumeration", "factorized cluster derivative != direct"]),
            ("cut", "factorized_dq", _value_plus_one, ["factorized cluster derivative != direct"]),
        ],
        ids=["factoring", "factorized", "joint", "n2", "cluster weight", "cluster derivative"],
    )
    def test_each_check_reports_its_mismatch(self, tmp_path, capsys, monkeypatch, module, name, wrong, failures):
        home = __import__(f"relfact.{module}", fromlist=["_"])
        monkeypatch.setattr(home, name, wrong(getattr(home, name)))
        path = tmp_path / "two_node.json"
        path.write_text(json.dumps(TWO_NODE_DOC))
        assert cli.main(["verify", "--input", str(path), "--output", "json"]) == 4
        result = json.loads(capsys.readouterr().out)
        assert result["ok"] is False
        assert result["results"] == [
            {"file": "two_node.json", "ok": False, "reliability": "2/3", "failures": failures}
        ]

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

    def test_all_terminal_file_builds_no_bundle(self, monkeypatch, capsys):
        # the factorized route and the cluster derivative combine through pi
        # and alpha; only factor, which prints the dense inverse, builds it
        built = []
        real = conmatrix.invert_connectivity_matrix

        def counting(order):
            built.append((order.n, order.variant))
            return real(order)

        monkeypatch.setattr(conmatrix, "invert_connectivity_matrix", counting)
        path = str(FIXTURES / "allterm3_0.json")
        assert cli.main(["verify", "--input", path]) == 0
        assert "all routes agree" in capsys.readouterr().out
        assert built == []
        assert cli.main(["factor", "--input", path]) == 0
        assert built == [(3, "canonical")]

    def test_seven_node_boundary(self, tmp_path, capsys):
        # verify answers past the dense inverse's limit; factor's factorized
        # route, which prints that inverse, still refuses before any side solve
        (d,) = corpus(61, 7, 1, terminal_mode="all")
        assert len(d.union.edges) == 12
        path = write_decomposition(tmp_path / "seven.json", d)
        assert cli.main(["verify", "--input", path]) == 0
        assert capsys.readouterr().out.endswith("all routes agree\n")
        assert cli.main(["factor", "--input", path, "--route", "factorized"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "validation error: the connectivity inverse is built for boundaries of at most 6 nodes, got 7" in err

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

    def test_an_empty_input_is_no_file_not_the_working_directory(self, tmp_path, monkeypatch, capsys):
        # '' names no file for verify as for every other command, though
        # the working directory holds a fixture that verifies
        write_decomposition(tmp_path / "bridge.json", bridge_decomposition())
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "--input", "."]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "--input", ""]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "input error: cannot read : [Errno 2] No such file or directory: ''" in err

    def test_a_directory_is_read_in_name_order_and_only_its_json_files(self, tmp_path, capsys):
        for name in ("b.json", "a.json", ".hidden.json"):
            write_decomposition(tmp_path / name, bridge_decomposition())
        (tmp_path / "c.json.bak").write_text("not read")
        (tmp_path / "d.JSON").write_text("not read")
        assert cli.main(["verify", "--input", str(tmp_path), "--output", "json"]) == 0
        files = [r["file"] for r in json.loads(capsys.readouterr().out)["results"]]
        assert files == [".hidden.json", "a.json", "b.json"]


# The package modules each route loads, beyond the ones every command
# loads: the command line and the value base.  Each command also loads its
# own module of relfact.commands and no other; every command that reads a
# document loads the wire format and the graphs, one that reads a
# decomposition also the cut routes and the partition lattice, and
# conmatrix, which reads none, loads the wire format alone.  Only the
# routes that factor load the factoring kernel, only the routes checked
# against the 2^m oracle load enumeration, and a command that reads a
# graph loads no partition lattice.  GRAPH is the union of DOC; DOC has a
# two-node boundary that holds every terminal, so every route of factor
# takes it.
EVERY_COMMAND = {"cli", "base"}
GRAPH_COMMAND = {"jsonio", "graphs"}
CUT_COMMAND = {*GRAPH_COMMAND, "cut", "partitions"}
ROUTE_MODULES = {
    ("--help",): set(),
    ("reliability", "--route", "factoring", "--input", "GRAPH"): {
        "commands", "commands.reliability", *GRAPH_COMMAND, "reliability"},
    ("reliability", "--route", "bruteforce", "--input", "GRAPH"): {
        "commands", "commands.reliability", *GRAPH_COMMAND, "enumeration"},
    ("polynomial", "--input", "GRAPH"): {"commands", "commands.polynomial", *GRAPH_COMMAND, "states"},
    ("rcm", "--input", "GRAPH"): {"commands", "commands.rcm", *GRAPH_COMMAND, "states", "cluster"},
    ("factor", "--route", "n2", "--input", "DOC"): {"commands", "commands.factor", *CUT_COMMAND, "reliability"},
    ("factor", "--route", "factorized", "--input", "DOC"): {
        "commands", "commands.factor", *CUT_COMMAND, "reliability", "conmatrix"},
    ("distribution", "--input", "DOC"): {"commands", "commands.distribution", *CUT_COMMAND, "states"},
    ("factor", "--route", "joint", "--input", "DOC"): {"commands", "commands.factor", *CUT_COMMAND, "states"},
    ("conmatrix", "--n", "3"): {"commands", "commands.conmatrix", "jsonio", "partitions", "conmatrix", "linalg"},
    ("verify", "--input", "DOC"): {
        "commands", "commands.verify", *CUT_COMMAND, "reliability", "conmatrix", "enumeration", "states",
        "cluster"},
}
# standard modules no command loads at --jobs 1: argparse, with the gettext
# and locale it pulls in; the process pool; dataclasses, with its inspect
UNLOADED = ("argparse", "gettext", "locale", "concurrent.futures", "multiprocessing", "dataclasses", "inspect")


def verbose_spawn(argv):
    """A fresh `python -v -m relfact` process, and the modules it reports
    importing from the package's import on, in order."""
    proc = subprocess.run([sys.executable, "-v", "-m", "relfact", *argv], capture_output=True, text=True)
    imported = re.findall(r"^import '([\w.]+)'", proc.stderr, re.MULTILINE)
    return proc, imported[imported.index("relfact") :]


def in_process(argv):
    """Exit code and stdout of cli.main(argv) in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class TestStartup:
    @pytest.mark.parametrize("route", ROUTE_MODULES, ids=" ".join)
    def test_a_command_loads_only_its_route(self, tmp_path, route):
        # a fresh `python -v -m relfact` lists every module it imports, in
        # order, on stderr; what follows the package is the command's doing.
        # The command line is parsed without argparse, the pool is imported
        # only when --jobs > 1 needs it, and the value types generate no
        # code, so none of UNLOADED loads, whatever site loaded before
        doc = FIXTURES / "cut2_0.json"
        d = jsonio.decomposition_from_obj(json.loads(doc.read_text()))
        paths = {"DOC": str(doc), "GRAPH": write_graph(tmp_path / "union.json", d.union)}
        argv = [paths.get(x, x) for x in route]
        proc, added = verbose_spawn(argv)
        assert {m for m in added if m.startswith("relfact.")} == {
            f"relfact.{m}" for m in EVERY_COMMAND | ROUTE_MODULES[route]
        }
        assert [m for m in UNLOADED if m in added] == []
        assert (proc.returncode, proc.stdout) == in_process(argv)

    @pytest.mark.parametrize(
        "argv", [["--help"], ["nosuch"], ["reliability", "--bogus"], ["factor"]], ids=" ".join
    )
    def test_help_and_usage_errors_load_only_the_command_line(self, argv):
        # the table and the dispatcher need base alone: no wire format, no
        # graph and no kernel, nor the json, fractions and decimal they use
        proc, added = verbose_spawn(argv)
        assert {m for m in added if m.split(".")[0] == "relfact"} == {"relfact", "relfact.cli", "relfact.base"}
        assert [m for m in ("json", "fractions", "decimal") if m in added] == []
        assert proc.returncode == (0 if argv == ["--help"] else 2)
        assert (proc.returncode, proc.stdout) == in_process(argv)

    @pytest.mark.parametrize("command", ["polynomial", "rcm", "distribution", "factor", "verify"])
    def test_a_malformed_document_loads_no_kernel(self, tmp_path, command):
        # the handler reads its document before it imports its kernel, and
        # a decomposition is read before its cut code loads
        doc = tmp_path / "array.json"
        doc.write_text("[]")
        proc, added = verbose_spawn([command, "--input", str(doc)])
        assert proc.returncode == 2
        assert [m for m in ("relfact.states", "relfact.cluster", "relfact.cut") if m in added] == []
        assert (proc.returncode, proc.stdout) == in_process([command, "--input", str(doc)])

    def test_the_command_line_loads_the_wire_format_and_kernel_on_first_access(self):
        # this process has every module loaded, so a fresh one imports cli
        script = (
            "import sys, relfact.cli\n"
            "print(sorted(m for m in ('relfact.jsonio', 'relfact.graphs', 'relfact.reliability') if m in sys.modules))\n"
            "print(relfact.cli.reliability is sys.modules['relfact.reliability'])\n"
            "print(relfact.cli.jsonio is sys.modules['relfact.jsonio'])\n"
            "print(hasattr(relfact.cli, 'graphs'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "True", "True", "False"]

    def test_a_graph_command_imports_no_pathlib_without_site(self, tmp_path):
        # site may load pathlib before the program does; under -S only the
        # program's own imports show.  A document is read with open(), and
        # verify walks a directory with os, so pathlib (and its
        # urllib.parse) never loads
        graph = write_graph(tmp_path / "bridge.json", bridge_graph())
        doc = write_decomposition(tmp_path / "doc.json", bridge_decomposition())
        env = dict(os.environ, PYTHONPATH=str(Path(relfact.__file__).resolve().parent.parent))
        for argv in (["reliability", "--input", graph], ["verify", "--input", doc]):
            proc = subprocess.run(
                [sys.executable, "-S", "-v", "-m", "relfact", *argv], capture_output=True, text=True, env=env
            )
            imported = re.findall(r"^import '([\w.]+)'", proc.stderr, re.MULTILINE)
            assert f"relfact.commands.{argv[0]}" in imported
            assert [m for m in ("pathlib", "urllib.parse") if m in imported] == []
            assert (proc.returncode, proc.stdout) == in_process(argv)

    def test_the_package_resolves_every_name_from_its_module(self):
        for module, names in relfact._EXPORTS.items():
            home = __import__(f"relfact.{module}", fromlist=["_"])
            for name in names.split():
                assert getattr(relfact, name) is getattr(home, name), name
        assert relfact.CutDecomposition.__module__ == "relfact.cut"

    def test_moved_names_keep_their_identity(self):
        assert jsonio.FormatError is base.FormatError
        assert base.DEFAULT_ENUMERATION_BOUND == 24
        assert cluster._check_bound is enumeration._check_bound is base._check_bound

    def test_the_package_ships_only_what_the_cli_reaches(self):
        # every module file is loaded by some command, and the helpers that
        # only tests and scripts call live beside the tests
        package = Path(cli.__file__).parent
        files = {".".join(p.relative_to(package).with_suffix("").parts) for p in package.rglob("*.py")}
        files = {f.removesuffix(".__init__") for f in files} - {"__init__", "__main__"}
        assert files == EVERY_COMMAND.union(*ROUTE_MODULES.values())
        moved = {
            relfact: ["bell_number", "join", "meet", "refines", "conjugate", "Orbit", "orbits",
                      "is_k_pathset", "gamma_graph", "corpus", "connectivity_matrix_det", "identify_nodes"],
            relfact.partitions: ["bell_number", "join", "meet", "refines", "conjugate", "Orbit", "orbits"],
            relfact.graphs: ["is_k_pathset", "identify_nodes", "CutDecomposition", "union_graph", "relevant_edges"],
            relfact.states: ["reliability_bruteforce", "_state_masks", "_linked_masks", "_CHUNK",
                             "_add", "_check_bound", "EnumerationBoundError", "DEFAULT_ENUMERATION_BOUND"],
            relfact.cut: ["conditioned_reliability"],
            relfact.reliability: ["gamma_graph", "ordered_parallel_map", "FactorizationResult", "_side_task",
                                  "_cut_factorization", "factorization_detail", "n2_closed_form",
                                  "EnumerationBoundError", "_check_bound", "DEFAULT_ENUMERATION_BOUND"],
            relfact.cluster: ["factorized_dq"],
            relfact.conmatrix: ["connectivity_matrix_det"],
            jsonio: ["graph_to_obj", "decomposition_to_obj", "conmatrix_to_obj"],
            cli: ["build_parser", "_listing", "_verify_one", *(f"cmd_{c}" for c in cli.COMMANDS)],
            relfact.ConnectivityBundle: ["C"],
            relfact.ReliabilityPolynomial: ["degree", "leading_coefficient", "evaluate"],
            relfact.ClusterPolynomial: ["evaluate"],
            relfact.StateDistribution: ["prob"],
            relfact.Edge: ["endpoints", "is_loop"],
            relfact.Partition: ["parse"],
            relfact.InvariantFactors: ["determinant_magnitude"],
        }
        assert [(owner, n) for owner, names in moved.items() for n in names if hasattr(owner, n)] == []


class TestEntry:
    """`python -m relfact` and the relfact script exit through cli.entry,
    which runs main and then freezes the collector for the exit."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("factor", "--input", "DOC", "--output", "json"), 0),
            (("factor", "--input", "MISSING"), 2),
            (("factor", "--route", "n2", "--input", "ONE"), 3),
            (("conmatrix", "--n", "6", "--output", "json"), 0),  # a large stdout
        ],
        ids=lambda case: " ".join(case) if isinstance(case, tuple) else f"exit{case}",
    )
    def test_a_spawned_process_matches_main(self, tmp_path, monkeypatch, argv, code):
        monkeypatch.delenv("RELFACT_BOUND", raising=False)
        paths = {
            "DOC": str(FIXTURES / "cut2_0.json"),
            "ONE": str(FIXTURES / "cut1_0.json"),  # a one-node boundary
            "MISSING": str(tmp_path / "missing.json"),
        }
        argv = [paths.get(x, x) for x in argv]
        proc = run_cli(*argv)
        assert proc.returncode == code
        assert (proc.returncode, proc.stdout) == in_process(argv)

    def test_the_script_and_the_module_share_one_entry(self):
        package = Path(cli.__file__).parent
        pyproject = (package.parent.parent / "pyproject.toml").read_text()
        assert re.search(r'^relfact = "relfact\.cli:entry"$', pyproject, re.MULTILINE)
        assert "from .cli import entry\n" in (package / "__main__.py").read_text()
        assert "sys.exit(entry())" in (package / "__main__.py").read_text()

    def test_main_leaves_the_collector_unfrozen(self):
        before = gc.get_freeze_count()
        for argv in (["conmatrix", "--n", "3"], ["--help"]):
            assert in_process(argv)[0] == 0
        assert gc.get_freeze_count() == before


# Command lines with the exit code and stdout each gave at the argparse
# parser this table replaced; RELFACT_BOUND is unset unless given.  DOC is
# fixtures/cut2_0.json and GRAPH its union graph, 6 edges.
FACTORIZED_TEXT = (
    "reliability = 5/9\nn = 2  order = {order}\nb matrix (inverse connectivity matrix):\n"
    "  -1/1  1/1\n  1/1  0/1\nside g1: 12 -> 1/1, 1|2 -> 1/3\nside g2: 12 -> 1/1, 1|2 -> 1/3\n"
)
ARGV_CASES = [
    # (argv, RELFACT_BOUND, exit code, stdout)
    (("reliability", "--input=GRAPH"), None, 0, "reliability = 5/9\nroute = factoring\n"),
    (("reliability", "--inp", "GRAPH", "--out", "json"), None, 0, '{"reliability":"5/9","route":"factoring"}\n'),
    (("reliability", "--input", "GRAPH", "--route=bruteforce", "--output=json"), None, 0,
     '{"reliability":"5/9","route":"bruteforce"}\n'),
    (("reliability", "--in=GRAPH", "--ro", "bruteforce", "--b", "6"), None, 0, "reliability = 5/9\nroute = bruteforce\n"),
    (("reliability", "--input", "GRAPH", "--output", "json", "--output", "text"), None, 0,
     "reliability = 5/9\nroute = factoring\n"),
    (("reliability", "--input", "missing.json", "--input", "GRAPH"), None, 0, "reliability = 5/9\nroute = factoring\n"),
    (("reliability", "--input", "GRAPH", "--jobs", "auto"), None, 0, "reliability = 5/9\nroute = factoring\n"),
    (("reliability", "--input", "GRAPH", "--route", "bruteforce"), "5", 3, ""),
    (("reliability", "--input", "GRAPH", "--route", "bruteforce", "--bound", "6"), "x", 0,
     "reliability = 5/9\nroute = bruteforce\n"),
    (("factor", "--input", "DOC", "--verify"), None, 0,
     FACTORIZED_TEXT.format(order="canonical") + "verified against enumeration: 5/9\n"),
    (("factor", "--input", "DOC", "--ver", "--route", "joint", "--output", "json"), None, 0,
     '{"n":2,"reliability":"5/9","route":"joint","side_distributions":{"g1":{"12":"1/3","1|2":"2/3"},'
     '"g2":{"12":"1/3","1|2":"2/3"}},"verified_against":"5/9"}\n'),
    (("factor", "--input", "DOC", "--route", "n2", "--verify", "--verify", "--jobs=2"), None, 0,
     "reliability = 5/9\nverified against enumeration: 5/9\n"),
    (("factor", "--input", "DOC", "--ord", "reversed-levels", "--jobs", "auto"), None, 0,
     FACTORIZED_TEXT.format(order="reversed-levels")),
    (("conmatrix", "--n=2"), "x", 0,
     "n = 2  states = 2  order = canonical\norder: 1|2 12\ndet = -1\ninvariant factors: 1 1\n"
     "torsion prime powers (p, k, multiplicity): \n"),
    (("conmatrix", "--n", "+2", "--order=reversed-levels", "--output", "json"), None, 0,
     '{"A":[[0,1],[1,1]],"A_inv":[["-1/1","1/1"],["1/1","0/1"]],"det":"-1","invariant_factors":["1","1"],'
     '"n":2,"order":["1|2","12"],"torsion_prime_powers":[]}\n'),
    (("conmatrix", "--n", "-1"), None, 2, ""),
    (("polynomial", "--input", "GRAPH", "--bound", "30", "--bound", "6"), None, 0,
     "edge count = 6\npathset counts by operative edges: 0 0 2 8 11 6 1\nmonomial coefficients: 0 0 2 0 -1 0 0\n"),
    (("distribution", "--input", "DOC"), "6", 0, "n = 2\ng1: 12 -> 1/3, 1|2 -> 2/3\ng2: 12 -> 1/3, 1|2 -> 2/3\n"),
    (("rcm", "--input", "GRAPH", "--output", "json"), None, 0,
     '{"Z":{"1":"11/54","2":"221/486","3":"67/243","4":"16/243"},"dZdq_at_0":"11/54"}\n'),
    (("verify", "--input", "DOC", "--jobs", "1"), None, 0, "cut2_0.json: OK (R = 5/9)\nall routes agree\n"),
    # usage errors: exit 2, nothing on stdout
    ((), None, 2, ""),
    (("--input", "GRAPH", "reliability"), None, 2, ""),
    (("reliablity", "--input", "GRAPH"), None, 2, ""),
    (("reliability", "--input", "GRAPH", "--order", "canonical"), None, 2, ""),
    (("reliability", "--input", "GRAPH", "--fast"), None, 2, ""),
    (("factor", "--input", "DOC", "--o", "json"), None, 2, ""),
    (("reliability", "--input"), None, 2, ""),
    (("reliability", "--input", "--output", "json"), None, 2, ""),
    (("factor", "--input", "DOC", "--verify=yes"), None, 2, ""),
    (("reliability", "--input", "GRAPH", "--route", "fast"), None, 2, ""),
    (("factor", "--input", "DOC", "--order", "random"), None, 2, ""),
    (("reliability", "--input", "GRAPH", "--output", "yaml"), None, 2, ""),
    (("conmatrix", "--n", "three"), None, 2, ""),
    (("reliability", "--input", "GRAPH", "--bound", "0"), None, 2, ""),
    (("reliability", "--input", "GRAPH", "--jobs", "many"), None, 2, ""),
    (("reliability", "--route", "factoring"), None, 2, ""),
    (("conmatrix", "--order", "canonical"), None, 2, ""),
    (("conmatrix", "--n", "2", "--bound", "5"), None, 2, ""),
    (("reliability", "GRAPH"), None, 2, ""),
    (("reliability", "--input", "GRAPH", "extra"), None, 2, ""),
    (("reliability", "--", "--input", "GRAPH"), None, 2, ""),
    (("reliability", "--input", "GRAPH"), "x", 2, ""),
]
HELP_CASES = [
    ("--help",),
    ("-h",),
    ("--he", "reliability"),
    ("factor", "--help"),
    ("reliability", "--input", "GRAPH", "--h"),
    ("conmatrix", "-h", "--n", "three"),
]


class TestArgv:
    @pytest.fixture
    def paths(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("RELFACT_BOUND", raising=False)
        doc = FIXTURES / "cut2_0.json"
        union = jsonio.decomposition_from_obj(json.loads(doc.read_text())).union
        return {"DOC": str(doc), "GRAPH": write_graph(tmp_path / "union.json", union)}

    @staticmethod
    def argv(tokens, paths):
        return [re.sub(r"\b(DOC|GRAPH)\b", lambda m: paths[m.group()], t) for t in tokens]

    @pytest.mark.parametrize(
        "tokens, env, code, stdout",
        ARGV_CASES,
        ids=[" ".join(argv or ["(none)"]) + (f" RELFACT_BOUND={env}" if env else "") for argv, env, _, _ in ARGV_CASES],
    )
    def test_exit_code_and_stdout(self, paths, capsys, monkeypatch, tokens, env, code, stdout):
        if env is not None:
            monkeypatch.setenv("RELFACT_BOUND", env)
        assert cli.main(self.argv(tokens, paths)) == code
        out, err = capsys.readouterr()
        assert out == stdout
        assert "Traceback" not in err

    @pytest.mark.parametrize("tokens", HELP_CASES, ids=" ".join)
    def test_help_exits_0_with_usage_on_stdout(self, paths, capsys, tokens):
        assert cli.main(self.argv(tokens, paths)) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: relfact ") and err == ""

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_help_lists_every_option_and_choice(self, capsys, command):
        assert cli.main([command, "--help"]) == 0
        out = capsys.readouterr().out
        for name, (convert, *_) in cli.COMMANDS[command][1].items():
            assert f"--{name}" in out
            assert all(choice in out for choice in (convert if isinstance(convert, tuple) else ()))

    def test_usage_error_names_the_command(self, paths, capsys):
        assert cli.main(["factor", "--input", paths["DOC"], "--o", "json"]) == 2
        assert capsys.readouterr().err == (
            "usage: relfact factor [options]\n"
            "relfact factor: error: ambiguous option: --o could match --output, --order\n"
        )


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

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        path = tmp_path / "three.json"
        path.write_text(json.dumps(wide_boundary_doc(3)))
        outs = []
        for jobs in ("1", "500"):
            assert cli.main(["factor", "--input", str(path), "--jobs", jobs, "--output", "json"]) == 0
            outs.append(capsys.readouterr().out)
        # Bell(3) = 5 states on each side, and no more workers than CPUs
        assert sizes == [min(10, os.cpu_count() or 1)]
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
# out because one run of it takes ~0.4 s in process (Python 3.11, 2-core Xeon)
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
    """cli.main's exit code with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


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
