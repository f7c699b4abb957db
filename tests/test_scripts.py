"""The scripts under scripts/, run as a user would run them."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
    )


def test_make_fixtures_defaults_reproduce_the_committed_set(tmp_path):
    proc = run_script("make_fixtures.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    committed = sorted(p.name for p in (ROOT / "fixtures").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes(), name


def test_make_fixtures_refuses_a_boundary_no_draw_fits(tmp_path):
    # two spanning trees over 8 boundary nodes need 14 edges, past the corpus bound of 12
    out = tmp_path / "out"
    proc = run_script("make_fixtures.py", "--out", str(out), "--max-n", "8")
    assert proc.returncode == 2
    assert "need at least 14 edges" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()  # every draw is made before anything is written


def test_conmatrix_report_checks_every_inverse():
    proc = run_script("conmatrix_report.py", "--max-n", "4", "--check-inverse")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:3] == ["n", "states", "bundle_s"]
    assert len(rows) == 4
    for n, row in enumerate(rows, 1):
        fields = row.split()
        assert int(fields[0]) == n
        assert float(fields[2]) >= 0  # the bundle build time on its own
        det, reference_det, predicted = map(int, fields[3:6])
        assert det == reference_det  # prod(alpha) against Bareiss
        assert abs(det) == predicted
        assert fields[6] == fields[7]  # torsion of diag(|alpha|) against the Smith form of A
        assert "inverse=ok" in row
    assert rows[-1].split()[3:8] == ["384", "384", "384", "Z_2^7+Z_3", "Z_2^7+Z_3"]
    assert "MISMATCH" not in proc.stdout


def test_conmatrix_report_refuses_sizes_without_a_bundle():
    proc = run_script("conmatrix_report.py", "--max-n", "7")
    assert proc.returncode == 2
    assert "at most 6" in proc.stderr


def test_startup_report_lists_each_command_and_its_modules():
    proc = run_script("startup_report.py", "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    shares, standard = proc.stdout.split("\n\n")
    floor, header, *rows = shares.splitlines()
    assert floor.startswith("floor `python -c pass`:") and floor.endswith(", 24 spawns")
    assert header.split()[:6] == ["command", "share_ms", "q1", "q3", "import_ms", "source_kb"]
    assert len(rows) == 12
    modules, kb = {}, {}
    for row in rows:
        command, numbers = re.match(r"(.+?)\s+(-?\d+\.\d.*)$", row).groups()
        fields = numbers.split()
        assert float(fields[3]) > 0  # the package's import time
        kb[command] = float(fields[4])
        modules[command] = set(fields[5:])
    assert modules["--help"] == modules["reliability --bogus"] == {"base", "cli"}
    assert modules["conmatrix --n 3"] == {
        "base", "cli", "jsonio", "partitions", "conmatrix", "linalg", "commands", "commands.conmatrix",
    }
    # a command that reads a graph compiles no cut code and no partition
    # lattice, and one that only counts its states no factoring kernel
    factoring = modules["reliability --route factoring --input GRAPH"]
    assert {"graphs", "reliability"} <= factoring
    assert not {"cut", "partitions"} & factoring
    for command in ("polynomial --input GRAPH", "rcm --input GRAPH"):
        assert {"graphs", "states"} <= modules[command]
        assert not {"reliability", "cut", "partitions"} & modules[command]
    # the oracle checks its bound in base, so it compiles no frontier kernel
    bruteforce = "reliability --route bruteforce --input GRAPH"
    assert "enumeration" in modules[bruteforce] and "states" not in modules[bruteforce]
    assert kb[bruteforce] < kb["polynomial --input GRAPH"]
    # the boundary distributions compile neither the factoring kernel nor
    # the oracle that verify checks every route against
    assert 0 < kb["--help"] < kb["distribution --input DOC"] < kb["verify --input DOC"]
    header, *rows = standard.splitlines()
    assert header.split()[:3] == ["command", "standard", "modules"]
    assert len(rows) == 12
    for row in rows:  # the command line is parsed without argparse
        assert not {"argparse", "gettext", "locale"} & set(row.split())
    help_row, usage_row = rows[:2]
    assert help_row.startswith("--help ") and usage_row.startswith("reliability --bogus ")
    for row in (help_row, usage_row):  # no wire format, so none of the modules it uses
        assert not {"json", "fractions", "decimal"} & set(row.split())


def load_script(name):
    """The script scripts/<name> as a module, its main block not run."""
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_gate_kills_three_mutants_and_refuses_a_stale_one(capsys):
    gate = load_script("mutants.py")
    names = (
        "a contraction's loops leave by up, not their mass",
        "the relevance DFS never lowers low on an edge to an ancestor",
        "the polynomial's digits are five bits too narrow",
    )
    picked = [m for m in gate.MUTANTS if m.name in names]
    assert len(picked) == 3
    assert gate.check(picked) == 0
    killed = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[1] for line in killed] == [f"killed by {m.tests[0]}" for m in picked]
    # a text the source no longer holds fails the gate before any test runs
    stale = picked[0]._replace(text="        no such line\n")
    assert gate.check([stale]) == 1
    assert "stale: its text occurs 0 times in src/relfact/reliability.py" in capsys.readouterr().out


def test_every_mutation_gate_text_occurs_once_in_its_file():
    # the gate's own check, without running a mutant: a refactor that moves
    # or rewrites a mutated text fails here, not only in a gate run
    gate = load_script("mutants.py")
    counts = {m.name: (ROOT / "src" / m.file).read_text().count(m.text) for m in gate.MUTANTS}
    assert len(counts) == len(gate.MUTANTS)  # every entry has its own name
    assert {name: count for name, count in counts.items() if count != 1} == {}


def test_startup_report_refuses_no_repetitions():
    proc = run_script("startup_report.py", "--repeat", "0")
    assert proc.returncode == 2
    assert "at least 1" in proc.stderr


def relfact_modules(flag, argv):
    """The relfact modules a spawned `python <flag> -m relfact` reports
    importing on stderr, under -X importtime or -v."""
    proc = subprocess.run([sys.executable, *flag, "-m", "relfact", *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    pattern = r"^import time:.*\| +(relfact\S*)$" if "importtime" in flag else r"^import '(relfact[\w.]*)'"
    return set(re.findall(pattern, proc.stderr, re.MULTILINE))


def test_importtime_reports_every_module_a_command_loads(tmp_path):
    # startup_report.py books import_ms by -X importtime, which times only
    # the import statement's path: a module loaded otherwise would be
    # missing there, and its time booked to the module that loaded it
    graph = tmp_path / "edge.json"
    edge = {"id": 1, "u": "a", "v": "b", "p": "1/2"}
    graph.write_text(json.dumps({"nodes": ["a", "b"], "edges": [edge], "terminals": ["a", "b"]}))
    for argv in (["--help"], ["reliability", "--route", "factoring", "--input", str(graph)]):
        timed = relfact_modules(["-X", "importtime"], argv)
        assert timed == relfact_modules(["-v"], argv)
        assert ("relfact.reliability" in timed) == (argv[0] == "reliability")
