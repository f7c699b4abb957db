"""stdout of the commands, pinned by sha256.

The digests of the commands that read a decomposition were taken from the
build that combined the two sides through the dense inverse of one
coherent order, and whose verify ran the factorized route once per order.
The combine read off the Moebius diagonal must print the same bytes.  The
digests of the commands that read a graph were taken from the build that
kept every counting kernel in reliability and imported every module at
start-up.  The inputs are every file of fixtures/ plus corpus draws at
n = 4 and 5, in every terminal mode.  Each decomposition runs factor by the
factorized route in both orders, by the joint route where every terminal is
on the cut and by n2 at n = 2, each with and without --verify; then
distribution and verify.  Its union graph runs reliability by both routes,
polynomial and rcm.  Each runs in text and json.
To print the digests of the code on the path, for an intended change of
output only:

    PYTHONPATH=src python tests/test_pinned_stdout.py > tests/pinned_stdout.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from corpus import TERMINAL_MODES, corpus, decomposition_to_obj, graph_to_obj
from relfact import cli, jsonio
from relfact.partitions import ORDER_VARIANTS

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
PINS_PATH = HERE / "pinned_stdout.json"
PIN_SEED = 2031


GRAPH_COMMANDS = [
    ("reliability", "--route", "factoring"),
    ("reliability", "--route", "bruteforce"),
    ("polynomial",),
    ("rcm",),
]


def documents() -> dict[str, dict]:
    """Name -> document of every pinned input: each decomposition, and as
    name_union its union graph."""
    docs = {path.stem: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}
    for n in (4, 5):
        for mode in TERMINAL_MODES:
            (d,) = corpus(PIN_SEED, n, 1, terminal_mode=mode)
            docs[f"corpus{n}_{mode}"] = decomposition_to_obj(d)
    for name, doc in list(docs.items()):
        docs[f"{name}_union"] = graph_to_obj(jsonio.decomposition_from_obj(doc).union)
    return docs


def commands(name: str, doc: dict) -> list[tuple[str, ...]]:
    if name.endswith("_union"):
        return GRAPH_COMMANDS
    d = jsonio.decomposition_from_obj(doc)
    factor = [("factor", "--route", "factorized", "--order", order) for order in ORDER_VARIANTS]
    if d.union.terminals <= set(d.boundary):
        factor.append(("factor", "--route", "joint"))
    if d.n == 2:
        factor.append(("factor", "--route", "n2"))
    return [*factor, *(argv + ("--verify",) for argv in factor), ("distribution",), ("verify",)]


DOCS = documents()
CASES = {
    f"{name} {' '.join(argv)} --output {output}": (name, argv, output)
    for name, doc in DOCS.items()
    for argv in commands(name, doc)
    for output in ("text", "json")
}


def stdout_digest(directory: Path, key: str) -> str:
    """sha256 of the stdout of one case; the command must exit 0."""
    name, argv, output = CASES[key]
    path = directory / f"{name}.json"
    path.write_text(json.dumps(DOCS[name]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--input", str(path), "--output", output])
    assert code == 0, key
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text())


def test_every_case_is_pinned(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_stdout_is_pinned(tmp_path, pins, key):
    assert stdout_digest(tmp_path, key) == pins[key]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {key: stdout_digest(Path(tmp), key) for key in sorted(CASES)}
    sys.stdout.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
