"""The reference computation is fixed: same output under any hash seed,
and it does not load the package."""

import subprocess
import sys

from conftest import BENCH

import run

CHECK = "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__'); print(any(m.startswith('relfact') for m in sys.modules))"


def reference_output(hash_seed: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", CHECK, str(BENCH / "reference.py")],
        env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return done.stdout


def test_reference_is_fixed_and_standalone():
    first = reference_output("0")
    assert first == reference_output("977")
    results, loaded_relfact = first.splitlines()
    assert loaded_relfact == "False"
    assert len(results.split()) == 2


def test_reference_command_is_the_benchmark_file():
    assert run.REFERENCE_CMD[-1] == str(BENCH / "reference.py")
