#!/usr/bin/env python3
"""Start-up cost of each relfact command, cold, above the interpreter's floor.

Each command runs on a small fixed input (fixtures/cut2_0.json, or its
union graph) in a fresh `python -m relfact` process, and must exit with
the code listed for it (a usage error exits 2), alternating with a
spawn of `python -c pass`; a command's share is its spawn time minus that
of the floor spawn just before it.  Every spawn reads its bytecode from a
temporary -X pycache_prefix and writes none, so a __pycache__ left in
src/relfact cannot make it read fast and the package compiles on every
spawn, as in a fresh checkout under PYTHONDONTWRITEBYTECODE=1.  The
standard library stays warm: one untimed run of each command caches its
bytecode in the prefix, and the package's entries are then deleted.

Prints, per command, the median and quartiles of the share in ms, the
median -X importtime total of the package (the cumulative times of the
imports made from the package's own onward, the standard modules it pulls
in included) over as many more spawns, the summed size in KiB of the
package's source files it loads (its __init__ and __main__ included), a
count that repeats exactly where the times scatter, and the package
modules it loads.
A second table lists, per command, the standard modules `python -v`
reports imported after the package, so that a heavy import (argparse,
say) that comes back shows up by name.

Usage:
  python3 scripts/startup_report.py [--repeat 15]
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOC = ROOT / "fixtures" / "cut2_0.json"

# each command line and the exit code it must end with
COMMANDS = (
    (("--help",), 0),
    (("reliability", "--bogus"), 2),
    (("reliability", "--route", "factoring", "--input", "GRAPH"), 0),
    (("reliability", "--route", "bruteforce", "--input", "GRAPH"), 0),
    (("polynomial", "--input", "GRAPH"), 0),
    (("rcm", "--input", "GRAPH"), 0),
    (("factor", "--route", "n2", "--input", "DOC"), 0),
    (("factor", "--route", "factorized", "--input", "DOC"), 0),
    (("factor", "--route", "joint", "--input", "DOC"), 0),
    (("distribution", "--input", "DOC"), 0),
    (("conmatrix", "--n", "3"), 0),
    (("verify", "--input", "DOC"), 0),
)


def spawn(argv: list[str], env: dict[str, str], *flags: str, code: int = 0) -> tuple[float, str]:
    """Seconds from spawn to exit of one interpreter, which must exit with
    code, and its stderr."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - started
    if proc.returncode != code:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}, not {code}: {proc.stderr[-500:]}")
    return seconds, proc.stderr


def importtime_ms(stderr: str) -> float:
    """Sum of the top-level cumulative times from the package's import on."""
    rows = re.findall(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", stderr, re.MULTILINE)
    names = [name for _, _, name in rows]
    start = names.index("relfact")
    return sum(int(us) for us, indent, _ in rows[start:] if len(indent) == 1) / 1000


def loaded_modules(stderr: str) -> tuple[list[str], list[str]]:
    """The package modules that `python -v` reports importing, and the
    other modules imported from the package's import on, in import order."""
    imported = re.findall(r"^import '([\w.]+)'", stderr, re.MULTILINE)
    after = imported[imported.index("relfact") :]
    return [m for m in after if m.startswith("relfact.")], [m for m in after if m.split(".")[0] != "relfact"]


def source_kb(modules: list[str]) -> float:
    """Summed size in KiB of the source files of the package modules, with
    the package's __init__ and __main__, which every `-m relfact` runs."""
    total = 0
    for name in ["relfact", "relfact.__main__", *modules]:
        path = SRC.joinpath(*name.split("."))
        total += (path / "__init__.py" if path.is_dir() else path.with_suffix(".py")).stat().st_size
    return total / 1024


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=15, help="alternated spawn pairs per command")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        prefix = tmp / "pycache"
        graph = tmp / "union.json"
        g1, g2 = (json.loads(DOC.read_text())[side] for side in ("g1", "g2"))
        union = {key: sorted(set(g1[key]) | set(g2[key])) for key in ("nodes", "terminals")}
        graph.write_text(json.dumps({**union, "edges": g1["edges"] + g2["edges"]}))
        paths = {"DOC": str(DOC), "GRAPH": str(graph)}
        commands = [([paths.get(x, x) for x in c], code) for c, code in COMMANDS]

        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("RELFACT_BOUND", None)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        cache = ("-X", f"pycache_prefix={prefix}")
        spawn(["-c", "pass"], env, *cache)
        for argv, code in commands:
            spawn(["-m", "relfact", *argv], env, *cache, code=code)
        shutil.rmtree(prefix / SRC.relative_to(SRC.anchor), ignore_errors=True)
        env["PYTHONDONTWRITEBYTECODE"] = "1"

        floors: list[float] = []
        shares: list[list[float]] = [[] for _ in commands]
        imports: list[list[float]] = [[] for _ in commands]
        for _ in range(args.repeat):
            for k, (argv, code) in enumerate(commands):
                floor, _ = spawn(["-c", "pass"], env, *cache)
                seconds, _ = spawn(["-m", "relfact", *argv], env, *cache, code=code)
                _, timed = spawn(["-m", "relfact", *argv], env, *cache, "-X", "importtime", code=code)
                floors.append(floor)
                shares[k].append(seconds - floor)
                imports[k].append(importtime_ms(timed))

        q1, med, q3 = quartiles(floors)
        print(f"floor `python -c pass`: {1000 * med:.1f} ms [{1000 * q1:.1f}, {1000 * q3:.1f}], {len(floors)} spawns")
        print(f"{'command':<48} {'share_ms':>8} {'q1':>6} {'q3':>6} {'import_ms':>9} {'source_kb':>9}  modules")
        standard = []
        for (name, _), (argv, code), xs, ys in zip(COMMANDS, commands, shares, imports):
            _, verbose = spawn(["-m", "relfact", *argv], env, *cache, "-v", code=code)
            package, others = loaded_modules(verbose)
            modules = " ".join(sorted(m.removeprefix("relfact.") for m in package))
            standard.append(f"{' '.join(name):<48} {' '.join(others)}")
            q1, med, q3 = quartiles(xs)
            print(
                f"{' '.join(name):<48} {1000 * med:>8.1f} {1000 * q1:>6.1f} {1000 * q3:>6.1f} "
                f"{statistics.median(ys):>9.1f} {source_kb(package):>9.1f}  {modules}"
            )
        print()
        print(f"{'command':<48} standard modules loaded after the package, in import order")
        print("\n".join(standard))
    return 0


if __name__ == "__main__":
    sys.exit(main())
