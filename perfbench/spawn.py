"""Running one ``relfact`` invocation as a child process.

Each child runs in a fresh working directory with the package on
``PYTHONPATH`` and ``RELFACT_BOUND`` removed from its environment.  The
child is reaped with ``os.wait4`` so its own maximum resident set size comes
back with its exit status.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildRun:
    seconds: float  # spawn to exit
    returncode: int
    stdout: bytes
    stderr: str
    max_rss_kb: int
    timed_out: bool


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RELFACT_BOUND", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def relfact_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "relfact", *argv]


def spawn(cmd: list[str], cwd: Path, env: dict[str, str], timeout: float) -> ChildRun:
    """Run cmd in cwd until it exits or timeout seconds pass, then kill it.

    stdout and stderr go to files in cwd, so a chatty child can never block
    on a full pipe.
    """
    timed_out = threading.Event()
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill() -> None:
            timed_out.set()
            proc.kill()

        killer = threading.Timer(max(timeout, 0.001), kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        seconds=seconds,
        returncode=proc.returncode,
        stdout=(cwd / "stdout").read_bytes(),
        stderr=(cwd / "stderr").read_text(errors="replace"),
        max_rss_kb=usage.ru_maxrss,
        timed_out=timed_out.is_set(),
    )
