"""Benchmark of the relfact CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload factoring --seed 1 --seconds 55 --trace 0

One client runs the workload's instance set in a closed loop, one
invocation at a time with ``--jobs 1``, pass after pass, until the next
pass would end after ``--seconds``.  With ``--trace 0`` every invocation is
a fresh ``python -m relfact`` process, runs of reference.py are spawned
between invocations, and the end-to-end metrics are reported, timings in
units of the reference's time.  With ``--trace 1`` the same invocations call
``relfact.cli.main`` in this process, alternating untraced passes with
passes in which the package's public functions are wrapped, and the
per-layer metrics are reported.  Answers are checked after the timed
passes, by routes that do not use the package.  The last line of stdout is
one JSON object with the results; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spawn
import tracing
from checks import BYTES, INCORRECT_KINDS, TRACEBACK, WRONG, Failure
from workloads import BUILDERS, Invocation, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"

# setup_s takes the median of this many spawns before the passes and as
# many after them, so it samples the machine at both ends of the run
SETUP_SPAWNS_EACH_END = 5
END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("solve_ref.p50", "ref"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))
# wall_ref and solve_ref.p50 count time in runs of this fixed computation
# (see reference.py).  It is spawned between invocations whenever this many
# seconds of invocation time have passed since its last run, and each
# invocation's time is divided by the median time of the LOCAL_REFS runs
# nearest to it.
REFERENCE_CMD = [sys.executable, str(BENCH / "reference.py")]
REFERENCE_EVERY_S = 1.5
LOCAL_REFS = 5
# No new pass starts after this many seconds, and every child still running
# at the kill deadline is killed, so a run ends well inside three minutes.
PASS_CUTOFF_S = 110.0
KILL_DEADLINE_S = 150.0


@dataclass
class Record:
    """One timed invocation."""

    key: str
    seconds: float
    stdout: bytes
    failure: Failure | None
    max_rss_kb: int = 0
    ref_index: int = 0  # reference runs made before this invocation ended
    in_refs: float = 0.0  # seconds divided by the local reference time


def ranked_median(ok: list[float], failed: list[float]) -> float:
    """Median in which every failed sample ranks above every good one."""
    ranked = sorted(ok) + sorted(failed)
    mid = len(ranked) // 2
    return ranked[mid] if len(ranked) % 2 else (ranked[mid - 1] + ranked[mid]) / 2


class Run:
    def __init__(self, workload: Workload, seconds: float, scratch: Path) -> None:
        self.workload = workload
        self.seconds = seconds
        self.scratch = scratch
        self.started = time.perf_counter()
        self.env = spawn.child_env(ROOT)
        self.inputs: dict[str, str] = {}
        inputs_dir = scratch / "inputs"
        inputs_dir.mkdir()
        for inv in workload.invocations:
            if inv.doc is not None:
                path = inputs_dir / f"{inv.key}.json"
                path.write_text(json.dumps(inv.doc, sort_keys=True))
                self.inputs[inv.key] = str(path)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.scratch))

    def spawn(self, cmd: list[str]) -> spawn.ChildRun:
        cwd = self.fresh_dir()
        try:
            return spawn.spawn(cmd, cwd, self.env, timeout=KILL_DEADLINE_S - self.elapsed())
        finally:
            shutil.rmtree(cwd, ignore_errors=True)

    def spawn_invocation(self, inv: Invocation, jobs: int = 1) -> Record:
        child = self.spawn(spawn.relfact_command(inv.argv(self.inputs.get(inv.key), jobs)))
        failure = checks.classify(child.returncode, child.stderr, child.timed_out)
        return Record(inv.key, child.seconds, child.stdout, failure, child.max_rss_kb)

    def rerun_at_jobs2(self) -> dict[str, Record]:
        """One untimed --jobs 2 run of each invocation that must keep its bytes."""
        return {
            inv.key: self.spawn_invocation(inv, jobs=2)
            for inv in self.workload.invocations
            if inv.key in self.workload.jobs2_keys
        }

    def run_pass(self, run_one) -> tuple[list[Record], float]:
        started = time.perf_counter()
        records = [run_one(i, inv) for i, inv in enumerate(self.workload.invocations)]
        return records, time.perf_counter() - started

    def may_start_pass(self, pass_times: list[float], done: int, minimum: int) -> bool:
        if self.elapsed() > PASS_CUTOFF_S:
            return False
        if done < minimum:
            return True
        return self.elapsed() + statistics.median(pass_times) <= self.seconds


def evaluate(workload: Workload, passes: list[list[Record]], jobs2: dict[str, Record]) -> list[Record]:
    """Judge every record; returns them all with their failures filled in.

    The first pass supplies the answers that are checked and the reference
    bytes: every later pass, and every --jobs 2 rerun, must print exactly
    the same stdout.  A wrong answer fails the invocation in every pass.
    """
    ref = {r.key: r for r in passes[0]}
    answers: dict[str, dict | None] = {}
    instance: dict[str, Failure] = {}
    for key, r in ref.items():
        answers[key] = None
        if r.failure is None:
            try:
                answers[key] = json.loads(r.stdout)
            except ValueError:
                instance[key] = Failure(WRONG, "stdout is not one JSON document")
    try:
        verdicts = workload.check(answers)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        verdicts = {k: Failure(WRONG, f"answer lacks an expected field: {exc!r}") for k, a in answers.items() if a}
    for key, f in verdicts.items():
        instance.setdefault(key, f)
    for key, r in jobs2.items():
        if r.failure is not None:
            instance.setdefault(key, Failure(r.failure.kind, f"at --jobs 2: {r.failure.detail}"))
        elif r.stdout != ref[key].stdout:
            instance.setdefault(key, Failure(BYTES, "stdout differs at --jobs 2"))
    out = []
    for records in passes:
        for r in records:
            if r.failure is None and r.stdout != ref[r.key].stdout:
                r.failure = Failure(BYTES, "stdout differs from the first pass")
            if r.failure is None:
                r.failure = instance.get(r.key)
            out.append(r)
    return out


def timed_run(run: Run) -> tuple[dict, list[Record], dict]:
    """End-to-end metrics from child processes."""
    help_cmd = spawn.relfact_command(["--help"])
    run.spawn(help_cmd)  # fills the bytecode cache; not measured

    def measure_setup() -> list[float]:
        times = []
        for _ in range(SETUP_SPAWNS_EACH_END):
            child = run.spawn(help_cmd)
            if child.returncode != 0:
                raise SystemExit(f"perfbench: `relfact --help` exited {child.returncode}: {child.stderr[-500:]}")
            times.append(child.seconds)
        return times

    def measure_reference() -> float:
        child = run.spawn(REFERENCE_CMD)
        if child.returncode != 0:
            raise SystemExit(f"perfbench: reference.py exited {child.returncode}: {child.stderr[-500:]}")
        return child.seconds

    ref_times: list[float] = []
    since_ref = 0.0

    def run_one(i: int, inv: Invocation) -> Record:
        nonlocal since_ref
        record = run.spawn_invocation(inv)
        record.ref_index = len(ref_times)
        since_ref += record.seconds
        if since_ref >= REFERENCE_EVERY_S:
            ref_times.append(measure_reference())
            since_ref = 0.0
        return record

    setup = measure_setup()
    measure_reference()  # fills the bytecode cache; not measured
    ref_times.append(measure_reference())
    passes, pass_times, took_times = [], [], []
    while run.may_start_pass(took_times, len(passes), minimum=2):
        records, took = run.run_pass(run_one)
        passes.append(records)
        pass_times.append(sum(r.seconds for r in records))
        took_times.append(took)
    ref_times.append(measure_reference())
    setup += measure_setup()

    def local_ref(j: int) -> float:
        lo = max(0, min(j - LOCAL_REFS // 2, len(ref_times) - LOCAL_REFS))
        return statistics.median(ref_times[lo : lo + LOCAL_REFS])

    for r in (r for records in passes for r in records):
        r.in_refs = r.seconds / local_ref(r.ref_index)

    jobs2 = run.rerun_at_jobs2()
    records = evaluate(run.workload, passes, jobs2)
    ok = [r.seconds for r in records if r.failure is None]
    bad = [r.seconds for r in records if r.failure is not None]
    seconds = {
        "wall_s": statistics.median(pass_times),
        "solve_s.p50": ranked_median(ok, bad),
        "ref_s": statistics.median(ref_times),
    }
    values = {
        "setup_s": statistics.median(setup),
        "wall_ref": statistics.median(sum(r.in_refs for r in records) for records in passes),
        "solve_ref.p50": ranked_median(
            [r.in_refs for r in records if r.failure is None], [r.in_refs for r in records if r.failure is not None]
        ),
        "peak_rss_mb": max(r.max_rss_kb for r in records) / 1024.0,
        "ok_ratio": len(ok) / len(records),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    notes = {
        "invocations_per_pass": len(run.workload.invocations),
        "passes": len(passes),
        "pass_s": [round(t, 3) for t in pass_times],
        "ref_samples": len(ref_times),
        "setup_spawns": len(setup),
        "solve_samples": len(records),
        "jobs2_reruns": len(jobs2),
        "seconds": {k: round(v, 4) for k, v in seconds.items()},
    }
    return metrics, records, notes


def traced_run(run: Run) -> tuple[dict, list[Record], dict]:
    """Per-layer metrics from in-process calls of relfact.cli.main."""
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("RELFACT_BOUND", None)
    import relfact.cli  # noqa: F401  loads every module the tracer patches

    # lru caches would carry work from one invocation to the next; clearing
    # them makes every in-process invocation start as cold as a new process
    caches = [
        obj
        for m in tracing.relfact_modules()
        for obj in vars(m).values()
        if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith("relfact")
    ]
    tracer = tracing.Tracer()

    def run_one(i: int, inv: Invocation, traced: bool) -> Record:
        for c in caches:
            c.cache_clear()
        cwd = run.fresh_dir()
        here = os.getcwd()
        tracer.current_invocation = i
        os.chdir(cwd)
        try:
            started = time.perf_counter()
            code, out, err, escaped = tracing.call_cli(inv.argv(run.inputs.get(inv.key)))
            seconds = time.perf_counter() - started
        finally:
            os.chdir(here)
            shutil.rmtree(cwd, ignore_errors=True)
        stdout = out.encode()
        if traced:
            tracer.counts["jsonio.bytes_out"] += len(stdout)
        if escaped is not None:
            failure = Failure(TRACEBACK, f"{type(escaped).__name__}: {str(escaped)[:160]}")
        else:
            failure = checks.classify(code, err)
        return Record(inv.key, seconds, stdout, failure)

    passes, plain_times, traced_times, layer = [], [], [], []
    while run.may_start_pass([a + b for a, b in zip(plain_times, traced_times)], len(traced_times), minimum=1):
        records, took = run.run_pass(lambda i, inv: run_one(i, inv, False))
        passes.append(records)
        plain_times.append(took)
        tracer.reset()
        with tracer.installed():
            records, took = run.run_pass(lambda i, inv: run_one(i, inv, True))
        passes.append(records)
        traced_times.append(took)
        layer.append(tracer.metrics())
    tracer.write_spans(SPANS_DIR / f"spans-{run.workload.name}.tsv")

    jobs2 = run.rerun_at_jobs2()
    records = evaluate(run.workload, passes, jobs2)

    drifting = [k for k in tracing.DETERMINISTIC if len({m[k] for m in layer}) > 1]
    if drifting:
        print(f"perfbench: counters differ between traced passes: {drifting}", file=sys.stderr)
    metrics = {}
    units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    for name, unit in units.items():
        if name == "trace.overhead_ratio":
            value = statistics.median(traced_times) / statistics.median(plain_times)
        elif name.endswith(".self_s"):
            value = statistics.median(m[name] for m in layer)
        else:
            value = layer[0][name]
        metrics[name] = (value, unit)
    notes = {
        "invocations_per_pass": len(run.workload.invocations),
        "traced_passes": len(traced_times),
        "untraced_passes": len(plain_times),
        "jobs2_reruns": len(jobs2),
    }
    return metrics, records, notes


def report(workload: str, seed: int, trace: bool, metrics: dict, records: list[Record], notes: dict) -> dict:
    failed = [r for r in records if r.failure is not None]
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **notes,
    }
    print("# " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6f} {unit}")
    print(f"{'fail_ratio':<44} {len(failed) / len(records):>14.6f} ratio  ({len(failed)} of {len(records)} failed)")
    seen = set()
    for r in failed:
        if (r.key, str(r.failure)) not in seen:
            seen.add((r.key, str(r.failure)))
            print(f"perfbench: {r.key} failed: {r.failure}", file=sys.stderr)
    return {
        "correct": not any(r.failure.kind in INCORRECT_KINDS for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "relfact" / "cli.py").is_file():
        print(f"perfbench: no relfact sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    workload = BUILDERS[args.workload](args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        run = Run(workload, args.seconds, scratch)
        metrics, records, notes = (traced_run if args.trace else timed_run)(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = report(workload.name, args.seed, bool(args.trace), metrics, records, notes)
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
