"""In-process tracing of relfact's public functions, from outside the package.

``Tracer.installed()`` replaces each traced function by a wrapper, both in
its defining module and in every ``relfact`` module that imported it by
name, and puts the originals back on exit.  Each call records a span (name,
start, end, parent span, invocation id) in flat arrays that stay in memory
until ``write_spans`` puts them in a file.  A span's self time is its
duration minus the durations of its direct children; calls nest on one
thread, so the children never overlap.

A few counters are computed from a call's arguments or result rather than
measured: ``linalg.mat_mul.mults`` (rows * inner * cols per product),
``reliability.enum.states`` (2^m per enumeration walk, zero-probability
branches included), ``conmatrix.nnz_BD`` (non-zeros of the B and D
factors), and the pruning counts of ``graphs.irrelevant_edges``.
"""

from __future__ import annotations

import functools
import io
import sys
import time
from array import array
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

# module -> public functions wrapped in it
TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "jsonio": ("graph_from_obj", "decomposition_from_obj", "dumps_canonical", "fraction_to_str"),
    "graphs": (
        "contract",
        "delete",
        "delete_many",
        "identify_nodes",
        "irrelevant_edges",
        "is_k_connected",
        "validate_decomposition",
    ),
    "reliability": (
        "reliability_factoring",
        "conditioned_reliability",
        "factorization_detail",
        "reliability_bruteforce",
        "state_distribution",
        "reliability_polynomial",
        "joint_reliability",
    ),
    "cluster": ("partition_function", "factorized_dq"),
    "conmatrix": ("invert_connectivity_matrix", "pi_vector", "xi_vector", "connectivity_matrix"),
    "linalg": ("mat_mul", "fraction_free_determinant", "smith_normal_form"),
    "partitions": ("join", "meet", "is_connected_pair", "coherent_order"),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# counters computed from arguments or results: (metric, unit, better)
COUNTERS = (
    ("conmatrix.nnz_BD", "count", "lower"),
    ("linalg.mat_mul.mults", "count", "lower"),
    ("reliability.enum.states", "count", "lower"),
    ("graphs.pruned_edges", "count", "higher"),
    ("graphs.prune_hit_ratio", "ratio", "higher"),
    ("jsonio.bytes_out", "count", "lower"),
)

# counts that must repeat exactly between runs of the same inputs
DETERMINISTIC = (
    "reliability.reliability_factoring.calls",
    "reliability.conditioned_reliability.calls",
    "partitions.join.calls",
    "graphs.pruned_edges",
    "reliability.enum.states",
    "linalg.mat_mul.mults",
    "conmatrix.nnz_BD",
)

ENUMERATION_WALKS = frozenset(
    {"reliability.reliability_bruteforce", "reliability.state_distribution", "reliability.reliability_polynomial"}
)
# calls whose arguments or result feed a computed counter
OBSERVED = ENUMERATION_WALKS | {"linalg.mat_mul", "conmatrix.invert_connectivity_matrix", "graphs.irrelevant_edges"}


def relfact_modules() -> list:
    return [m for key, m in sorted(sys.modules.items()) if key == "relfact" or key.startswith("relfact.")]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    out = []
    for name in TRACED_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend(COUNTERS)
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


def call_cli(argv: list[str]) -> tuple[int, str, str, BaseException | None]:
    """Run ``relfact.cli.main(argv)`` in this process with stdout and stderr
    captured: (exit code, stdout, stderr, exception that escaped main)."""
    import relfact.cli

    out, err = io.StringIO(), io.StringIO()
    escaped = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = relfact.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the CLI let it escape: a traceback in a real run
        escaped, code = exc, 1
    return code, out.getvalue(), err.getvalue(), escaped


def _nnz(matrix) -> int:
    return sum(1 for row in matrix for x in row if x)


class Tracer:
    """Spans and computed counters of the calls made while installed."""

    def __init__(self) -> None:
        self.name_ix = {name: i for i, name in enumerate(TRACED_NAMES)}
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.invocation = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_invocation = -1
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self.prune_calls = 0
        self.prune_hits = 0

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "linalg.mat_mul":
            a, b = args[0], args[1]
            self.counts["linalg.mat_mul.mults"] += len(a) * len(b) * (len(b[0]) if b else 0)
        elif name in ENUMERATION_WALKS:
            self.counts["reliability.enum.states"] += 1 << len(args[0].edges)
        elif name == "conmatrix.invert_connectivity_matrix":
            self.counts["conmatrix.nnz_BD"] += _nnz(result.B) + _nnz(result.D)
        elif name == "graphs.irrelevant_edges":
            self.prune_calls += 1
            self.prune_hits += bool(result)
            self.counts["graphs.pruned_edges"] += len(result)

    def wrap(self, name: str, fn):
        ix = self.name_ix[name]
        observed = name in OBSERVED
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(tracer.start)
            tracer.name.append(ix)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.invocation.append(tracer.current_invocation)
            tracer.end.append(0.0)
            tracer.stack.append(span)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[span] = clock()
                tracer.stack.pop()
            if observed:
                tracer._observe(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper in all relfact modules.

        A function the package no longer has is skipped and reads as zero
        calls, so a refactor that removes one does not stop the benchmark.
        """
        modules = relfact_modules()
        undo = []
        for mod, fns in TRACED.items():
            home = sys.modules.get(f"relfact.{mod}")
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{mod}.{fn}", original)
                for m in modules:
                    if getattr(m, fn, None) is original:
                        setattr(m, fn, wrapper)
                        undo.append((m, fn, original))
        try:
            yield self
        finally:
            for m, fn, original in undo:
                setattr(m, fn, original)

    def metrics(self) -> dict[str, float]:
        """Calls and self time per traced function, plus the counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(TRACED_NAMES)
        self_s = [0.0] * len(TRACED_NAMES)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
        out: dict[str, float] = {}
        for k, name in enumerate(TRACED_NAMES):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        out.update(self.counts)
        out["graphs.prune_hit_ratio"] = self.prune_hits / self.prune_calls if self.prune_calls else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """One line per span: invocation, span id, parent id, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as f:
            f.write("invocation\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.invocation[i]}\t{i}\t{self.parent[i]}\t{TRACED_NAMES[self.name[i]]}"
                    f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
