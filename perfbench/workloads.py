"""The two workloads: their invocations and the checks on their answers.

A workload is a fixed list of ``relfact`` invocations built from the seed
(the "instance set") and a check that judges the parsed JSON answers of one
run through that list.  Each of the two joins two instance sets: ``factoring``
is ``cut-grid`` then ``chain``, ``dense`` is ``cut-wide`` then ``oracle``.  The shape of every input is fixed per slot, random
decompositions included (their wiring comes from a stream seeded by the slot
alone); the seed varies only the edge probabilities.  So the work of a pass
hardly moves from seed to seed, and the run-to-run spread of a metric
measures the machine, not the draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import checks
import inputs
from checks import UNCHECKED, WRONG, Failure

ORDERS = ("canonical", "reversed-levels")

# |det A| of the connectivity matrix for a 5-node boundary, as published
DET_MAGNITUDE_N5 = 24 * 6**10 * 2**25

# Largest union the enumeration oracle walks on a grid (2^20 states).
GRID_ENUMERATION_MAX_EDGES = 20


@dataclass(frozen=True)
class Invocation:
    """One ``relfact`` call: its arguments and, if it reads one, its input."""

    key: str
    args: tuple[str, ...]
    doc: dict | None = None

    def argv(self, input_path: str | None, jobs: int = 1) -> list[str]:
        out = list(self.args)
        if self.doc is not None:
            out += ["--input", input_path]
        return out + ["--output", "json", "--jobs", str(jobs)]


Answers = dict[str, dict | None]
Checker = Callable[[Answers], dict[str, Failure]]


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    check: Checker
    # keys whose stdout must also be byte-identical at --jobs 2
    jobs2_keys: frozenset[str] = field(default_factory=frozenset)


def _expect(got: str, want: Fraction, what: str) -> Failure | None:
    if got != checks.frac_str(want):
        return Failure(WRONG, f"{what}: got {got}, expected {checks.frac_str(want)}")
    return None


def _put(failures: dict[str, Failure], key: str, failure: Failure | None) -> None:
    if failure is not None and key not in failures:
        failures[key] = failure


def _unchecked(failures: dict[str, Failure], answers: Answers, keys, because: str) -> None:
    """Fail the answers that cannot be judged because a partner invocation failed."""
    for k in keys:
        if answers.get(k) is not None:
            _put(failures, k, Failure(UNCHECKED, because))


# -- chain ---------------------------------------------------------------------

# The small paths and necklaces (100 nodes, 6-8 beads) cost less than every
# grid cut but the 3x4 grid's column-1 cuts.  They put the median invocation
# of ``factoring`` inside the group of the 3x4 and 3x5 column-2 cuts, which
# cost about the same, and not on the gap above that group.
PATH_NODES = (100, 200, 250, 300, 1500)
NECKLACE_BEADS = (6, 7, 8, 9, 10, 12)


def chain(seed: int) -> Workload:
    """Series-parallel chains whose reliability has a closed form."""
    rng = inputs.rng_for("chain", seed)
    invocations, expected = [], {}
    for nodes in PATH_NODES:
        probs = [inputs.random_prob(rng) for _ in range(nodes - 1)]
        key = f"path{nodes}"
        invocations.append(
            Invocation(key, ("reliability", "--route", "factoring"), inputs.path_graph(probs))
        )
        expected[key] = lambda probs=probs: checks.path_reliability(probs)
    for count in NECKLACE_BEADS:
        beads = [(inputs.random_prob(rng), inputs.random_prob(rng)) for _ in range(count)]
        key = f"necklace{count}"
        invocations.append(
            Invocation(key, ("reliability", "--route", "factoring"), inputs.necklace_graph(beads))
        )
        expected[key] = lambda beads=beads: checks.necklace_reliability(beads)

    def check(answers: Answers) -> dict[str, Failure]:
        failures: dict[str, Failure] = {}
        for key, want in expected.items():
            if answers.get(key) is not None:
                _put(failures, key, _expect(answers[key]["reliability"], want(), "closed form"))
        return failures

    return Workload("chain", invocations, check)


# -- cut-grid ------------------------------------------------------------------

# (rows, cols, the two interior columns the grid is cut at)
GRIDS = ((3, 4, (1, 2)), (3, 5, (1, 2)))


def cut_grid(seed: int) -> Workload:
    """Grids cut down an interior column, each at two columns and under both
    coherent orders; the four answers of a grid must agree bit for bit."""
    rng = inputs.rng_for("cut-grid", seed)
    invocations, groups, unions = [], {}, {}
    for rows, cols, cut_cols in GRIDS:
        edges = inputs.grid_edges(rows, cols, rng)
        terminals = inputs.grid_terminals(rows, cols, cut_cols)
        grid = f"grid{rows}x{cols}"
        groups[grid] = []
        for k in cut_cols:
            doc = inputs.grid_cut(rows, cols, edges, terminals, k)
            unions[grid] = inputs.union_of(doc)  # the same union for every cut
            for order in ORDERS:
                key = f"{grid}-col{k}-{order}"
                groups[grid].append(key)
                invocations.append(
                    Invocation(key, ("factor", "--route", "factorized", "--order", order), doc)
                )

    def check(answers: Answers) -> dict[str, Failure]:
        failures: dict[str, Failure] = {}
        for grid, keys in groups.items():
            got = {k: answers[k]["reliability"] for k in keys if answers.get(k) is not None}
            if len(got) < len(keys):
                _unchecked(failures, answers, keys, f"another cut of {grid} failed")
                continue
            if len(set(got.values())) > 1:
                for k in keys:
                    _put(failures, k, Failure(WRONG, f"cuts of {grid} disagree: {sorted(set(got.values()))}"))
                continue
            union = unions[grid]
            if len(union["edges"]) <= GRID_ENUMERATION_MAX_EDGES:
                want = checks.enumerate_reliability(union)
                for k in keys:
                    _put(failures, k, _expect(got[k], want, "enumeration"))
        return failures

    return Workload("cut-grid", invocations, check, jobs2_keys=frozenset(i.key for i in invocations))


# -- cut-wide ------------------------------------------------------------------

# (interior nodes per side, chords per side) of each 5-node-boundary slot
WIDE_SLOTS = (((2, 2), (1, 1)),)
WIDE_N = 5


def cut_wide(seed: int) -> Workload:
    """Small decompositions with a 5-node boundary, plus the n = 5 bundle."""
    rng = inputs.rng_for("cut-wide", seed)
    invocations = [Invocation("conmatrix5", ("conmatrix", "--n", str(WIDE_N)))]
    unions = {}
    for i, (interior, chords) in enumerate(WIDE_SLOTS):
        wiring = inputs.rng_for(f"cut-wide/wiring{i}", 0)
        doc = inputs.random_decomposition(wiring, rng, WIDE_N, interior, chords, "mixed")
        key = f"wide{i}-m{len(inputs.union_of(doc)['edges'])}"
        unions[key] = inputs.union_of(doc)
        invocations.append(Invocation(key, ("factor", "--route", "factorized"), doc))

    def check(answers: Answers) -> dict[str, Failure]:
        failures: dict[str, Failure] = {}
        con = answers.get("conmatrix5")
        if con is not None:
            problem = checks.check_conmatrix(con, WIDE_N, DET_MAGNITUDE_N5)
            _put(failures, "conmatrix5", Failure(WRONG, problem) if problem else None)
        for key, union in unions.items():
            out = answers.get(key)
            if out is None:
                continue
            _put(failures, key, _expect(out["reliability"], checks.enumerate_reliability(union), "enumeration"))
            if con is not None and out["b_matrix"] != con["A_inv"]:
                _put(failures, key, Failure(WRONG, "b_matrix differs from conmatrix A_inv"))
        return failures

    return Workload("cut-wide", invocations, check)


# -- oracle --------------------------------------------------------------------

# name -> (n, interior nodes per side, chords per side, terminal mode)
ORACLE_SLOTS = {
    "d1": (2, (4, 3), (3, 2), "boundary"),  # 14 edges
    "d2": (3, (3, 3), (3, 3), "boundary"),  # 16 edges
    "d3": (2, (3, 3), (4, 3), "all"),  # 15 edges
}


def oracle(seed: int) -> Workload:
    """The 2^m enumeration routes, cross-checked against factoring."""
    rng = inputs.rng_for("oracle", seed)
    invocations: list[Invocation] = []
    docs = {}
    for name, (n, interior, chords, mode) in ORACLE_SLOTS.items():
        wiring = inputs.rng_for(f"oracle/wiring-{name}", 0)
        docs[name] = inputs.random_decomposition(wiring, rng, n, interior, chords, mode)
        invocations.append(Invocation(f"verify-{name}", ("verify",), docs[name]))
    for name in ("d1", "d2"):
        d = docs[name]
        invocations.append(Invocation(f"distribution-{name}", ("distribution",), d))
        invocations.append(Invocation(f"joint-{name}", ("factor", "--route", "joint"), d))
        # cheap like distribution and joint: with them the median invocation
        # of ``dense`` falls inside the group of polynomial-d1, factoring-eq-d2
        # and factoring-d3, which cost about the same
        invocations.append(Invocation(f"factorized-{name}", ("factor", "--route", "factorized"), d))
    union3 = inputs.union_of(docs["d3"])
    invocations.append(Invocation("rcm-d3", ("rcm",), union3))
    invocations.append(Invocation("factoring-d3", ("reliability", "--route", "factoring"), union3))
    equal_p = {}
    for name in ("d1", "d2"):
        p = inputs.random_prob(rng)
        g = inputs.with_equal_probability(inputs.union_of(docs[name]), p)
        equal_p[name] = p
        invocations.append(Invocation(f"polynomial-{name}", ("polynomial",), g))
        invocations.append(Invocation(f"factoring-eq-{name}", ("reliability", "--route", "factoring"), g))

    def check(answers: Answers) -> dict[str, Failure]:
        failures: dict[str, Failure] = {}
        verified = {}
        for name in docs:
            key = f"verify-{name}"
            out = answers.get(key)
            if out is None:
                continue
            if not out["ok"]:
                _put(failures, key, Failure(WRONG, f"verify reports {out['results'][0]['failures']}"))
            verified[name] = out["results"][0]["reliability"]
        for name in ("d1", "d2"):
            n = ORACLE_SLOTS[name][0]
            dkey, jkey, fkey = f"distribution-{name}", f"joint-{name}", f"factorized-{name}"
            if name not in verified:
                _unchecked(failures, answers, (dkey, jkey, fkey), f"verify-{name} failed")
                continue
            want = Fraction(verified[name])
            dist = answers.get(dkey)
            if dist is not None:
                masses = [sum(map(Fraction, dist[s].values()), Fraction(0)) for s in ("g1", "g2")]
                if masses != [1, 1]:
                    _put(failures, dkey, Failure(WRONG, f"side masses {masses}"))
                else:
                    _put(failures, dkey, _expect(checks.frac_str(checks.joint_sum(dist["g1"], dist["g2"], n)), want, "joint sum vs verify"))
            for key in (jkey, fkey):
                if answers.get(key) is not None:
                    _put(failures, key, _expect(answers[key]["reliability"], want, "verify"))
        rcm, fact3 = answers.get("rcm-d3"), answers.get("factoring-d3")
        if rcm is None or fact3 is None:
            _unchecked(failures, answers, ("rcm-d3", "factoring-d3"), "rcm-d3 or factoring-d3 failed")
        else:
            want = Fraction(fact3["reliability"])
            _put(failures, "rcm-d3", _expect(rcm["dZdq_at_0"], want, "all-terminal factoring"))
            if "d3" in verified:
                _put(failures, "factoring-d3", _expect(fact3["reliability"], Fraction(verified["d3"]), "verify"))
        for name, p in equal_p.items():
            pkey, fkey = f"polynomial-{name}", f"factoring-eq-{name}"
            poly, fact = answers.get(pkey), answers.get(fkey)
            if poly is None or fact is None:
                _unchecked(failures, answers, (pkey, fkey), f"{pkey} or {fkey} failed")
                continue
            value = checks.polynomial_value(poly["coefficients"], p)
            _put(failures, pkey, _expect(fact["reliability"], value, "polynomial at p"))
        return failures

    return Workload("oracle", invocations, check)


# -- the workloads the benchmark runs -----------------------------------------


def joined(name: str, parts: list[Workload]) -> Workload:
    """One workload that runs the parts' instance sets one after the other."""

    def check(answers: Answers) -> dict[str, Failure]:
        failures: dict[str, Failure] = {}
        for part in parts:
            failures.update(part.check({i.key: answers.get(i.key) for i in part.invocations}))
        return failures

    return Workload(
        name,
        [inv for part in parts for inv in part.invocations],
        check,
        frozenset().union(*(part.jobs2_keys for part in parts)),
    )


def factoring(seed: int) -> Workload:
    """Side solves of cut grids and deep series-parallel chains."""
    return joined("factoring", [cut_grid(seed), chain(seed)])


def dense(seed: int) -> Workload:
    """The n = 5 connectivity bundle and the 2^m state walks."""
    return joined("dense", [cut_wide(seed), oracle(seed)])


BUILDERS: dict[str, Callable[[int], Workload]] = {
    "factoring": factoring,
    "dense": dense,
}
