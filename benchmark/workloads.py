"""Benchmark workloads: seeded input generators, one job per workload, and
the output checks every job must pass.

A job is one closed-loop summarization: a single process runs one job at a
time and the next starts only after the previous one is checked. Library
jobs drive ``SummaryGraph.from_edge_list``, ``Summarizer`` and
``Summarizer.step`` directly; the CLI job runs ``graphsumm.cli.main`` on an
edge-list file and reads the summary back with ``read_summary``. Phase
times come from clock readings around public calls; the CLI job learns
where its merge loop starts and ends from a marker around
``Summarizer.run`` (see ``LoopMarks``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from graphsumm import cli, evaluation, summarizer, summary_graph
# Bound before any tracing patch, so that the checks are never traced.
from graphsumm.evaluation import re_closed as reference_re_closed

SKETCH_WIDTH = 100
SKETCH_DEPTH = 2
LEDGER_REL_TOL = 1e-9
# Nominal time of the reference pass per node and adjacency entry it visits;
# it only fixes the scale of library finish times (see timed_finish).
REFERENCE_S_PER_ITEM = 1e-7


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    degree: int        # average degree, or edges per new vertex for the CLI graph
    k: int
    score_mode: str = "exact"
    via_cli: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("sparse-exact", n=1 << 14, degree=6, k=1 << 13),
    Workload("dense-exact", n=4096, degree=40, k=1024),
    Workload("dense-sketch", n=4096, degree=40, k=1024, score_mode="sketch"),
    Workload("cli-pipeline", n=1 << 15, degree=5, k=7 * (1 << 15) // 8, via_cli=True),
)}


# ----------------------------------------------------------------------
# input generators (the program only ever sees their output)

def constant_degree_edges(n: int, avg_degree: int, rng: random.Random):
    """Random edge list with ~avg_degree mean degree; duplicates are kept
    and self-loops skipped. Same algorithm as the test suite's generator."""
    edges = []
    for _ in range(n * avg_degree // 2):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return edges


def preferential_attachment_edges(n: int, m: int, rng: random.Random):
    """Barabasi-Albert graph: each vertex from m on links to m distinct
    earlier vertices drawn with probability proportional to degree, which
    gives the skewed degrees of SNAP social graphs. No duplicate edges."""
    edges = []
    endpoints: list[int] = []  # each vertex repeated once per incident edge
    targets = list(range(m))
    for source in range(m, n):
        edges.extend((source, t) for t in targets)
        endpoints.extend(targets)
        endpoints.extend([source] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(endpoints[rng.randrange(len(endpoints))])
        targets = sorted(chosen)
    return edges


@dataclass
class Inputs:
    edges: list = None              # library workloads
    edge_path: Path | None = None   # CLI workload
    vertex_count: int = 0
    edge_count: int = 0


def prepare(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's input from the seed; untimed set-up."""
    rng = random.Random(seed)
    if not w.via_cli:
        return Inputs(edges=constant_degree_edges(w.n, w.degree, rng))
    edges = preferential_attachment_edges(w.n, w.degree, rng)
    # SNAP-style sparse vertex labels exercise the CLI's id remapping.
    labels = rng.sample(range(10 * w.n), w.n)
    path = workdir / "graph.txt"
    with open(path, "w") as out:
        out.write(f"# Undirected graph: preferential attachment, n={w.n}, "
                  f"m={w.degree}, seed={seed}\n# FromNodeId\tToNodeId\n")
        out.writelines(f"{labels[u]}\t{labels[v]}\n" for u, v in edges)
    return Inputs(edge_path=path, vertex_count=w.n, edge_count=len(edges))


# ----------------------------------------------------------------------
# jobs

Interval = tuple[float, float]  # time.perf_counter() readings


@dataclass
class JobResult:
    setup: Interval
    loop: Interval
    finish: Interval           # the CLI job's finish
    merges: int
    re_l1_normalized: float
    digest: str
    # Library jobs: each timed re_closed call, and its time over that of the
    # reference passes around it (see timed_finish).
    finish_calls: list[float] = field(default_factory=list)
    finish_ratios: list[float] = field(default_factory=list)
    reference_s: float = 0.0   # the reference pass's nominal time
    summary_bytes: int = 0
    errors: list[str] = field(default_factory=list)

    def walls(self) -> tuple[float, float, float]:
        """Setup, loop and one finish in unscaled wall seconds."""
        (s0, s1), (l0, l1), (f0, f1) = self.setup, self.loop, self.finish
        if self.finish_calls:
            return s1 - s0, l1 - l0, math.fsum(self.finish_calls) / len(self.finish_calls)
        return s1 - s0, l1 - l0, f1 - f0

    @property
    def wall_s(self) -> float:
        return sum(self.walls())

    def scaled_finish(self, ratios: list[float]) -> float:
        """A library job's finish in scaled seconds: the median of ratios
        times the reference pass's nominal time."""
        return statistics.median(ratios) * self.reference_s

    def scaled(self, clock) -> tuple[float, float, float]:
        """Setup, loop and one finish in scaled seconds."""
        finish = (self.scaled_finish(self.finish_ratios) if self.finish_ratios
                  else clock.scaled(*self.finish))
        return clock.scaled(*self.setup), clock.scaled(*self.loop), finish


class LoopMarks:
    """Clock readings at entry to and exit from ``Summarizer.run``, for the
    merge loop inside the CLI, which the benchmark does not drive."""

    def __init__(self):
        self.start = self.end = None

    def install(self, patches):
        def mark(run):
            def marked(loop):
                self.start = time.perf_counter()
                try:
                    return run(loop)
                finally:
                    self.end = time.perf_counter()
            return marked
        patches.replace(summarizer.Summarizer, "run", mark)


def check_summary(g, k: int, errors: list[str]) -> None:
    try:
        g.validate()
    except AssertionError as err:
        errors.append(f"validate failed: {err}")
    if g.alive_count != k:
        errors.append(f"alive_count {g.alive_count} != k {k}")


def graph_digest(g) -> str:
    """Hash of the alive supernodes and superedges, for determinism checks."""
    h = hashlib.sha256()
    for i in sorted(g.alive_ids()):
        node = g.nodes[i]
        h.update(f"N{i},{node.size_n},{node.internal_e};".encode())
        for x in sorted(g.adj[i]):
            if x > i:
                h.update(f"E{x},{g.adj[i][x].cross_e};".encode())
    return h.hexdigest()


def _library_setup(w: Workload, inputs: Inputs, seed: int):
    g = summary_graph.SummaryGraph.from_edge_list(inputs.edges)
    loop = summarizer.Summarizer(g, summarizer.SummarizerConfig(
        target_k=w.k, score_mode=w.score_mode, sketch_width=SKETCH_WIDTH,
        sketch_depth=SKETCH_DEPTH, seed=seed))
    return g, loop


def library_setup(w: Workload, inputs: Inputs, seed: int) -> Interval:
    """Time one more set-up (graph build and Summarizer construction)."""
    gc.collect()
    t0 = time.perf_counter()
    _library_setup(w, inputs, seed)
    return t0, time.perf_counter()


class _Node:
    __slots__ = ("alive", "size_n", "internal_e")

    def __init__(self, node):
        self.alive, self.size_n, self.internal_e = node.alive, node.size_n, node.internal_e


class _Edge:
    __slots__ = ("cross_e",)

    def __init__(self, edge):
        self.cross_e = edge.cross_e


class ReferencePass:
    """The benchmark's own copy of the summary's statistics and of the
    re_closed formula over them: a pass that visits the same number of
    nodes and adjacency entries as re_closed, in code no change to the
    package can speed up."""

    def __init__(self, g):
        self.nodes = {i: _Node(node) for i, node in g.nodes.items()}
        self.adj = {a: {x: _Edge(edge) for x, edge in entries.items()}
                    for a, entries in g.adj.items()}
        self.items = len(self.nodes) + sum(len(e) for e in self.adj.values())

    def __call__(self) -> float:
        total = 0.0
        nodes = self.nodes
        for node in nodes.values():
            if not node.alive or node.internal_e == 0:
                continue
            pairs = node.size_n * (node.size_n - 1) / 2.0
            total += 4.0 * node.internal_e - 4.0 * node.internal_e ** 2 / pairs
        for a, entries in self.adj.items():
            size_a = nodes[a].size_n
            for x, edge in entries.items():
                if x < a:
                    continue
                total += 4.0 * edge.cross_e \
                    - 4.0 * edge.cross_e ** 2 / (size_a * nodes[x].size_n)
        return total


def timed_finish(g, repeats: int):
    """Time re_closed on the final summary repeats times, each call between
    two reference passes over the same statistics. Other tenants of a
    shared machine slow this memory-bound pass more than the speed probe,
    but slow the reference pass next to it alike, so a call's time over the
    mean of its two neighbouring reference passes is steady where either
    time alone is not. Returns re_closed's value, the call times, those
    ratios and the reference pass's nominal time."""
    reference = ReferencePass(g)
    clock = time.perf_counter
    calls, refs = [], []
    t0 = clock()
    expected = reference()
    t1 = clock()
    refs.append(t1 - t0)
    for _ in range(repeats):
        t0 = clock()
        value = evaluation.re_closed(g)
        t1 = clock()
        reference()
        t2 = clock()
        calls.append(t1 - t0)
        refs.append(t2 - t1)
    ratios = [2.0 * call / (before + after)
              for call, before, after in zip(calls, refs, refs[1:])]
    if abs(value - expected) > LEDGER_REL_TOL * max(1.0, abs(expected)):
        raise AssertionError(f"re_closed {value!r} != reference pass {expected!r}")
    return value, calls, ratios, reference.items * REFERENCE_S_PER_ITEM


def library_job(w: Workload, inputs: Inputs, seed: int,
                finish_repeats: int = 1) -> JobResult:
    """One library job. re_closed on the final summary takes milliseconds,
    so it is timed finish_repeats times (see timed_finish)."""
    gc.collect()
    t0 = time.perf_counter()
    g, loop = _library_setup(w, inputs, seed)
    t1 = time.perf_counter()
    exact = w.score_mode == "exact"
    re_start = reference_re_closed(g) if exact else 0.0  # untimed ledger start
    merges = g.alive_count - w.k
    chosen = []
    t2 = time.perf_counter()
    while g.alive_count > w.k:
        loop.step()
        chosen.append(max(c.score for c in loop.last_candidates))
    t3 = time.perf_counter()
    errors = []
    try:
        re_final, calls, ratios, reference_s = timed_finish(g, finish_repeats)
    except AssertionError as err:
        errors.append(str(err))
        re_final, calls, ratios, reference_s = reference_re_closed(g), [], [], 0.0
    result = JobResult((t0, t1), (t2, t3), (t3, t3), merges=merges,
                       re_l1_normalized=re_final / g.original_vertex_count,
                       digest=graph_digest(g), finish_calls=calls,
                       finish_ratios=ratios, reference_s=reference_s, errors=errors)

    check_summary(g, w.k, result.errors)
    if len(chosen) != merges:
        result.errors.append(f"{len(chosen)} steps for {merges} merges")
    if exact:
        # Each exact-mode merge lowers RE by exactly the chosen score.
        ledger = re_start - math.fsum(chosen)
        if abs(ledger - re_final) > LEDGER_REL_TOL * max(1.0, abs(re_final)):
            result.errors.append(f"RE ledger {ledger!r} != re_closed {re_final!r}")
    return result


def _report_values(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            values[key] = value
    return values


def _run_cli(argv) -> tuple[int, str]:
    captured = io.StringIO()
    with contextlib.redirect_stderr(captured):
        code = cli.main(argv)
    return code, captured.getvalue().strip()


def cli_job(w: Workload, inputs: Inputs, seed: int, workdir: Path,
            marks: LoopMarks) -> JobResult:
    summary_path = workdir / "out.summary"
    report_path = workdir / "out.report"
    argv = ["--input", str(inputs.edge_path), "--k", str(w.k), "--seed", str(seed),
            "--retain-members", "--summary-out", str(summary_path),
            "--report", str(report_path)]
    marks.start = marks.end = None
    gc.collect()
    t0 = time.perf_counter()
    code, message = _run_cli(argv)
    summary = None
    read_error = None
    if code == 0:
        try:
            summary = cli.read_summary(str(summary_path))
        except ValueError as err:
            read_error = err
    t1 = time.perf_counter()

    if code != 0 or marks.end is None:
        return JobResult((t0, t0), (t0, t0), (t0, t0), 0, 0.0, "",
                         errors=[f"cli exited {code}: {message}"])
    payload = summary_path.read_bytes()
    result = JobResult((t0, marks.start), (marks.start, marks.end), (marks.end, t1),
                       merges=inputs.vertex_count - w.k,
                       re_l1_normalized=math.nan,
                       digest=hashlib.sha256(payload).hexdigest(),
                       summary_bytes=len(payload))
    if read_error is not None:
        result.errors.append(f"read_summary failed: {read_error}")
        return result
    check_summary(summary, w.k, result.errors)
    if (summary.original_vertex_count, summary.original_edge_count) != \
            (inputs.vertex_count, inputs.edge_count):
        result.errors.append("summary header counts disagree with the input")
    report = _report_values(report_path)
    re_report = float(report["re_l1"])
    re_read = reference_re_closed(summary)
    if abs(re_report - re_read) > LEDGER_REL_TOL * max(1.0, abs(re_read)):
        result.errors.append(f"report re_l1 {re_report!r} != re_closed of the "
                             f"read summary {re_read!r}")
    result.re_l1_normalized = float(report["re_l1_normalized"])
    return result


# ----------------------------------------------------------------------
# CLI edge cases, run untimed after each CLI job

def messy_edge_list(rng: random.Random):
    """Edge-list text with comments, blank lines, duplicate edges in both
    orientations, tabs and self-loops, plus its vertex and edge counts."""
    labels = rng.sample(range(1, 10 ** 6), 30)
    lines = ["# comments, blank lines, duplicates and self-loops", ""]
    pairs = set()
    for _ in range(90):
        u, v = rng.sample(labels, 2)
        lines.append(f"{u} {v}")
        pairs.add((min(u, v), max(u, v)))
        if rng.random() < 0.3:
            lines.append(f"{v}\t{u}")
        if rng.random() < 0.1:
            lines.append(f"{u} {u}")
        if rng.random() < 0.1:
            lines.append("# comment")
    loop_only = 10 ** 6  # a vertex that appears only in a self-loop
    lines.append(f"{loop_only} {loop_only}")
    vertices = {u for pair in pairs for u in pair} | {loop_only}
    return "\n".join(lines) + "\n", len(vertices), len(pairs)


def _cli_case(workdir: Path, name: str, text: str, k: int, seed: int,
              vertex_count: int, edge_count: int) -> str | None:
    """Run the CLI on text; None on success, else what went wrong."""
    graph = workdir / f"{name}.txt"
    out = workdir / f"{name}.summary"
    graph.write_text(text)
    code, message = _run_cli(["--input", str(graph), "--k", str(k),
                              "--seed", str(seed), "--summary-out", str(out),
                              "--report", str(workdir / f"{name}.report")])
    if code != 0:
        return f"exit {code}: {message}"
    try:
        summary = cli.read_summary(str(out))
    except ValueError as err:
        return f"read_summary failed: {err}"
    got = (summary.alive_count, summary.original_vertex_count,
           summary.original_edge_count)
    if got != (k, vertex_count, edge_count):
        return f"(k, n, m) = {got}, expected {(k, vertex_count, edge_count)}"
    return None


def messy_input_case(workdir: Path, seed: int) -> str | None:
    text, vertex_count, edge_count = messy_edge_list(random.Random(seed))
    return _cli_case(workdir, "messy", text, 5, seed, vertex_count, edge_count)


def degenerate_k1_case(workdir: Path, seed: int) -> str | None:
    """An edge plus a self-loop-only vertex, summarized to one supernode.
    A known defect: the partner redraw gives up once all sampling mass
    sits on one node, so the CLI exits 1."""
    return _cli_case(workdir, "degenerate", "0 1\n5 5\n", 1, seed, 3, 1)
