"""Span tracing for the benchmark's traced runs, from outside the package.

The tracer replaces public functions and methods of graphsumm with wrappers
that time each call and attribute it to the innermost open span, so every
span gets an inclusive time and a self time (inclusive minus the time its
child spans cover). Results are aggregated in memory by (name, parent).
Each name is patched where it is looked up at call time: ``cli`` imports
``summarize``, ``build_report`` and ``re_closed`` by name, and the merge loop
resolves ``sample_pairs``, ``score_exact``, ``score_approx`` and
``node_weight`` as globals of ``graphsumm.summarizer``.

Wrapper overhead that falls outside a span's own clock readings is charged
to the parent's self time; the traced run reports the overall cost
separately as ``trace.overhead_frac``.
"""

from __future__ import annotations

import time


COUNTERS = ("sampling_tree.visits", "summary_graph.merge.touched", "summarizer.pairs")


def _add_visits(counters, args, result):
    # args[0] is the SamplingTree the wrapped method ran on
    counters["sampling_tree.visits"] += args[0].last_op_visits


def _add_touched(counters, args, result):
    counters["summary_graph.merge.touched"] += args[0].last_merge_touched


def _add_pairs(counters, args, result):
    counters["summarizer.pairs"] += len(result)


def traced_targets():
    """(owner, attribute, span name, after-call counter hook) for each
    traced entry point; several attributes may share one span name."""
    from graphsumm import cli, cm_sketch, evaluation, sampling_tree, summarizer
    from graphsumm import summary_graph

    graph = summary_graph.SummaryGraph
    tree = sampling_tree.SamplingTree
    sketch = cm_sketch.CountMinSketch
    loop = summarizer.Summarizer
    return [
        (graph, "from_edge_list", "summary_graph.from_edge_list", None),
        (graph, "copy", "summary_graph.copy", None),
        (graph, "merge", "summary_graph.merge", _add_touched),
        (tree, "build", "sampling_tree.build", None),
        (tree, "get_leaf", "sampling_tree.get_leaf", _add_visits),
        (tree, "update_weight", "sampling_tree.patch", _add_visits),
        (tree, "insert", "sampling_tree.patch", _add_visits),
        (tree, "delete", "sampling_tree.patch", _add_visits),
        (sketch, "update", "cm_sketch.update", None),
        (sketch, "inner_product_estimate", "cm_sketch.inner_product_estimate", None),
        (sketch, "combined", "cm_sketch.combined", None),
        (summarizer, "node_weight", "summarizer.node_weight", None),
        (summarizer, "sample_pairs", "summarizer.sample_pairs", _add_pairs),
        (summarizer, "score_exact", "summarizer.score_exact", None),
        (summarizer, "score_approx", "summarizer.score_approx", None),
        (summarizer, "build_sketches", "summarizer.build_sketches", None),
        (loop, "__init__", "summarizer.init", None),
        (loop, "step", "summarizer.step", None),
        (loop, "run", "summarizer.run", None),
        (cli, "summarize", "summarizer.summarize", None),
        (cli, "build_report", "evaluation.build_report", None),
        (cli, "re_closed", "evaluation.re_closed", None),
        (evaluation, "re_closed", "evaluation.re_closed", None),
        (evaluation, "triangle_estimate", "evaluation.triangle_estimate", None),
        (evaluation, "triangle_count_exact", "evaluation.triangle_count_exact", None),
        (cli, "parse_edge_list", "cli.parse_edge_list", None),
        (cli, "write_summary", "cli.write_summary", None),
        (cli, "read_summary", "cli.read_summary", None),
        (cli, "main", "cli.main", None),
    ]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make_wrapper):
        """Swap owner.attr for make_wrapper(original function); keeps
        classmethods as classmethods."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def undo(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class Tracer:
    """In-memory span aggregation by (name, parent): calls, inclusive ns
    and self ns; counters hold work counts read after wrapped calls."""

    def __init__(self):
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._rows: dict[str, dict[str, list[int]]] = {}  # name -> parent -> row
        self._stack: list[list] = [[None, 0]]  # open spans as [name, child ns]

    def reset(self):
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        for rows in self._rows.values():
            rows.clear()
        self._stack[0][1] = 0

    @property
    def stats(self) -> dict[tuple[str, str | None], list[int]]:
        """[calls, inclusive ns, self ns] per (name, parent name)."""
        return {(name, parent): row for name, rows in self._rows.items()
                for parent, row in rows.items()}

    def wrap(self, name, fn, after=None):
        stack = self._stack
        clock = time.perf_counter_ns
        rows = self._rows.setdefault(name, {})
        counters = self.counters

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                row = rows.get(parent[0])
                if row is None:
                    row = rows[parent[0]] = [0, 0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if after is not None:
                after(counters, args, result)
            return result

        return traced

    def install(self, patches: Patches):
        for owner, attr, name, after in traced_targets():
            patches.replace(owner, attr,
                            lambda fn, name=name, after=after: self.wrap(name, fn, after))

    # ------------------------------------------------------------------
    # read-out

    def calls(self, name, parent=...):
        return sum(row[0] for (n, p), row in self.stats.items()
                   if n == name and (parent is ... or p == parent))

    def inclusive_s(self, name):
        return sum(row[1] for (n, _), row in self.stats.items() if n == name) / 1e9

    def self_s(self, name):
        return sum(row[2] for (n, _), row in self.stats.items() if n == name) / 1e9

    def total_self_s(self):
        return sum(row[2] for row in self.stats.values()) / 1e9

    def breakdown(self):
        """Lines "name <- parent: calls, self s", largest self time first."""
        rows = sorted(self.stats.items(), key=lambda item: -item[1][2])
        return [f"{name} <- {parent or '(benchmark)'}: {calls} calls, "
                f"self {self_ns / 1e9:.4f} s, inclusive {total_ns / 1e9:.4f} s"
                for (name, parent), (calls, total_ns, self_ns) in rows]
