"""Command-line pipeline: parse an edge list, summarize, report.

Input is SNAP-style whitespace-separated vertex pairs with '#' comments.
The parser hands the input's own labels to ``SummaryGraph.from_edge_list``,
which alone maps them to ids, so the summary, its sketches and the report
are the ones a library caller gets from the same pairs. The summary file
format is a plain-text, line-oriented format that round-trips bit-exactly
(see write_summary).
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
import time
from array import array
from dataclasses import asdict
from itertools import repeat

import numpy as np

from .evaluation import InputGraph, build_report, re_closed
from .summary_graph import UNIT_EDGE, SuperEdge, SummaryGraph
from .summarizer import SummarizerConfig, summarize


def _check_decimal_fields(line: str) -> None:
    """Reject a line whose integers ``int`` would read other than as
    optionally signed ASCII decimals: it also reads '1_0' as 10, and
    non-ASCII digits."""
    if not line.isascii() or "_" in line:
        raise ValueError("non-decimal integer field in " + repr(line.rstrip("\n")))


# the signed 64-bit range: of vertex labels, which must fit the summary
# file's member lists, and of every integer the file's E lines hold
_LABEL_MIN = -(1 << 63)
_LABEL_MAX = (1 << 63) - 1


def parse_edge_list(stream) -> list[tuple[int, int]]:
    """Read "u v" lines into the input's label pairs.

    Skips blank and '#'-comment lines. A label is an optionally signed
    ASCII decimal in the signed 64-bit range. Edges are returned as given
    (duplicates and self-loops included; the graph constructor drops them
    and maps the labels to ids).
    """
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(stream, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {text!r}")
        try:
            # _check_decimal_fields, inlined: this runs once per input edge
            if not text.isascii() or "_" in text:
                raise ValueError
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id in {text!r}") from None
        if not (_LABEL_MIN <= u <= _LABEL_MAX and _LABEL_MIN <= v <= _LABEL_MAX):
            label = v if _LABEL_MIN <= u <= _LABEL_MAX else u
            raise ValueError(f"line {lineno}: vertex id {label} outside "
                             f"the 64-bit integer range")
        edges.append((u, v))
    if not edges:
        raise ValueError("empty graph")
    return edges


# ----------------------------------------------------------------------
# summary serialization

# E lines buffered between writes, and checked together when read; bounds
# the writer's and the reader's transient memory
_CHUNK_LINES = 8192


def write_summary(summary: SummaryGraph, path: str,
                  members: bool = True) -> None:
    """Serialize alive supernodes and superedges as "SUMMARY v1" text.

    With ``members`` each "N" line lists its supernode's member labels,
    as ``membership`` gives them, and supernodes are renumbered 0..k-1 by
    their smallest label; without, the lines carry no labels and the
    order is by the label of each supernode's id. Either way identical
    summaries serialize identically. Superedges follow as "E i j" lines
    with i < j, in (i, j) order. The membership replay happens before the
    file is opened, so ``members`` on a summary whose membership is
    unknown (ValueError) leaves no file behind; the lines are then
    streamed, so the memory beyond the labels does not grow with the
    number of superedges.
    """
    size_n = summary.size_n
    internal_e = summary.internal_e
    adj = summary.adj
    order = list(adj)
    if members:
        # each block's sorted labels give both its sort key and its N line
        labels = {a: [] for a in order}
        for v, block in zip(*summary.membership()):
            labels[block].append(v)
        for block_labels in labels.values():
            block_labels.sort()
        order.sort(key=lambda a: labels[a][0])
    else:
        order.sort(key=summary.labels.__getitem__)
    file_id = {a: pos for pos, a in enumerate(order)}
    with open(path, "w") as out:
        out.write(f"SUMMARY v1 {summary.original_vertex_count} "
                  f"{summary.original_edge_count} {len(order)}\n")
        if members:
            out.writelines(f"N {pos} {size_n[a]} {internal_e[a]} "
                           f"{' '.join(map(str, labels[a]))}\n"
                           for pos, a in enumerate(order))
        else:
            out.writelines(f"N {pos} {size_n[a]} {internal_e[a]}\n"
                           for pos, a in enumerate(order))
        chunk = []
        for i, a in enumerate(order):
            later = []
            for x, edge in adj[a].items():
                j = file_id[x]
                if j > i:
                    later.append((j, edge.cross_e))
            later.sort()
            chunk += [f"E {i} {j} {e}\n" for j, e in later]
            if len(chunk) >= _CHUNK_LINES:
                out.write("".join(chunk))
                chunk.clear()
        out.write("".join(chunk))


def _collector_paused(fn):
    """Run fn with the cyclic collector paused, restoring its prior state
    on every exit path.

    The graphs, dicts and sets the package builds hold no reference cycle,
    so the collector would only rescan them over and over; reference
    counting frees them all once they are dropped.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


# counts up to this square to an exact float64 (its square is below 2^53)
_EXACT_SQUARE_MAX = 94_906_265


def _syntax_fault(line: str) -> str | None:
    """The message of an E line whose fields are not all integers, or
    None."""
    try:
        _check_decimal_fields(line)
        for field in line.split()[1:]:
            int(field)
    except ValueError as err:
        return str(err)
    return None


class _SuperedgeBatches:
    """Adds a summary file's superedges to g a batch at a time: a run of
    contiguous E lines with four fields each is checked as arrays, and
    only a run that passes every check is added.

    A line fails on its first failing check, in the order decimal
    fields, integers, self superedge, unknown supernode, duplicate
    superedge, count in [1, size_i*size_j]; ``add`` reports the first
    faulty line of the run, the one a line-by-line reader would stop at.
    A field outside 64 bits reads as -1, which fails the id or count
    check it meets, and the message names the field's own value.
    """

    def __init__(self, g: SummaryGraph):
        self.g = g
        self.known = np.zeros(len(g.size_n), bool)  # ids whose N line was read
        self.max_key = -1  # the largest pair key added so far
        self.cross_total = 0

    def add(self, lines: list[str], fields: list[str]) -> tuple[int, str] | None:
        """Check the run ``lines`` (``fields`` holds their four fields
        each, tag first) and add its superedges; or return the offset in
        the run of its first faulty line and that line's message."""
        g = self.g
        known = self.known
        run = len(lines)
        bad = run  # the first line whose fields are not all integers
        text = "".join(lines)
        if not text.isascii() or "_" in text:
            bad = next(t for t, line in enumerate(lines)
                       if not line.isascii() or "_" in line)
        del fields[::4]  # the tags; three integer fields per line remain
        try:
            values = list(map(int, fields[:3 * bad]))
        except ValueError:
            bad = next(t for t in range(bad)
                       if _syntax_fault(lines[t]) is not None)
            values = list(map(int, fields[:3 * bad]))
        try:
            columns = np.array(values, np.int64)
        except OverflowError:
            columns = np.array([v if _LABEL_MIN <= v <= _LABEL_MAX else -1
                                for v in values], np.int64)
        i, j, count = columns.reshape(-1, 3).T
        k = len(known)
        in_range = (i >= 0) & (i < k) & (j >= 0) & (j < k)
        i_ok = np.where(in_range, i, 0)
        j_ok = np.where(in_range, j, 0)
        fault = (i == j) | ~(in_range & known[i_ok] & known[j_ok])
        # duplicates are looked for only before the first unknown id
        ok = int(np.argmax(fault)) if fault.any() else bad
        lo = np.minimum(i_ok[:ok], j_ok[:ok])
        keys = lo * np.int64(k) + (i_ok[:ok] + j_ok[:ok] - lo)
        order = np.argsort(keys, kind="stable")
        duplicate = np.zeros(ok, bool)
        duplicate[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
        # an earlier run's pair has a key no larger than max_key, so the
        # adjacency maps are asked only about those keys
        adj = g.adj
        older = np.flatnonzero(keys <= self.max_key)
        duplicate[older] |= np.fromiter(
            map(dict.__contains__, map(adj.__getitem__, i[older].tolist()),
                j[older].tolist()), bool, len(older))
        fault[:ok] |= duplicate
        size = np.asarray(g.size_n)
        size_i = size[i_ok]
        size_j = size[j_ok]
        # count <= size_i * size_j, without the product's overflow
        fault |= (count < 1) | ((count - 1) // size_i >= size_j)
        first = int(np.argmax(fault)) if fault.any() else bad
        if first < run:
            return first, self._message(lines[first], first == bad,
                                        values[3 * first:3 * first + 3],
                                        first < ok and duplicate[first])

        counts = values[2::3]
        edges = [UNIT_EDGE] * run
        for t in np.flatnonzero(count != 1).tolist():
            edges[t] = SuperEdge(counts[t])
        for a, b, edge in zip(values[0::3], values[1::3], edges):
            adj[a][b] = adj[b][a] = edge
        # each line adds c^2/size_j to d_value[i], then c^2/size_i to
        # d_value[j]; np.add.at adds in that order, one term at a time
        square = count.astype(np.float64) ** 2
        terms = np.column_stack((square / size_j, square / size_i))
        for t in np.flatnonzero(count > _EXACT_SQUARE_MAX).tolist():
            square_t = counts[t] ** 2
            terms[t] = (square_t / size_j[t].item(), square_t / size_i[t].item())
        np.add.at(np.asarray(g.d_value), np.column_stack((i, j)).ravel(),
                  terms.ravel())
        if run:
            self.max_key = max(self.max_key, int(keys.max()))
        self.cross_total += sum(counts)
        return None

    def _message(self, line: str, syntax: bool, values: list[int],
                 duplicate: bool) -> str:
        """The message of a faulty line, from its own values."""
        if syntax:
            return _syntax_fault(line)
        a, b, cross_e = values
        if a == b:
            return f"self superedge at {a}"
        adj = self.g.adj
        if a not in adj or b not in adj:
            return f"superedge {a}-{b} references unknown supernode"
        if duplicate:
            return f"duplicate superedge {a}-{b}"
        limit = min(self.g.size_n[a] * self.g.size_n[b], _LABEL_MAX)
        return f"superedge {a}-{b}: count {cross_e} outside [1, {limit}]"


@_collector_paused
def read_summary(path: str) -> SummaryGraph:
    """Parse a SUMMARY v1 file, validating every structural invariant.

    An error found on one line names that line's 1-based number in the file;
    whitespace-only lines are skipped but counted. One pass over the file:
    N lines are read one at a time, and runs of E lines in batches of up
    to ``_CHUNK_LINES`` (see ``_SuperedgeBatches``), so the first faulty
    line still stops the read, with the message it would get alone, and
    the memory beyond the graph is bounded by the batch. Each supernode's
    adjacency map and d_value take its superedges in file order. Count-1
    superedges are all the shared ``UNIT_EDGE``, as in the identity graph.
    Member lists, when the file has them, become the graph's membership:
    the labels in file order, each with its supernode's id as its start
    block. Without them membership is unknown (``member_ids`` is None).
    Either way the merge log starts empty. Every integer field is an
    optionally signed ASCII decimal, and every count a 64-bit integer, as
    ``size_n`` and ``internal_e`` are. A byte that is not UTF-8 reads as
    a lone surrogate, so the line holding it fails that check with its
    line number.
    """
    with open(path, errors="surrogateescape") as stream:
        numbered = enumerate(stream, 1)
        for lineno, line in numbered:
            if not line.isspace():
                break
        else:
            line = ""
        if not line.startswith("SUMMARY v1 "):
            raise ValueError("not a SUMMARY v1 file")
        try:
            header = line.split()
            if len(header) != 5:
                raise ValueError("malformed header")
            _check_decimal_fields(line)
            n, m, k = (int(tok) for tok in header[2:])
            if k < 1 or n < k or m < 0:
                raise ValueError(f"inconsistent header counts n={n} m={m} k={k}")
            # every "N" line takes 8 bytes at least; the check bounds the
            # statistics arrays allocated for k supernodes by the file size
            if k > os.fstat(stream.fileno()).st_size // 8:
                raise ValueError(f"header says {k} supernodes, more than "
                                 f"the file can hold")

            g = SummaryGraph(k)
            g.original_vertex_count = n
            g.original_edge_count = m
            adj = g.adj
            size_n = g.size_n
            member_ids = array("q")
            member_start = array("q")
            members_seen: set[int] = set()
            superedges = _SuperedgeBatches(g)
            known = superedges.known
            internal_total = 0
            batch = _CHUNK_LINES
            run: list[str] = []  # contiguous E lines not yet checked
            fields_run: list[str] = []  # their fields, four per line

            def add_run(last: int) -> None:
                """Check and add the E lines of run, which ends at line
                number last; on a fault, name its line."""
                nonlocal lineno
                fault = superedges.add(run, fields_run)
                if fault is not None:
                    offset, message = fault
                    lineno = last - len(run) + 1 + offset
                    raise ValueError(message)
                run.clear()
                fields_run.clear()

            for lineno, line in numbered:
                fields = line.split()
                if len(fields) == 4 and fields[0] == "E":
                    run.append(line)
                    fields_run += fields
                    if len(run) == batch:
                        add_run(lineno)
                    continue
                if run:
                    add_run(lineno - 1)
                if not fields:
                    continue
                _check_decimal_fields(line)
                tag = fields[0]
                if tag == "E":
                    raise ValueError("malformed superedge line: "
                                     + repr(line.rstrip("\n")))
                elif tag == "N":
                    if len(fields) < 4:
                        raise ValueError("malformed supernode line: "
                                         + repr(line.rstrip("\n")))
                    node_id, size, internal = (int(fields[1]), int(fields[2]),
                                               int(fields[3]))
                    if node_id in adj:
                        raise ValueError(f"duplicate supernode id {node_id}")
                    if not 0 <= node_id < k:
                        raise ValueError(f"supernode id {node_id} out of range")
                    if size < 1:
                        raise ValueError(f"supernode {node_id} has size {size}")
                    pairs = size * (size - 1) // 2
                    if not 0 <= internal <= pairs:
                        raise ValueError(f"supernode {node_id}: internal edge count "
                                         f"{internal} exceeds {pairs}")
                    if len(fields) > 4:
                        # a label repeated within the line counts once
                        members = dict.fromkeys(map(int, fields[4:]))
                        if len(members) != size:
                            raise ValueError(f"supernode {node_id}: {len(members)} "
                                             f"members listed but size is {size}")
                        if not members_seen.isdisjoint(members):
                            overlap = members_seen.intersection(members)
                            raise ValueError(f"vertex {min(overlap)} in two supernodes")
                        members_seen.update(members)
                        try:
                            member_ids.extend(members)
                        except OverflowError:
                            raise ValueError("member label outside the 64-bit "
                                             "integer range") from None
                        member_start.extend(repeat(node_id, size))
                    size_n[node_id] = size
                    g.internal_e[node_id] = internal
                    adj[node_id] = {}
                    known[node_id] = True
                    internal_total += internal
                else:
                    raise ValueError("unrecognized line: " + repr(line.rstrip("\n")))
            if run:
                add_run(lineno)
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    if len(adj) != k:
        raise ValueError(f"header says {k} supernodes, file has {len(adj)}")
    if sum(g.size_n) != n:
        raise ValueError("supernode sizes do not sum to the vertex count")
    if members_seen:
        if len(members_seen) != n:
            raise ValueError("member lists do not cover the vertex set")
        g.member_ids = member_ids
        g.member_start = member_start
    cross_total = superedges.cross_total
    if internal_total + cross_total != m:
        raise ValueError(f"edge conservation violated: {internal_total} internal "
                         f"+ {cross_total} cross != {m}")
    return g


# ----------------------------------------------------------------------
# driver

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsumm",
        description="Summarize an undirected graph into k supernodes and "
                    "report reconstruction/query errors.")
    parser.add_argument("--input", required=True, help="edge list file")
    parser.add_argument("--k", type=int, required=True, help="target supernode count")
    parser.add_argument("--sample", default="logn",
                        help="sample-size rule: logn | 5logn | log2n | fixed:N")
    parser.add_argument("--score", default="exact", choices=["exact", "sketch"])
    parser.add_argument("--width", type=int, default=100, help="sketch width")
    parser.add_argument("--depth", type=int, default=2, help="sketch depth")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--retain-members", action="store_true",
                        help="write member lists; enables query error reporting")
    parser.add_argument("--oracle-limit", type=int, default=1024,
                        help="max |V| for the brute-force RE cross-check")
    parser.add_argument("--summary-out", default=None, help="summary file path")
    parser.add_argument("--report", default=None, help="report path (default stdout)")
    return parser


def _manifest_lines(args: argparse.Namespace) -> list[str]:
    """Every parsed argument, in the parser's order, as a manifest_<dest>=
    line: everything needed to reproduce the run."""
    lines = []
    for dest, value in vars(args).items():
        if value is None:
            value = ""
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"manifest_{dest}={value}")
    return lines


def _format_report(args: argparse.Namespace, summary: SummaryGraph,
                   report, elapsed: float) -> str:
    rows = [
        ("input", args.input),
        ("vertices", summary.original_vertex_count),
        ("edges", summary.original_edge_count),
        ("supernodes", summary.alive_count),
        ("score mode", args.score),
        ("sample rule", args.sample),
        ("seed", args.seed),
    ]
    width = max(len(name) for name, _ in rows)
    lines = ["graph summary report", "====================="]
    lines += [f"{name.ljust(width)}  {value}" for name, value in rows]
    lines.append("")
    if report is not None:
        values = asdict(report)
    else:
        re1 = re_closed(summary)
        values = {
            "re_l1": re1,
            "re_l1_normalized": re1 / summary.original_vertex_count,
            "re_l2_squared": re1 / 2.0,
            "elapsed_seconds": elapsed,
        }
    lines += [f"{key}={value!r}" for key, value in values.items()]
    lines += _manifest_lines(args)
    return "\n".join(lines) + "\n"


@_collector_paused
def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        # a byte that is not UTF-8 reads as a lone surrogate: a comment
        # holding one is skipped, a data line fails with its line number
        with open(args.input, errors="surrogateescape") as stream:
            edges = parse_edge_list(stream)
        graph = SummaryGraph.from_edge_list(edges)
        del edges  # nothing reads the parsed list once the graph is built
        cfg = SummarizerConfig(
            target_k=args.k, sample_rule=args.sample, score_mode=args.score,
            sketch_width=args.width, sketch_depth=args.depth, seed=args.seed)
        original = InputGraph(graph) if args.retain_members else None
        started = time.perf_counter()
        summary = summarize(graph, cfg)
        elapsed = time.perf_counter() - started
        if args.summary_out:
            write_summary(summary, args.summary_out,
                          members=args.retain_members)
        report = None
        if args.retain_members:
            report = build_report(original, summary, elapsed_seconds=elapsed,
                                  oracle_limit=args.oracle_limit)
        text = _format_report(args, summary, report, elapsed)
        if args.report:
            with open(args.report, "w") as out:
                out.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, ValueError) as err:
        print(f"graphsumm: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
