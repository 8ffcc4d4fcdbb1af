"""Command-line pipeline: parse an edge list, summarize, report.

Input is SNAP-style whitespace-separated vertex pairs with '#' comments.
Vertex ids are remapped to a dense 0..n-1 range at ingest and restored in
the output; the summary file format is a plain-text, line-oriented format
that round-trips bit-exactly (see write_summary).
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
import time
from array import array
from dataclasses import asdict
from itertools import repeat

from .evaluation import InputGraph, build_report, re_closed
from .summary_graph import UNIT_EDGE, SuperEdge, SuperNode, SummaryGraph
from .summarizer import SummarizerConfig, summarize


def _check_decimal_fields(line: str) -> None:
    """Reject a line whose integers ``int`` would read other than as
    optionally signed ASCII decimals: it also reads '1_0' as 10, and
    non-ASCII digits."""
    if not line.isascii() or "_" in line:
        raise ValueError("non-decimal integer field in " + repr(line.rstrip("\n")))


# vertex labels must fit the summary file's 64-bit member lists
_LABEL_MIN = -(1 << 63)
_LABEL_MAX = (1 << 63) - 1


def parse_edge_list(stream) -> tuple[list[tuple[int, int]], list[int]]:
    """Read "u v" lines into dense-id edges.

    Skips blank and '#'-comment lines. A label is an optionally signed
    ASCII decimal in the signed 64-bit range, checked when the label is
    first seen. Returns (edges, original_ids) where original_ids[dense_id]
    is the label that appeared in the input. Edges are returned as given
    (duplicates and self-loops included; the graph constructor drops them).
    """
    dense: dict[int, int] = {}
    original: list[int] = []
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
        pair = []
        for label in (u, v):
            idx = dense.get(label)
            if idx is None:
                if not _LABEL_MIN <= label <= _LABEL_MAX:
                    raise ValueError(f"line {lineno}: vertex id {label} outside "
                                     f"the 64-bit integer range")
                idx = len(original)
                dense[label] = idx
                original.append(label)
            pair.append(idx)
        edges.append((pair[0], pair[1]))
    if not edges:
        raise ValueError("empty graph")
    return edges, original


# ----------------------------------------------------------------------
# summary serialization

# E lines buffered between writes; bounds the writer's transient memory
_CHUNK_LINES = 8192


def write_summary(summary: SummaryGraph, path: str, id_map=None) -> None:
    """Serialize alive supernodes and superedges as "SUMMARY v1" text.

    Supernodes are renumbered 0..k-1, ordered by their smallest member
    label when membership is retained (mapped through id_map if given) and
    by internal id otherwise, so identical summaries serialize identically.
    Superedges follow as "E i j" lines with i < j, in (i, j) order. The
    membership replay and every label lookup happen before the file is
    opened, so a bad id_map leaves no file behind; the lines are then
    streamed, so the memory beyond the labels does not grow with the
    number of superedges.
    """
    nodes = summary.nodes
    adj = summary.adj
    order = list(nodes)
    retained = summary.merge_log is not None
    if retained:
        # each block's sorted labels give both its sort key and its N line
        labels = {a: [] for a in order}
        vertices, blocks = summary.membership()
        if id_map is not None:
            vertices = map(id_map.__getitem__, vertices)
        for v, block in zip(vertices, blocks):
            labels[block].append(v)
        for block_labels in labels.values():
            block_labels.sort()
        order.sort(key=lambda a: labels[a][0])
    else:
        order.sort()
    file_id = {a: pos for pos, a in enumerate(order)}
    with open(path, "w") as out:
        out.write(f"SUMMARY v1 {summary.original_vertex_count} "
                  f"{summary.original_edge_count} {len(order)}\n")
        if retained:
            out.writelines(f"N {pos} {nodes[a].size_n} {nodes[a].internal_e} "
                           f"{' '.join(map(str, labels[a]))}\n"
                           for pos, a in enumerate(order))
        else:
            out.writelines(f"N {pos} {nodes[a].size_n} {nodes[a].internal_e}\n"
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


@_collector_paused
def read_summary(path: str) -> SummaryGraph:
    """Parse a SUMMARY v1 file, validating every structural invariant.

    An error found on one line names that line's 1-based number in the file;
    whitespace-only lines are skipped but counted. One pass over the file:
    each supernode's d_value is accumulated as its superedges are read,
    which is the order of its adjacency map. Count-1 superedges are all the
    shared ``UNIT_EDGE``, as in the identity graph. Member lists, when the
    file has them, become the graph's retained membership: the labels in
    file order, each with its supernode's id as its start block, and an
    empty merge log. Every integer field is an optionally signed ASCII
    decimal. A byte that is not UTF-8 reads as a lone surrogate, so the
    line holding it fails that check with its line number.
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

            g = SummaryGraph()
            g.original_vertex_count = n
            g.original_edge_count = m
            g._next_id = k
            nodes = g.nodes
            adj = g.adj
            member_ids = array("q")
            member_start = array("q")
            members_seen: set[int] = set()
            internal_total = 0
            cross_total = 0
            for lineno, line in numbered:
                fields = line.split()
                if not fields:
                    continue
                _check_decimal_fields(line)
                tag = fields[0]
                if tag == "E":
                    if len(fields) != 4:
                        raise ValueError("malformed superedge line: "
                                         + repr(line.rstrip("\n")))
                    i, j, cross_e = int(fields[1]), int(fields[2]), int(fields[3])
                    if i == j:
                        raise ValueError(f"self superedge at {i}")
                    node_i = nodes.get(i)
                    node_j = nodes.get(j)
                    if node_i is None or node_j is None:
                        raise ValueError(f"superedge {i}-{j} references unknown supernode")
                    adj_i = adj[i]
                    if j in adj_i:
                        raise ValueError(f"duplicate superedge {i}-{j}")
                    size_i = node_i.size_n
                    size_j = node_j.size_n
                    limit = size_i * size_j
                    if not 1 <= cross_e <= limit:
                        raise ValueError(f"superedge {i}-{j}: count {cross_e} "
                                         f"outside [1, {limit}]")
                    edge = UNIT_EDGE if cross_e == 1 else SuperEdge(cross_e)
                    adj_i[j] = edge
                    adj[j][i] = edge
                    cross_total += cross_e
                    square = cross_e ** 2
                    node_i.d_value += square / size_j
                    node_j.d_value += square / size_i
                elif tag == "N":
                    if len(fields) < 4:
                        raise ValueError("malformed supernode line: "
                                         + repr(line.rstrip("\n")))
                    node_id, size_n, internal_e = (int(fields[1]), int(fields[2]),
                                                   int(fields[3]))
                    if node_id in nodes:
                        raise ValueError(f"duplicate supernode id {node_id}")
                    if not 0 <= node_id < k:
                        raise ValueError(f"supernode id {node_id} out of range")
                    if size_n < 1:
                        raise ValueError(f"supernode {node_id} has size {size_n}")
                    pairs = size_n * (size_n - 1) // 2
                    if not 0 <= internal_e <= pairs:
                        raise ValueError(f"supernode {node_id}: internal edge count "
                                         f"{internal_e} exceeds {pairs}")
                    if len(fields) > 4:
                        # a label repeated within the line counts once
                        members = dict.fromkeys(map(int, fields[4:]))
                        if len(members) != size_n:
                            raise ValueError(f"supernode {node_id}: {len(members)} "
                                             f"members listed but size is {size_n}")
                        if not members_seen.isdisjoint(members):
                            overlap = members_seen.intersection(members)
                            raise ValueError(f"vertex {min(overlap)} in two supernodes")
                        members_seen.update(members)
                        try:
                            member_ids.extend(members)
                        except OverflowError:
                            raise ValueError("member label outside the 64-bit "
                                             "integer range") from None
                        member_start.extend(repeat(node_id, size_n))
                    nodes[node_id] = SuperNode(size_n, internal_e)
                    adj[node_id] = {}
                    internal_total += internal_e
                else:
                    raise ValueError("unrecognized line: " + repr(line.rstrip("\n")))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    if len(nodes) != k:
        raise ValueError(f"header says {k} supernodes, file has {len(nodes)}")
    if sum(node.size_n for node in nodes.values()) != n:
        raise ValueError("supernode sizes do not sum to the vertex count")
    if members_seen:
        if len(members_seen) != n:
            raise ValueError("member lists do not cover the vertex set")
        g.member_ids = member_ids
        g.member_start = member_start
        g.merge_log = array("q")
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
                        help="keep vertex membership; enables query error reporting")
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
            edges, original_ids = parse_edge_list(stream)
        graph = SummaryGraph.from_edge_list(edges,
                                            retain_members=args.retain_members)
        del edges  # nothing reads the parsed list once the graph is built
        cfg = SummarizerConfig(
            target_k=args.k, sample_rule=args.sample, score_mode=args.score,
            sketch_width=args.width, sketch_depth=args.depth, seed=args.seed)
        original = InputGraph(graph) if args.retain_members else None
        started = time.perf_counter()
        summary = summarize(graph, cfg)
        elapsed = time.perf_counter() - started
        if args.summary_out:
            write_summary(summary, args.summary_out, id_map=original_ids)
        del original_ids  # nothing reads the labels after the write
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
