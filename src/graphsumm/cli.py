"""Command-line pipeline: parse an edge list, summarize, report.

Input is SNAP-style whitespace-separated vertex pairs with '#' comments.
Vertex ids are remapped to a dense 0..n-1 range at ingest and restored in
the output; the summary file format is a plain-text, line-oriented format
that round-trips bit-exactly (see write_summary).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from .evaluation import build_report, re_closed
from .summary_graph import SuperEdge, SuperNode, SummaryGraph
from .summarizer import SummarizerConfig, summarize


@dataclass
class RunManifest:
    """Everything needed to reproduce a run; echoed into every report."""
    input_path: str
    k: int
    sample_rule: str
    score_mode: str
    width: int
    depth: int
    seed: int
    retain_members: bool
    oracle_limit: int
    summary_out: str | None
    report_out: str | None

    def echo_lines(self) -> list[str]:
        return [
            f"manifest_input={self.input_path}",
            f"manifest_k={self.k}",
            f"manifest_sample={self.sample_rule}",
            f"manifest_score={self.score_mode}",
            f"manifest_width={self.width}",
            f"manifest_depth={self.depth}",
            f"manifest_seed={self.seed}",
            f"manifest_retain_members={'true' if self.retain_members else 'false'}",
            f"manifest_oracle_limit={self.oracle_limit}",
            f"manifest_summary_out={self.summary_out or ''}",
            f"manifest_report={self.report_out or ''}",
        ]


def parse_edge_list(stream) -> tuple[list[tuple[int, int]], list[int]]:
    """Read "u v" lines into dense-id edges.

    Skips blank and '#'-comment lines. Returns (edges, original_ids) where
    original_ids[dense_id] is the label that appeared in the input. Edges
    are returned as given (duplicates and self-loops included; the graph
    constructor drops them).
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
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id in {text!r}") from None
        pair = []
        for label in (u, v):
            idx = dense.get(label)
            if idx is None:
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

def write_summary(summary: SummaryGraph, path: str, id_map=None) -> None:
    """Serialize alive supernodes and superedges as "SUMMARY v1" text.

    Supernodes are renumbered 0..k-1, ordered by their smallest member
    label when membership is retained (mapped through id_map if given) and
    by internal id otherwise, so identical summaries serialize identically.
    """
    blocks = [node for node in summary.nodes.values() if node.alive]
    retained = blocks and blocks[0].members is not None

    def member_labels(node):
        labels = node.members if id_map is None else (id_map[m] for m in node.members)
        return sorted(labels)

    if retained:
        blocks.sort(key=lambda node: member_labels(node)[0])
    else:
        blocks.sort(key=lambda node: node.id)
    file_id = {node.id: pos for pos, node in enumerate(blocks)}
    lines = [f"SUMMARY v1 {summary.original_vertex_count} "
             f"{summary.original_edge_count} {len(blocks)}"]
    for pos, node in enumerate(blocks):
        line = f"N {pos} {node.size_n} {node.internal_e}"
        if retained:
            line += " " + " ".join(str(m) for m in member_labels(node))
        lines.append(line)
    superedges = []
    for node in blocks:
        for x, edge in summary.adj[node.id].items():
            i, j = file_id[node.id], file_id[x]
            if i < j:
                superedges.append((i, j, edge.cross_e))
    superedges.sort()
    lines.extend(f"E {i} {j} {e}" for i, j, e in superedges)
    with open(path, "w") as out:
        out.write("\n".join(lines) + "\n")


def read_summary(path: str) -> SummaryGraph:
    """Parse a SUMMARY v1 file, validating every structural invariant.

    An error found on one line names that line's 1-based number in the file.
    """
    with open(path) as stream:
        lines = [(lineno, line.rstrip("\n"))
                 for lineno, line in enumerate(stream, 1) if line.strip()]
    if not lines or not lines[0][1].startswith("SUMMARY v1 "):
        raise ValueError("not a SUMMARY v1 file")
    lineno, line = lines[0]
    try:
        header = line.split()
        if len(header) != 5:
            raise ValueError("malformed header")
        n, m, k = (int(tok) for tok in header[2:])
        if k < 1 or n < k or m < 0:
            raise ValueError(f"inconsistent header counts n={n} m={m} k={k}")

        g = SummaryGraph()
        g.original_vertex_count = n
        g.original_edge_count = m
        g.alive_count = k
        g._next_id = k
        members_seen: set[int] = set()
        internal_total = 0
        cross_total = 0
        for lineno, line in lines[1:]:
            fields = line.split()
            if fields[0] == "N":
                if len(fields) < 4:
                    raise ValueError(f"malformed supernode line: {line!r}")
                node_id, size_n, internal_e = (int(fields[1]), int(fields[2]),
                                               int(fields[3]))
                if node_id in g.nodes:
                    raise ValueError(f"duplicate supernode id {node_id}")
                if not 0 <= node_id < k:
                    raise ValueError(f"supernode id {node_id} out of range")
                if size_n < 1:
                    raise ValueError(f"supernode {node_id} has size {size_n}")
                pairs = size_n * (size_n - 1) // 2
                if not 0 <= internal_e <= pairs:
                    raise ValueError(f"supernode {node_id}: internal edge count "
                                     f"{internal_e} exceeds {pairs}")
                members = None
                if len(fields) > 4:
                    members = set(int(tok) for tok in fields[4:])
                    if len(members) != size_n:
                        raise ValueError(f"supernode {node_id}: {len(members)} members "
                                         f"listed but size is {size_n}")
                    overlap = members & members_seen
                    if overlap:
                        raise ValueError(f"vertex {min(overlap)} in two supernodes")
                    members_seen |= members
                g.nodes[node_id] = SuperNode(node_id, size_n, internal_e, 0.0, members)
                g.adj[node_id] = {}
                internal_total += internal_e
            elif fields[0] == "E":
                if len(fields) != 4:
                    raise ValueError(f"malformed superedge line: {line!r}")
                i, j, cross_e = int(fields[1]), int(fields[2]), int(fields[3])
                if i == j:
                    raise ValueError(f"self superedge at {i}")
                if i not in g.nodes or j not in g.nodes:
                    raise ValueError(f"superedge {i}-{j} references unknown supernode")
                if j in g.adj[i]:
                    raise ValueError(f"duplicate superedge {i}-{j}")
                limit = g.nodes[i].size_n * g.nodes[j].size_n
                if not 1 <= cross_e <= limit:
                    raise ValueError(f"superedge {i}-{j}: count {cross_e} "
                                     f"outside [1, {limit}]")
                edge = SuperEdge(i, j, cross_e)
                g.adj[i][j] = edge
                g.adj[j][i] = edge
                cross_total += cross_e
            else:
                raise ValueError(f"unrecognized line: {line!r}")
    except ValueError as err:
        raise ValueError(f"line {lineno}: {err}") from None
    if len(g.nodes) != k:
        raise ValueError(f"header says {k} supernodes, file has {len(g.nodes)}")
    if sum(node.size_n for node in g.nodes.values()) != n:
        raise ValueError("supernode sizes do not sum to the vertex count")
    if members_seen and len(members_seen) != n:
        raise ValueError("member lists do not cover the vertex set")
    if internal_total + cross_total != m:
        raise ValueError(f"edge conservation violated: {internal_total} internal "
                         f"+ {cross_total} cross != {m}")
    for node_id in g.nodes:
        g.nodes[node_id].d_value = g.recomputed_d_value(node_id)
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
    parser.add_argument("--report", default=None, help="report path (default stdout)")
    parser.add_argument("--summary-out", default=None, help="summary file path")
    parser.add_argument("--oracle-limit", type=int, default=1024,
                        help="max |V| for the brute-force RE cross-check")
    return parser


def _format_report(manifest: RunManifest, summary: SummaryGraph,
                   report, elapsed: float) -> str:
    rows = [
        ("input", manifest.input_path),
        ("vertices", summary.original_vertex_count),
        ("edges", summary.original_edge_count),
        ("supernodes", summary.alive_count),
        ("score mode", manifest.score_mode),
        ("sample rule", manifest.sample_rule),
        ("seed", manifest.seed),
    ]
    width = max(len(name) for name, _ in rows)
    lines = ["graph summary report", "====================="]
    lines += [f"{name.ljust(width)}  {value}" for name, value in rows]
    lines.append("")
    if report is not None:
        values = [
            ("re_l1", report.re_l1),
            ("re_l1_normalized", report.re_l1_normalized),
            ("re_l2_squared", report.re_l2_squared),
            ("degree_err_avg", report.degree_err_avg),
            ("degree_err_std", report.degree_err_std),
            ("centrality_err_avg", report.centrality_err_avg),
            ("centrality_err_std", report.centrality_err_std),
            ("triangle_relative_err", report.triangle_relative_err),
        ]
    else:
        re1 = re_closed(summary)
        values = [
            ("re_l1", re1),
            ("re_l1_normalized", re1 / summary.original_vertex_count),
            ("re_l2_squared", re1 / 2.0),
        ]
    lines += [f"{key}={value!r}" for key, value in values]
    lines.append(f"elapsed_seconds={elapsed!r}")
    lines += manifest.echo_lines()
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    manifest = RunManifest(
        input_path=args.input, k=args.k, sample_rule=args.sample,
        score_mode=args.score, width=args.width, depth=args.depth,
        seed=args.seed, retain_members=args.retain_members,
        oracle_limit=args.oracle_limit, summary_out=args.summary_out,
        report_out=args.report)
    try:
        with open(args.input) as stream:
            edges, original_ids = parse_edge_list(stream)
        graph = SummaryGraph.from_edge_list(edges,
                                            retain_members=args.retain_members)
        if args.k > graph.alive_count:
            raise ValueError(f"k={args.k} exceeds vertex count {graph.alive_count}")
        cfg = SummarizerConfig(
            target_k=args.k, sample_rule=args.sample, score_mode=args.score,
            sketch_width=args.width, sketch_depth=args.depth, seed=args.seed)
        original = graph.copy() if args.retain_members else None
        started = time.perf_counter()
        summary = summarize(graph, cfg)
        elapsed = time.perf_counter() - started
        if args.summary_out:
            write_summary(summary, args.summary_out, id_map=original_ids)
        report = None
        if args.retain_members:
            report = build_report(original, summary, elapsed_seconds=elapsed,
                                  oracle_limit=args.oracle_limit)
        text = _format_report(manifest, summary, report, elapsed)
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
