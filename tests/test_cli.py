import gc
import hashlib
import io
import random
import re
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (constant_degree_edges, gnp_edges, member_sets,
                      merge_partition)
from graphsumm import (SummarizerConfig, SummaryGraph, build_report, cli,
                       re_closed, summarize)
from graphsumm.cli import (_CHUNK_LINES, _build_parser, _format_report, main,
                           parse_edge_list, read_summary, write_summary)
from graphsumm.summary_graph import UNIT_EDGE

P3_TEXT = "1 2\n2 3\n"


def parse_text(text):
    return parse_edge_list(io.StringIO(text))


def report_values(text):
    values = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("manifest_"):
            key, _, value = line.partition("=")
            if " " not in key:
                values[key] = value
    return values


class TestParseEdgeList:
    def test_comments_and_label_pairs(self):
        # the parser keeps the input's labels; only the graph maps them
        edges = parse_text("# comment\n10 2\n2 30\n")
        assert edges == [(10, 2), (2, 30)]
        assert list(SummaryGraph.from_edge_list(edges).labels) == [10, 2, 30]

    def test_tabs_and_duplicates_pass_through(self):
        edges = parse_text("1\t2\n1 2\n")
        assert edges == [(1, 2), (1, 2)]
        g = SummaryGraph.from_edge_list(edges)
        assert g.original_edge_count == 1

    def test_non_integer_token(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_text("a b\n")

    @pytest.mark.parametrize("label", ["1_0", "\u0663", "\uff11", "0x1"])
    def test_label_not_an_ascii_decimal(self, label):
        # int() reads the first three as 10, 3 and 1
        with pytest.raises(ValueError, match="^line 2: non-integer vertex id"):
            parse_text(f"1 2\n{label} 2\n")

    def test_signed_labels(self):
        edges = parse_text("-1 +2\n")
        assert edges == [(-1, 2)]

    @pytest.mark.parametrize("label", [str(2 ** 63), str(-2 ** 63 - 1)])
    def test_label_outside_64_bits(self, label):
        # a summary file's member lists hold 64-bit labels only
        with pytest.raises(ValueError, match=f"^line 2: vertex id {label} "
                                             f"outside the 64-bit integer range$"):
            parse_text(f"1 2\n2 {label}\n1 3\n")

    def test_wrong_field_count(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_text("1 2\n3 4 5\n")

    def test_empty_after_filtering(self):
        with pytest.raises(ValueError, match="empty graph"):
            parse_text("# nothing\n\n")


class TestSummaryRoundTrip:
    def test_exact_file_format(self, tmp_path):
        g = SummaryGraph.from_edge_list([(1, 2), (2, 3)])
        g.merge(0, 2)  # labels 1 and 3
        path = tmp_path / "p3.summary"
        write_summary(g, path)
        assert path.read_text() == ("SUMMARY v1 3 2 2\n"
                                    "N 0 2 0 1 3\n"
                                    "N 1 1 0 2\n"
                                    "E 0 1 2\n")

    def test_round_trip_preserves_error(self, tmp_path):
        g = SummaryGraph.from_edge_list([(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)])
        g.merge(1, 3)
        path = tmp_path / "g.summary"
        write_summary(g, path)
        back = read_summary(path)
        assert re_closed(back) == pytest.approx(re_closed(g), rel=1e-12)
        assert back.original_edge_count == g.original_edge_count
        back.validate()

    def test_round_trip_without_members(self, tmp_path):
        g = SummaryGraph.from_edge_list([(1, 2), (2, 3)])
        g.merge(1, 2)
        path = tmp_path / "nm.summary"
        write_summary(g, path, members=False)
        back = read_summary(path)
        assert back.member_ids is None
        assert re_closed(back) == pytest.approx(re_closed(g))

    def test_round_trip_d_values_exact(self, tmp_path):
        rng = random.Random(31)
        g = SummaryGraph.from_edge_list(gnp_edges(80, 0.1, rng))
        for _ in range(50):
            g.merge(*rng.sample(list(g.alive_ids()), 2))
        path = tmp_path / "merged.summary"
        write_summary(g, path)
        back = read_summary(path)
        for a, node in back.nodes.items():
            assert node.d_value == back.recomputed_d_value(a)

    def test_read_back_shares_one_unit_edge(self, tmp_path):
        rng = random.Random(12)
        g = SummaryGraph.from_edge_list(gnp_edges(60, 0.1, rng))
        path = tmp_path / "identity.summary"
        write_summary(g, path)
        back = read_summary(path)
        edges = [e for row in back.adj.values() for e in row.values()]
        assert len({id(e) for e in edges}) == 1
        assert edges[0].cross_e == 1
        for _ in range(40):
            g.merge(*rng.sample(list(g.alive_ids()), 2))
        write_summary(g, path)
        back = read_summary(path)
        unit = {id(e) for row in back.adj.values() for e in row.values()
                if e.cross_e == 1}
        assert len(unit) == 1
        back.validate()

    def test_whitespace_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "spaced.summary"
        path.write_text("SUMMARY v1 3 2 2\n"
                        "   \n"
                        "N 0 2 0 1 3\n"
                        "\t\n"
                        "N 1 1 0 2\n"
                        "\n"
                        "E 0 1 2\n")
        back = read_summary(path)
        assert back.alive_count == 2
        path.write_text("SUMMARY v1 3 2 2\n"
                        " \t \n"
                        "\n"
                        "N 0 2 x 1 3\n")
        with pytest.raises(ValueError, match=r"^line 4: .*'x'"):
            read_summary(path)

    def test_superedge_before_its_supernodes_rejected(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 3 2 2\n"
                        "N 0 2 0 1 3\n"
                        "E 0 1 2\n"
                        "N 1 1 0 2\n")
        with pytest.raises(ValueError, match="^line 3: superedge 0-1 references "
                                             "unknown supernode$"):
            read_summary(path)

    def test_no_trailing_newline(self, tmp_path):
        path = tmp_path / "unterminated.summary"
        path.write_text("SUMMARY v1 3 2 2\n"
                        "N 0 2 0 1 3\n"
                        "N 1 1 0 2\n"
                        "E 0 1 2")
        back = read_summary(path)
        assert back.adj[0][1].cross_e == 2
        assert back.nodes[1].d_value == 4.0 / 2

    def test_read_triggers_no_collection(self, tmp_path):
        rng = random.Random(8)
        g = SummaryGraph.from_edge_list(gnp_edges(300, 0.05, rng))
        for _ in range(100):
            g.merge(*rng.sample(list(g.alive_ids()), 2))
        path = tmp_path / "gnp.summary"
        write_summary(g, path)
        collections = []

        def record(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.collect()  # start from empty generation counts
        gc.callbacks.append(record)
        try:
            back = read_summary(path)
            assert gc.isenabled()
        finally:
            gc.callbacks.remove(record)
            if not was_enabled:
                gc.disable()
        assert collections == []
        assert re_closed(back) == pytest.approx(re_closed(g), rel=1e-12)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("text, error", [("SUMMARY v1 1 0 1\nX what\n", ValueError),
                                             (None, OSError)])
    def test_failed_read_restores_collector(self, tmp_path, enabled, text, error):
        path = tmp_path / "bad.summary"
        if text is not None:
            path.write_text(text)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(error):
                read_summary(path)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_tampered_cross_count_rejected(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 3 5 2\n"
                        "N 0 2 0 1 3\n"
                        "N 1 1 0 2\n"
                        "E 0 1 5\n")  # 5 > 2*1
        with pytest.raises(ValueError, match="outside"):
            read_summary(path)

    def test_conservation_violation_rejected(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 3 4 2\n"
                        "N 0 2 0 1 3\n"
                        "N 1 1 0 2\n"
                        "E 0 1 2\n")
        with pytest.raises(ValueError, match="conservation"):
            read_summary(path)

    def test_header_count_beyond_the_file_rejected(self, tmp_path):
        # k supernode lines take 8 bytes each at least, so a header that
        # claims more than the file can hold fails before any allocation
        path = tmp_path / "huge.summary"
        path.write_text("SUMMARY v1 1000000000000 0 1000000000000\nN 0 1 0\n")
        with pytest.raises(ValueError, match="^line 1: header says 1000000000000 "
                                             "supernodes, more than the file"):
            read_summary(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 2 1 2\n"
                        "N 0 1 0 1\n"
                        "N 0 1 0 2\n"
                        "E 0 1 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_summary(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 1 0 1\nX what\n")
        with pytest.raises(ValueError, match="unrecognized"):
            read_summary(path)

    def test_non_integer_field_names_its_line(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 2 1 2\n"
                        "\n"
                        "N 0 2 x\n")
        with pytest.raises(ValueError, match=r"^line 3: .*'x'"):
            read_summary(path)

    @pytest.mark.parametrize("lines, bad", [
        (["SUMMARY v1 2 1_0 2", "N 0 1 0", "N 1 1 0"], 1),
        (["SUMMARY v1 2 1 2", "N 0 1 0", "N 1 1 0", "E 0 1 \u0661"], 4),
        (["SUMMARY v1 2 1 2", "N 0 1 0", "N 1_0 1 0"], 3),
        (["SUMMARY v1 2 1 2", "N 0 1 0 5", "N 1 1 0 1_0", "E 0 1 1"], 3),
    ])
    def test_field_not_an_ascii_decimal_names_its_line(self, tmp_path, lines, bad):
        # int() would read each of these fields as an integer
        path = tmp_path / "bad.summary"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^line {bad}: non-decimal integer"):
            read_summary(path)

    def test_duplicate_id_names_its_line(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 2 1 2\n"
                        "N 0 1 0 1\n"
                        "N 0 1 0 2\n")
        with pytest.raises(ValueError, match="^line 3: duplicate supernode id 0$"):
            read_summary(path)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40), st.randoms(use_true_random=False))
    def test_merges_after_a_round_trip(self, tmp_path_factory, n, rng):
        # the file's member lists become the start blocks of a fresh log,
        # which later merges extend like any other
        id_map = rng.sample(range(-10 ** 6, 10 ** 6), n)
        g = SummaryGraph.from_edge_list(
            (id_map[u], id_map[v]) for u, v in gnp_edges(n, 0.3, rng))
        random_merges(g, rng, rng.randrange(g.alive_count))
        path = tmp_path_factory.mktemp("round") / "g.summary"
        write_summary(g, path)
        back = read_summary(path)
        back.validate()
        sets = member_sets(back)
        assert sorted(map(sorted, sets.values())) == sorted(
            map(sorted, member_sets(g).values()))
        for _ in range(rng.randrange(back.alive_count)):
            a, b = rng.sample(list(back.alive_ids()), 2)
            z = back.merge(a, b)
            sets[z] = sets.pop(a) | sets.pop(b)
        assert member_sets(back) == sets
        back.validate()

    @pytest.mark.parametrize("members", [True, False])
    def test_read_back_merges_keep_file_ids(self, tmp_path, members):
        # a read-back summary numbers its supernodes 0..k-1, and merging it
        # further keeps its ids in that range; the result round-trips
        g = SummaryGraph.from_edge_list(gnp_edges(60, 0.15, random.Random(31)))
        summarize(g, SummarizerConfig(target_k=20, seed=3))
        first = tmp_path / "first.summary"
        write_summary(g, first, members=members)
        back = read_summary(first)
        assert set(back.alive_ids()) == set(range(20))
        summarize(back, SummarizerConfig(target_k=7, seed=4))
        assert set(back.alive_ids()) < set(range(20))
        back.validate()
        second = tmp_path / "second.summary"
        write_summary(back, second, members=members)
        again = read_summary(second)
        again.validate()
        assert re_closed(again) == pytest.approx(re_closed(back), rel=1e-12)
        third = tmp_path / "third.summary"
        write_summary(again, third, members=members)
        assert third.read_bytes() == second.read_bytes()
        if members:
            assert sorted(map(sorted, member_sets(again).values())) \
                == sorted(map(sorted, member_sets(back).values()))

    def test_read_back_membership_memory(self, tmp_path):
        # the same summary read back with and without its member lists
        n = 2 ** 13
        g = SummaryGraph.from_edge_list(
            constant_degree_edges(n, 6, random.Random(13)))
        for v in range(0, n // 4, 2):
            if v in g.adj and v + 1 in g.adj:
                g.merge(v, v + 1)
        with_members = tmp_path / "members.summary"
        without = tmp_path / "plain.summary"
        write_summary(g, with_members)
        without.write_text("".join(
            " ".join(line.split()[:4]) + "\n" if line.startswith("N ") else line
            for line in with_members.read_text().splitlines(True)))
        traced = {}
        for path in (with_members, without):
            tracemalloc.start()
            try:
                back = read_summary(path)
                traced[path] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert (back.member_ids is not None) == (path == with_members)
            del back
        assert traced[with_members] <= 1.1 * traced[without]

    @pytest.mark.parametrize("lines, error", [
        ("N 0 2 0 1 3\nN 1 1 0 3\n", "^line 3: vertex 3 in two supernodes$"),
        ("N 0 2 0 1 3 4\nN 1 1 0 2\n",
         "^line 2: supernode 0: 3 members listed but size is 2$"),
        ("N 0 2 0 1 3\nN 1 1 0\n", "^member lists do not cover the vertex set$"),
        ("N 0 2 0 1 3\nN 1 1 0 9223372036854775808\n",
         "^line 3: member label outside the 64-bit integer range$"),
    ])
    def test_member_list_errors(self, tmp_path, lines, error):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 3 2 2\n" + lines + "E 0 1 2\n")
        with pytest.raises(ValueError, match=error):
            read_summary(path)

    def test_label_repeated_within_a_line_counts_once(self, tmp_path):
        path = tmp_path / "repeat.summary"
        path.write_text("SUMMARY v1 3 2 2\n"
                        "N 0 2 0 3 -1 3\n"
                        "N 1 1 0 9223372036854775807\n"
                        "E 0 1 2\n")
        back = read_summary(path)
        assert member_sets(back) == {0: {-1, 3}, 1: {2 ** 63 - 1}}
        assert list(back.member_start) == [0, 0, 1]
        back.validate()

    def test_byte_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_bytes(b"SUMMARY v1 2 1 2\nN 0 1 0\nN 1 1 \xff0\nE 0 1 1\n")
        with pytest.raises(ValueError, match="^line 3: non-decimal integer field"):
            read_summary(path)

    def test_non_integer_header_count_names_its_line(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 2 one 2\n"
                        "N 0 1 0 1\n")
        with pytest.raises(ValueError, match=r"^line 1: .*'one'"):
            read_summary(path)


def reference_write_summary(summary, path, members=True):
    """The list-and-join writer that the streaming write_summary replaced:
    every line is built in memory, then written in one call."""
    blocks = list(summary.nodes.items())
    if members:
        labels = {a: sorted(vertices)
                  for a, vertices in member_sets(summary).items()}
        blocks.sort(key=lambda block: labels[block[0]][0])
    else:
        blocks.sort(key=lambda block: summary.labels[block[0]])
    file_id = {a: pos for pos, (a, _) in enumerate(blocks)}
    lines = [f"SUMMARY v1 {summary.original_vertex_count} "
             f"{summary.original_edge_count} {len(blocks)}"]
    for pos, (a, node) in enumerate(blocks):
        line = f"N {pos} {node.size_n} {node.internal_e}"
        if members:
            line += " " + " ".join(map(str, labels[a]))
        lines.append(line)
    superedges = []
    for a, _ in blocks:
        for x, edge in summary.adj[a].items():
            i, j = file_id[a], file_id[x]
            if i < j:
                superedges.append((i, j, edge.cross_e))
    superedges.sort()
    lines.extend(f"E {i} {j} {e}" for i, j, e in superedges)
    with open(path, "w") as out:
        out.write("\n".join(lines) + "\n")


def random_merges(g, rng, merges):
    for _ in range(merges):
        g.merge(*rng.sample(list(g.alive_ids()), 2))


def superedge_count(g):
    return sum(len(neighbors) for neighbors in g.adj.values()) // 2


# Six supernodes of size 2 and their 15 superedges, one E line each from
# line 8 on; with batches of 4 lines, line 11 ends the first batch and
# line 12 starts the second.
BATCHED_NODES = [f"N {i} 2 0" for i in range(6)]
BATCHED_PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]
BATCHED_FIRST_E = 8
BATCH = 4


def batched_summary(path, replace=None, after=()):
    """Write the six-node file, with E lines replaced by line number
    (``replace`` maps a line number to its text) and extra lines after
    the last E line."""
    lines = ["SUMMARY v1 12 15 6", *BATCHED_NODES]
    lines += [f"E {i} {j} 1" for i, j in BATCHED_PAIRS]
    for lineno, text in (replace or {}).items():
        lines[lineno - 1] = text
    path.write_text("\n".join([*lines, *after]) + "\n")
    return path


E_FAULTS = {
    "field count": ("E 0 1", "malformed superedge line: 'E 0 1'"),
    "non-decimal": ("E 0 1_0 1", "non-decimal integer field in 'E 0 1_0 1'"),
    "non-integer": ("E 0 x 1", "invalid literal for int() with base 10: 'x'"),
    "self": ("E 3 3 1", "self superedge at 3"),
    "unknown": ("E 0 9 1", "superedge 0-9 references unknown supernode"),
    "unknown beyond 64 bits": ("E 0 99999999999999999999 1",
                               "superedge 0-99999999999999999999 references "
                               "unknown supernode"),
    "duplicate": ("E 0 1 1", "duplicate superedge 0-1"),
    "duplicate reversed": ("E 1 0 1", "duplicate superedge 1-0"),
    "count above": ("E 2 5 5", "superedge 2-5: count 5 outside [1, 4]"),
    "count zero": ("E 2 5 0", "superedge 2-5: count 0 outside [1, 4]"),
    "count beyond 64 bits": ("E 2 5 99999999999999999999",
                             "superedge 2-5: count 99999999999999999999 "
                             "outside [1, 4]"),
}


class TestBatchedRead:
    """read_summary checks E lines a batch at a time; every fault still
    names its own line, with the message it has always had. The (0, 1)
    superedge is on line 8, so a duplicate of it on line 11 is inside
    the first batch and one on line 12 is in the second."""

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_LINES", BATCH)

    @pytest.mark.parametrize("lineno", [BATCHED_FIRST_E + BATCH - 1,
                                        BATCHED_FIRST_E + BATCH])
    @pytest.mark.parametrize("kind", E_FAULTS)
    def test_fault_at_a_batch_edge_names_its_line(self, tmp_path, kind, lineno):
        text, message = E_FAULTS[kind]
        path = batched_summary(tmp_path / "bad.summary", {lineno: text})
        with pytest.raises(ValueError, match=f"^line {lineno}: {re.escape(message)}$"):
            read_summary(path)

    @pytest.mark.parametrize("first, second", [("self", "field count"),
                                               ("non-decimal", "self"),
                                               ("count above", "duplicate"),
                                               ("duplicate", "non-integer")])
    def test_earlier_of_two_faults_in_a_batch_wins(self, tmp_path, first, second):
        path = batched_summary(tmp_path / "bad.summary",
                               {13: E_FAULTS[first][0], 14: E_FAULTS[second][0]})
        with pytest.raises(ValueError, match=f"^line 13: "
                                             f"{re.escape(E_FAULTS[first][1])}$"):
            read_summary(path)

    @pytest.mark.parametrize("batch", [BATCH, 1000])
    def test_e_fault_before_an_n_fault_wins(self, tmp_path, monkeypatch, batch):
        # the bad N line is read after the E line, in the same pending run
        monkeypatch.setattr(cli, "_CHUNK_LINES", batch)
        path = batched_summary(tmp_path / "bad.summary", {20: "E 4 4 1"},
                               after=["N 0 2 0"])
        with pytest.raises(ValueError, match="^line 20: self superedge at 4$"):
            read_summary(path)

    def test_n_fault_before_an_e_fault_wins(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 4 2 3\nN 0 2 0\nN 1 1 0\nE 0 1 1\n"
                        "N 1 1 0\nE 0 0 1\n")
        with pytest.raises(ValueError, match="^line 5: duplicate supernode id 1$"):
            read_summary(path)

    def test_n_line_after_e_lines_reads(self, tmp_path):
        path = tmp_path / "mixed.summary"
        path.write_text("SUMMARY v1 4 5 3\nN 0 2 1\nN 1 1 0\nE 0 1 2\n"
                        "N 2 1 0\nE 2 0 1\n\nE 1 2 1\n")
        back = read_summary(path)
        back.validate()
        assert {a: list(row) for a, row in back.adj.items()} \
            == {0: [1, 2], 1: [0, 2], 2: [0, 1]}

    @pytest.mark.parametrize("seed", range(3))
    def test_adjacency_and_d_value_follow_file_order(self, tmp_path, seed):
        # E lines shuffled and flipped, read in batches of 4: each node's
        # map lists its neighbours in file order, and each d_value adds
        # its terms in file order, as a line-by-line reader would
        rng = random.Random(seed)
        g = SummaryGraph.from_edge_list(gnp_edges(40, 0.3, rng))
        random_merges(g, rng, 25)
        path = tmp_path / "g.summary"
        write_summary(g, path)
        lines = path.read_text().splitlines()
        body = [line for line in lines if line.startswith("E ")]
        rng.shuffle(body)
        for pos, line in enumerate(body):
            if rng.random() < 0.5:
                _, i, j, e = line.split()
                body[pos] = f"E {j} {i} {e}"
        path.write_text("\n".join(
            [line for line in lines if not line.startswith("E ")] + body) + "\n")
        back = read_summary(path)
        order = {a: [] for a in back.adj}
        d_value = {a: 0.0 for a in back.adj}
        for line in body:
            i, j, e = map(int, line.split()[1:])
            order[i].append(j)
            order[j].append(i)
            d_value[i] += e ** 2 / back.size_n[j]
            d_value[j] += e ** 2 / back.size_n[i]
        assert {a: list(row) for a, row in back.adj.items()} == order
        assert {a: back.d_value[a] for a in back.adj} == d_value
        unit = {id(edge) for row in back.adj.values() for edge in row.values()
                if edge.cross_e == 1}
        assert unit == {id(UNIT_EDGE)}
        back.validate()

    def test_transient_memory_flat_in_superedge_count(self, tmp_path,
                                                      monkeypatch):
        # memory beyond the graph read back is the batch's, whatever the
        # number of E lines (10k against 40k here, in batches of 1024)
        monkeypatch.setattr(cli, "_CHUNK_LINES", 1024)
        transient = {}
        for degree in (10, 40):
            path = tmp_path / f"d{degree}.summary"
            write_summary(SummaryGraph.from_edge_list(
                constant_degree_edges(2000, degree, random.Random(degree))), path)
            tracemalloc.start()
            try:
                back = read_summary(path)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            transient[degree] = peak - kept
            del back
        assert transient[40] < 1.5 * transient[10]

    def test_count_beyond_an_exact_float_square(self, tmp_path):
        # 94906267^2 is above 2^53: its square in float64 is rounded, and
        # the rounded square over 3 is not the exact quotient
        count = 94906267
        path = tmp_path / "big.summary"
        path.write_text(f"SUMMARY v1 31635426 {count} 2\nN 0 3 0\n"
                        f"N 1 31635423 0\nE 0 1 {count}\n")
        back = read_summary(path)
        assert back.d_value[1] == count ** 2 / 3
        assert back.d_value[0] == count ** 2 / 31635423
        assert back.adj[0][1].cross_e == count


class TestStreamingWrite:
    def assert_same_bytes(self, tmp_path, g, members=True):
        streamed = tmp_path / "streamed.summary"
        reference = tmp_path / "reference.summary"
        write_summary(g, streamed, members=members)
        reference_write_summary(g, reference, members=members)
        assert streamed.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("members", ["id_map", "dense", "none"])
    def test_random_merges_match_reference(self, tmp_path, seed, members):
        # "id_map" builds the graph with every vertex v named id_map[v]
        rng = random.Random(seed)
        n = 120
        edges = gnp_edges(n, 0.08, rng)
        if members == "id_map":
            id_map = rng.sample(range(10 ** 6), n)
            edges = [(id_map[u], id_map[v]) for u, v in edges]
        g = SummaryGraph.from_edge_list(edges)
        random_merges(g, rng, rng.randrange(n // 2))
        self.assert_same_bytes(tmp_path, g, members != "none")

    @pytest.mark.parametrize("members", [True, False])
    def test_no_superedges_matches_reference(self, tmp_path, members):
        # two components, each merged down to one block in random order
        rng = random.Random(5)
        left = gnp_edges(30, 0.2, rng)
        right = [(u + 30, v + 30) for u, v in gnp_edges(30, 0.2, rng)]
        g = SummaryGraph.from_edge_list(left + right)
        partition = [[v for v in side if v in g.adj]
                     for side in (range(30), range(30, 60))]
        for block in partition:
            rng.shuffle(block)
        merge_partition(g, partition)
        assert g.alive_count == 2
        assert superedge_count(g) == 0
        self.assert_same_bytes(tmp_path, g, members=members)

    @pytest.mark.parametrize("members", [True, False])
    def test_single_block_matches_reference(self, tmp_path, members):
        rng = random.Random(6)
        g = SummaryGraph.from_edge_list(gnp_edges(40, 0.15, rng))
        random_merges(g, rng, g.alive_count - 1)
        assert g.alive_count == 1
        self.assert_same_bytes(tmp_path, g, members=members)

    def test_several_chunks_match_reference(self, tmp_path):
        rng = random.Random(7)
        n = 4000
        id_map = rng.sample(range(10 ** 7), n)
        g = SummaryGraph.from_edge_list(
            (id_map[u], id_map[v]) for u, v in constant_degree_edges(n, 10, rng))
        random_merges(g, rng, 500)
        assert superedge_count(g) > 2 * _CHUNK_LINES
        self.assert_same_bytes(tmp_path, g)

    def test_transient_memory_flat_in_superedge_count(self, tmp_path):
        peaks = {}
        for degree in (10, 40):
            g = SummaryGraph.from_edge_list(
                constant_degree_edges(2000, degree, random.Random(degree)))
            tracemalloc.start()
            try:
                write_summary(g, tmp_path / f"d{degree}.summary")
                peaks[degree] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[40] < 1.5 * peaks[10]

    def test_members_without_membership_leave_no_file(self, tmp_path):
        # a summary read back without member lists cannot write them
        plain = tmp_path / "plain.summary"
        write_summary(SummaryGraph.from_edge_list([(0, 1), (1, 2)]), plain,
                      members=False)
        back = read_summary(plain)
        path = tmp_path / "bad.summary"
        with pytest.raises(ValueError, match="membership not retained"):
            write_summary(back, path)
        assert not path.exists()


class TestMain:
    def write_p3(self, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text(P3_TEXT)
        return path

    def test_path_graph_run(self, tmp_path, capsys):
        graph = self.write_p3(tmp_path)
        code = main(["--input", str(graph), "--k", "2", "--score", "exact",
                     "--seed", "7", "--retain-members"])
        assert code == 0
        values = report_values(capsys.readouterr().out)
        # only the twin merge (score 0) and an adjacent merge (score -2)
        # are reachable outcomes
        assert float(values["re_l1"]) in (0.0, 2.0)
        assert float(values["re_l2_squared"]) == float(values["re_l1"]) / 2.0

    def test_k_equals_n(self, tmp_path, capsys):
        graph = self.write_p3(tmp_path)
        assert main(["--input", str(graph), "--k", "3"]) == 0
        values = report_values(capsys.readouterr().out)
        assert float(values["re_l1"]) == 0.0

    def test_sketch_mode_run(self, tmp_path, capsys):
        graph = self.write_p3(tmp_path)
        code = main(["--input", str(graph), "--k", "2", "--score", "sketch",
                     "--width", "8", "--depth", "2", "--seed", "1"])
        assert code == 0
        assert "re_l1=" in capsys.readouterr().out

    def test_cli_summary_is_the_library_summary(self, tmp_path):
        # only from_edge_list maps labels to ids, so the CLI writes the file
        # the library writes from the same label pairs, with or without
        # members: sketches hash the input's labels either way
        rng = random.Random(5)
        n = 200
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.05]
        names = rng.sample(range(-10 ** 12, 10 ** 12), n)
        pairs = [(names[u], names[v]) for u, v in edges]
        graph = tmp_path / "named.txt"
        graph.write_text("".join(f"{u} {v}\n" for u, v in pairs))
        partitions = {}
        for score in ("exact", "sketch"):
            cfg = SummarizerConfig(target_k=50, score_mode=score, sketch_width=4,
                                   sketch_depth=2, seed=3)
            library = summarize(SummaryGraph.from_edge_list(pairs), cfg)
            partitions[score] = set(map(frozenset, member_sets(library).values()))
            for members in (False, True):
                cli_out = tmp_path / f"cli-{score}-{members}.summary"
                argv = ["--input", str(graph), "--k", "50", "--seed", "3",
                        "--score", score, "--width", "4", "--depth", "2",
                        "--summary-out", str(cli_out),
                        "--report", str(tmp_path / "report.txt")]
                assert main(argv + ["--retain-members"] * members) == 0
                library_out = tmp_path / f"library-{score}-{members}.summary"
                write_summary(library, library_out, members=members)
                assert cli_out.read_bytes() == library_out.read_bytes()
        # the sketch changed the run, so its cells were read
        assert partitions["sketch"] != partitions["exact"]
        # exact scores never read a label: renaming every vertex keeps the
        # merges, as ids are first-appearance indices under any labels
        plain = summarize(SummaryGraph.from_edge_list(edges), SummarizerConfig(
            target_k=50, seed=3))
        assert len(plain.merge_log) > 0
        assert plain.merge_log == summarize(
            SummaryGraph.from_edge_list(pairs),
            SummarizerConfig(target_k=50, seed=3)).merge_log

    def test_report_and_summary_files(self, tmp_path):
        graph = self.write_p3(tmp_path)
        report = tmp_path / "report.txt"
        summary = tmp_path / "out.summary"
        code = main(["--input", str(graph), "--k", "2", "--seed", "7",
                     "--retain-members", "--report", str(report),
                     "--summary-out", str(summary)])
        assert code == 0
        text = report.read_text()
        assert "manifest_seed=7" in text
        assert "elapsed_seconds=" in text
        read_summary(summary).validate()

    def test_reproducible_summary_bytes(self, tmp_path):
        graph = self.write_p3(tmp_path)
        outputs = []
        for name in ("a.summary", "b.summary"):
            out = tmp_path / name
            assert main(["--input", str(graph), "--k", "2", "--seed", "42",
                         "--retain-members", "--summary-out", str(out),
                         "--report", str(tmp_path / (name + ".report"))]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_k_one_with_self_loop_only_vertex(self, tmp_path, capsys):
        # vertex 5 has no edges, so it carries only the floor mass of an
        # edgeless node: the last merge must still find it as the partner
        graph = tmp_path / "loop.txt"
        graph.write_text("0 1\n5 5\n")
        out = tmp_path / "loop.summary"
        assert main(["--input", str(graph), "--k", "1",
                     "--summary-out", str(out)]) == 0
        values = report_values(capsys.readouterr().out)
        assert float(values["re_l1"]) == pytest.approx(8.0 / 3.0)
        assert read_summary(out).alive_count == 1

    def test_edgeless_graph_report(self, tmp_path, capsys):
        graph = tmp_path / "loops.txt"
        graph.write_text("5 5\n7 7\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would reach stderr
            assert main(["--input", str(graph), "--k", "1", "--retain-members"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        values = report_values(captured.out)
        assert values["centrality_err_avg"] == "0.0"
        assert values["centrality_err_std"] == "0.0"

    @pytest.mark.parametrize("retain, value_keys", [
        (True, ["re_l1", "re_l1_normalized", "re_l2_squared", "degree_err_avg",
                "degree_err_std", "centrality_err_avg", "centrality_err_std",
                "triangle_relative_err", "elapsed_seconds"]),
        (False, ["re_l1", "re_l1_normalized", "re_l2_squared",
                 "elapsed_seconds"]),
    ])
    def test_report_key_lines(self, tmp_path, capsys, retain, value_keys):
        graph = self.write_p3(tmp_path)
        argv = ["--input", str(graph), "--k", "2", "--seed", "7"]
        if retain:
            argv.append("--retain-members")
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:10] == [
            "graph summary report",
            "=====================",
            f"input        {graph}",
            "vertices     3",
            "edges        2",
            "supernodes   2",
            "score mode   exact",
            "sample rule  logn",
            "seed         7",
            "",
        ]
        body = lines[10:]
        keys = [line.partition("=")[0] for line in body]
        assert keys[:len(value_keys)] == value_keys
        assert body[len(value_keys):] == [
            f"manifest_input={graph}",
            "manifest_k=2",
            "manifest_sample=logn",
            "manifest_score=exact",
            "manifest_width=100",
            "manifest_depth=2",
            "manifest_seed=7",
            f"manifest_retain_members={'true' if retain else 'false'}",
            "manifest_oracle_limit=1024",
            "manifest_summary_out=",
            "manifest_report=",
        ]

    @pytest.mark.parametrize("score", ["exact", "sketch"])
    def test_report_matches_report_from_a_copy(self, tmp_path, score):
        rng = random.Random(9)
        labels = rng.sample(range(10 ** 6), 80)
        graph = tmp_path / "gnp.txt"
        graph.write_text("".join(f"{labels[u]} {labels[v]}\n"
                                 for u, v in gnp_edges(80, 0.08, rng)))
        report = tmp_path / "out.report"
        argv = ["--input", str(graph), "--k", "30", "--score", score,
                "--seed", "5", "--retain-members", "--report", str(report)]
        assert main(argv) == 0

        with open(graph) as stream:
            g = SummaryGraph.from_edge_list(parse_edge_list(stream))
        original = g.copy()
        summary = summarize(g, SummarizerConfig(
            target_k=30, score_mode=score, sketch_width=100, sketch_depth=2,
            seed=5))
        expected = _format_report(_build_parser().parse_args(argv), summary,
                                  build_report(original, summary), 0.0)

        def body(text):
            return [line for line in text.splitlines()
                    if not line.startswith("elapsed_seconds=")]

        assert body(report.read_text()) == body(expected)

    def test_k_too_large(self, tmp_path, capsys):
        graph = self.write_p3(tmp_path)
        assert main(["--input", str(graph), "--k", "9"]) == 1
        assert "exceeds" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        assert main(["--input", "/nonexistent/g.txt", "--k", "1"]) == 1
        assert "graphsumm:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["--input", "x", "--k", "1", "--bogus"]) != 0

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\noops\n")
        assert main(["--input", str(path), "--k", "1"]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_label_outside_64_bits_names_its_line(self, tmp_path, capsys):
        # the run used to write a summary that read_summary then rejected
        path = tmp_path / "big.txt"
        path.write_text("1 2\n2 99999999999999999999999\n1 3\n")
        out = tmp_path / "s.txt"
        assert main(["--input", str(path), "--k", "2", "--retain-members",
                     "--summary-out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("graphsumm: line 2: vertex id ")
        assert not out.exists()

    def test_64_bit_extreme_labels_round_trip(self, tmp_path):
        low, high = -2 ** 63, 2 ** 63 - 1
        path = tmp_path / "extreme.txt"
        path.write_text(f"{high} {low}\n{low} 5\n")
        out = tmp_path / "s.txt"
        assert main(["--input", str(path), "--k", "2", "--retain-members",
                     "--summary-out", str(out),
                     "--report", str(tmp_path / "report.txt")]) == 0
        labels = set().union(*member_sets(read_summary(out)).values())
        assert labels == {low, high, 5}

    @pytest.mark.parametrize("text, code, error", [
        (b"# caf\xe9\n1 2\n2 3\n", 0, ""),
        (b"# caf\xe9\n1 2\n2 \xff3\n", 1,
         "graphsumm: line 3: non-integer vertex id"),
    ])
    def test_byte_not_utf8(self, tmp_path, capsys, text, code, error):
        # a Latin-1 comment is skipped like any comment; a bad byte in a data
        # line is rejected with its line number
        path = tmp_path / "latin1.txt"
        path.write_bytes(text)
        assert main(["--input", str(path), "--k", "1",
                     "--report", str(tmp_path / "report.txt")]) == code
        assert capsys.readouterr().err.startswith(error)

    def test_bad_sample_rule(self, tmp_path, capsys):
        graph = self.write_p3(tmp_path)
        assert main(["--input", str(graph), "--k", "2",
                     "--sample", "sqrtn"]) == 1

    def test_fixed_sample_rule_in_another_spelling(self, tmp_path, capsys):
        # "fixed:1_0" would run as fixed:10 while the report names 1_0
        graph = self.write_p3(tmp_path)
        assert main(["--input", str(graph), "--k", "2",
                     "--sample", "fixed:1_0"]) == 1
        assert "bad fixed sample rule 'fixed:1_0'" in capsys.readouterr().err

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("k, code", [("2", 0), ("9", 1)])
    def test_collector_state_restored(self, tmp_path, capsys, enabled, k, code):
        graph = self.write_p3(tmp_path)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["--input", str(graph), "--k", k]) == code
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_run_triggers_no_collection(self, tmp_path):
        rng = random.Random(4)
        graph = tmp_path / "gnp.txt"
        graph.write_text("".join(f"{u} {v}\n" for u, v in gnp_edges(300, 0.05, rng)))
        collections = []

        def record(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.collect()  # start from empty generation counts
        gc.callbacks.append(record)
        try:
            assert main(["--input", str(graph), "--k", "100", "--retain-members",
                         "--summary-out", str(tmp_path / "out.summary"),
                         "--report", str(tmp_path / "out.report")]) == 0
        finally:
            gc.callbacks.remove(record)
            if not was_enabled:
                gc.disable()
        assert collections == []


def cli_summary_digest(tmp_path, score, members):
    """sha256 of the summary file of one fixed CLI run: a G(n, p) graph
    with sparse signed labels and k=n/3. Width 4 and depth 2 make sketch
    mode score every pair whose two degrees exceed 8 with the sketch."""
    rng = random.Random(83)
    n = 300
    labels = rng.sample(range(-10 ** 9, 10 ** 9), n)
    graph = tmp_path / "gnp.txt"
    graph.write_text("".join(f"{labels[u]} {labels[v]}\n"
                             for u, v in gnp_edges(n, 0.05, rng)))
    out = tmp_path / "out.summary"
    argv = ["--input", str(graph), "--k", str(n // 3), "--score", score,
            "--width", "4", "--depth", "2", "--seed", "17",
            "--summary-out", str(out), "--report", str(tmp_path / "report.txt")]
    if members:
        argv.append("--retain-members")
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestGoldenSummaryFiles:
    # summary file digests of cli_summary_digest's runs, recorded when the
    # merged node began keeping a's id and leaf, each file read back and
    # validated; the writer's output must not change. The member-less and
    # sketch files were re-recorded when the CLI stopped relabelling
    # before the graph build: each equals the file the library writes from
    # the same label pairs (exact mode with members kept its digest)
    GOLDEN = {
        ("exact", False):
            "9a9aa05a1e9ea37257910c25666d0df9941eef38c25764dff794216ee6656498",
        ("exact", True):
            "bf46c58a42747403f7f12efe18ec870692bd865ab33b721ea9565be288a564ee",
        ("sketch", False):
            "92f0be9ffd8cf8015d3164a245bf49b3ea3267fab5acbea9f32656bef31fe752",
        ("sketch", True):
            "f7a9d3a494044fe5169d4d7d7cb4a61d71e6f481f92d0d79c44c786fa3e65fec",
    }

    @pytest.mark.parametrize("score, members", list(GOLDEN))
    def test_summary_bytes_pinned(self, tmp_path, score, members):
        assert cli_summary_digest(tmp_path, score, members) \
            == self.GOLDEN[score, members]
