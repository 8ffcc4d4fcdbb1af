import gc
import io
import random
import warnings

import pytest

from conftest import gnp_edges
from graphsumm import SummaryGraph, re_closed
from graphsumm.cli import main, parse_edge_list, read_summary, write_summary

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
    def test_comments_and_dense_remap(self):
        edges, original = parse_text("# comment\n1 2\n2 3\n")
        assert edges == [(0, 1), (1, 2)]
        assert original == [1, 2, 3]

    def test_tabs_and_duplicates_pass_through(self):
        edges, _ = parse_text("1\t2\n1 2\n")
        assert edges == [(0, 1), (0, 1)]
        g = SummaryGraph.from_edge_list(edges)
        assert g.original_edge_count == 1

    def test_non_integer_token(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_text("a b\n")

    def test_wrong_field_count(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_text("1 2\n3 4 5\n")

    def test_empty_after_filtering(self):
        with pytest.raises(ValueError, match="empty graph"):
            parse_text("# nothing\n\n")


class TestSummaryRoundTrip:
    def test_exact_file_format(self, tmp_path):
        g = SummaryGraph.from_edge_list([(1, 2), (2, 3)], retain_members=True)
        g.merge(1, 3)
        path = tmp_path / "p3.summary"
        write_summary(g, path)
        assert path.read_text() == ("SUMMARY v1 3 2 2\n"
                                    "N 0 2 0 1 3\n"
                                    "N 1 1 0 2\n"
                                    "E 0 1 2\n")

    def test_round_trip_preserves_error(self, tmp_path):
        g = SummaryGraph.from_edge_list([(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)],
                                        retain_members=True)
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
        write_summary(g, path)
        back = read_summary(path)
        assert re_closed(back) == pytest.approx(re_closed(g))

    def test_round_trip_d_values_exact(self, tmp_path):
        rng = random.Random(31)
        g = SummaryGraph.from_edge_list(gnp_edges(80, 0.1, rng),
                                        retain_members=True)
        for _ in range(50):
            g.merge(*rng.sample(list(g.alive_ids()), 2))
        path = tmp_path / "merged.summary"
        write_summary(g, path)
        back = read_summary(path)
        for a, node in back.nodes.items():
            assert node.d_value == back.recomputed_d_value(a)

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
        g = SummaryGraph.from_edge_list(gnp_edges(300, 0.05, rng),
                                        retain_members=True)
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

    def test_duplicate_id_names_its_line(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 2 1 2\n"
                        "N 0 1 0 1\n"
                        "N 0 1 0 2\n")
        with pytest.raises(ValueError, match="^line 3: duplicate supernode id 0$"):
            read_summary(path)

    def test_non_integer_header_count_names_its_line(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("SUMMARY v1 2 one 2\n"
                        "N 0 1 0 1\n")
        with pytest.raises(ValueError, match=r"^line 1: .*'one'"):
            read_summary(path)


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
        # vertex 5 has no edges and so no sampling mass: the last merge
        # must still find it as the partner
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

    def test_bad_sample_rule(self, tmp_path, capsys):
        graph = self.write_p3(tmp_path)
        assert main(["--input", str(graph), "--k", "2",
                     "--sample", "sqrtn"]) == 1

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
