import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (constant_degree_edges, cross_count, gnp_edges,
                      member_sets)
from graphsumm import (SummarizerConfig, SummaryGraph, SuperEdge, re_brute,
                       re_closed, summarize)
from graphsumm.cli import read_summary, write_summary


def p3():
    return SummaryGraph.from_edge_list([(0, 1), (1, 2)])


def k3():
    return SummaryGraph.from_edge_list([(0, 1), (1, 2), (0, 2)])


class TestFromEdgeList:
    def test_path_graph(self):
        g = p3()
        assert g.alive_count == 3
        assert g.original_edge_count == 2
        assert {x: cross_count(g, 1, x) for x in g.adj[1]} == {0: 1, 2: 1}
        # center's cached sum: 1^2/1 + 1^2/1
        assert g.nodes[1].d_value == pytest.approx(2.0, rel=1e-12)

    def test_duplicates_and_self_loops_dropped(self):
        g = SummaryGraph.from_edge_list([(1, 2), (2, 1), (1, 1)])
        assert g.alive_count == 2
        assert g.original_edge_count == 1
        assert cross_count(g, 0, 1) == 1
        # labels 3, 1, 2, 5, 0, 4 get ids 0..5 in order of first appearance
        g = SummaryGraph.from_edge_list(
            [(3, 1), (1, 3), (2, 2), (5, 3), (3, 5), (1, 5), (0, 4)])
        assert list(g.nodes) == list(g.adj) == [0, 1, 2, 3, 4, 5]
        assert list(g.labels) == [3, 1, 2, 5, 0, 4]
        assert g.original_edge_count == 4
        assert list(g.adj[0]) == [1, 3]
        entries = {(a, x): edge.cross_e for a, adj_a in g.adj.items()
                   for x, edge in adj_a.items() if g.adj[x][a] is edge}
        assert entries == {(0, 1): 1, (1, 0): 1, (0, 3): 1, (3, 0): 1,
                           (1, 3): 1, (3, 1): 1, (4, 5): 1, (5, 4): 1}
        g.validate()

    def test_triangle_edge_conservation(self):
        g = k3()
        assert g.alive_count == 3
        cross = sum(edge.cross_e for a in g.alive_ids() for edge in g.adj[a].values())
        assert 0 + cross // 2 == 3 == g.original_edge_count

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty graph"):
            SummaryGraph.from_edge_list([])

    def test_signed_64_bit_labels(self, tmp_path):
        # any signed 64-bit label is a vertex, negative ones included, and
        # comes back from a summary file as it went in
        low, high = -2 ** 63, 2 ** 63 - 1
        g = SummaryGraph.from_edge_list([(0, -1), (3, -2), (-5, 4), (low, high),
                                         (high, -1)])
        assert list(g.labels) == [0, -1, 3, -2, -5, 4, low, high]
        assert g.original_edge_count == 5
        g.merge(1, 7)  # labels -1 and high
        g.merge(6, 0)  # labels low and 0
        g.validate()
        path = tmp_path / "signed.summary"
        write_summary(g, path)
        back = read_summary(path)
        back.validate()
        assert sorted(map(sorted, member_sets(back).values())) \
            == [[low, 0], [-5], [-2], [-1, high], [3], [4]]
        for label in (2 ** 63, low - 1):
            with pytest.raises(ValueError, match="too large for the int64 "
                                                 "label array"):
                SummaryGraph.from_edge_list([(0, 1), (3, label)])

    @pytest.mark.parametrize("edges", [[(0, 1), (2, 3, 4)], [(0, 1), (2,)],
                                       [(0, 1, 2), (3,)]])
    def test_edges_must_be_pairs(self, edges):
        # the endpoints are relabelled as one stream, so a tuple of another
        # length would shift every later pair
        with pytest.raises(ValueError, match="pair of vertex labels"):
            SummaryGraph.from_edge_list(edges)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_edge_reference_build(self, seed):
        # duplicates in both orientations and self-loops, some on vertices
        # with no other edge
        rng = random.Random(seed)
        edges = []
        for u, v in gnp_edges(30, 0.2, rng):
            edges.append((u, v))
            if rng.random() < 0.3:
                edges.append((v, u) if rng.random() < 0.5 else (u, v))
            if rng.random() < 0.1:
                edges.append((u, u))
        edges.append((40, 40))
        rng.shuffle(edges)
        order, rows, edge_count = [], {}, 0
        for u, v in edges:
            for w in (u, v):
                if w not in rows:
                    order.append(w)
                    rows[w] = []
            if u != v and v not in rows[u]:
                rows[u].append(v)
                rows[v].append(u)
                edge_count += 1
        g = SummaryGraph.from_edge_list(edges)
        ids = range(len(order))
        assert list(g.nodes) == list(g.adj) == list(ids)
        assert list(g.labels) == order
        assert {order[a]: [order[x] for x in entries]
                for a, entries in g.adj.items()} == rows
        assert g.original_vertex_count == len(order)
        assert g.original_edge_count == edge_count
        vertices, blocks = g.membership()
        assert list(vertices) == order
        assert list(blocks) == list(ids)
        assert len(g.merge_log) == 0
        for a, node in g.nodes.items():
            assert (node.size_n, node.internal_e) == (1, 0)
            assert node.d_value == float(len(rows[order[a]]))
        g.validate()

    def test_count_one_superedges_are_one_object(self):
        g = SummaryGraph.from_edge_list(gnp_edges(40, 0.2, random.Random(8)))
        edges = [e for row in g.adj.values() for e in row.values()]
        assert len({id(e) for e in edges}) == 1
        assert edges[0].cross_e == 1

    def test_members_retained_on_demand(self, tmp_path):
        # every built graph knows its members; a summary read back from a
        # file without member lists does not, but still logs its merges
        g = SummaryGraph.from_edge_list([(1, 2)])
        assert member_sets(g) == {0: {1}, 1: {2}}
        path = tmp_path / "plain.summary"
        write_summary(p3(), path, members=False)
        g = read_summary(path)
        assert (g.member_ids, g.member_start, list(g.merge_log)) \
            == (None, None, [])
        assert g.merge(0, 1) == 0
        assert list(g.merge_log) == [0, 1]
        with pytest.raises(ValueError, match="membership not retained"):
            g.membership()
        g.validate()

    def test_retained_ids_must_fit_int64(self):
        # labels are kept in an int64 array, so the largest label it can
        # hold is accepted; the log holds ids, which a merge never makes up
        with pytest.raises(ValueError, match="too large for the int64 label array"):
            SummaryGraph.from_edge_list([(0, 2 ** 63), (1, 2)])
        top = 2 ** 63 - 1
        g = SummaryGraph.from_edge_list([(0, top), (1, 2)])
        assert list(g.labels) == [0, top, 1, 2]
        assert g.merge(1, 2) == 1
        while g.alive_count > 1:
            g.merge(*list(g.alive_ids())[:2])
        assert list(g.merge_log) == [1, 2, 0, 1, 0, 3]
        assert member_sets(g) == {0: {0, 1, 2, top}}
        g.validate()


class TestMerge:
    def test_path_merge_adjacent(self):
        g = p3()
        kept, removed = g.nodes[0], g.nodes[1]
        assert g.merge(0, 1) == 0
        assert kept.alive and kept.size_n == 2
        assert not removed.alive
        with pytest.raises(KeyError):
            g.nodes[1]
        assert list(g.nodes) == list(g.adj) == [0, 2]
        assert g.nodes[0].size_n == 2
        assert g.nodes[0].internal_e == 1
        assert list(g.adj[0]) == [2]
        assert cross_count(g, 0, 2) == 1
        # neighbor's cached sum moves from 1^2/1 to 1^2/2
        assert g.nodes[2].d_value == pytest.approx(0.5, rel=1e-12)
        g.validate()

    def test_path_merge_twins(self):
        g = p3()
        z = g.merge(0, 2)
        assert g.nodes[z].size_n == 2
        assert g.nodes[z].internal_e == 0
        assert cross_count(g, z, 1) == 2
        assert g.nodes[1].d_value == pytest.approx(2.0, rel=1e-12)
        g.validate()

    def test_triangle_merge(self):
        g = k3()
        z = g.merge(0, 1)
        assert g.nodes[z].size_n == 2
        assert g.nodes[z].internal_e == 1
        assert cross_count(g, z, 2) == 2
        g.validate()

    def test_merge_members_union(self):
        # labels 1, 2, 3 are ids 0, 1, 2; membership speaks labels
        g = SummaryGraph.from_edge_list([(1, 2), (2, 3)])
        assert g.merge(0, 2) == 0
        assert member_sets(g) == {0: {1, 3}, 1: {2}}
        assert list(g.merge_log) == [0, 2]

    def test_invalid_pairs(self):
        g = p3()
        with pytest.raises(ValueError, match="invalid merge pair"):
            g.merge(0, 0)
        with pytest.raises(ValueError, match="invalid merge pair"):
            g.merge(0, 99)
        g.merge(0, 1)
        with pytest.raises(ValueError, match="invalid merge pair"):
            g.merge(1, 2)  # 1 is dead
        with pytest.raises(ValueError, match="invalid merge pair"):
            g.merge(2, 1)
        assert g.merge(2, 0) == 2
        assert g.alive_count == 1

    def test_neighbour_maps_keep_key_a_in_place(self):
        # a neighbour of a keeps key a where it was and loses b; a
        # neighbour of b alone trades b for a at the end of its map; every
        # other map is left as it was
        rng = random.Random(19)
        for trial in range(30):
            g = SummaryGraph.from_edge_list(gnp_edges(rng.randint(4, 14), 0.4, rng))
            while g.alive_count > 1:
                a, b = rng.sample(list(g.alive_ids()), 2)
                before = {x: list(g.adj[x]) for x in g.alive_ids()}
                g.merge(a, b)
                for x in g.alive_ids():
                    if x == a:
                        continue
                    expect = [y for y in before[x] if y != b]
                    if b in before[x] and a not in before[x]:
                        expect.append(a)
                    assert list(g.adj[x]) == expect
                    if a in expect:
                        assert g.adj[x][a] is g.adj[a][x]


class TestNeighbors:
    def test_initial_adjacency(self):
        assert sorted(p3().adj[1]) == [0, 2]

    def test_after_twin_merge(self):
        g = p3()
        z = g.merge(0, 2)
        assert list(g.adj[1]) == [z]
        assert cross_count(g, 1, z) == 2

    def test_isolated_vertex_empty(self):
        # vertex 7 (id 2) appears only in a dropped self-loop
        g = SummaryGraph.from_edge_list([(1, 2), (7, 7)])
        assert g.labels[2] == 7
        assert g.adj[2] == {}


class TestInvariantsUnderRandomMerges:
    def test_random_merge_sequences(self):
        rng = random.Random(42)
        for trial in range(30):
            n = rng.randint(4, 14)
            g = SummaryGraph.from_edge_list(gnp_edges(n, 0.4, rng))
            edge_count = g.original_edge_count
            while g.alive_count > 1:
                alive = list(g.alive_ids())
                a, b = rng.sample(alive, 2)
                touched = 2 * (len(g.adj[a]) + len(g.adj[b])) - 2 * (b in g.adj[a])
                before = g.alive_count
                assert g.merge(a, b) == a
                assert g.alive_count == before - 1
                assert g.last_merge_touched == touched
                assert a in g.nodes and b not in g.nodes
                assert list(g.nodes) == list(g.adj) == [x for x in alive
                                                        if x != b]
                g.validate()  # conservation, mirrors, d-values, bounds
            last = next(iter(g.alive_ids()))
            assert g.nodes[last].size_n == g.original_vertex_count
            assert g.nodes[last].internal_e == edge_count

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_merge_raises_no_other_degree(self, data):
        # A merge raises no surviving node's degree but z's.
        n = data.draw(st.integers(2, 14), label="n")
        vertex = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                                   max_size=3 * n), label="edges")
        g = SummaryGraph.from_edge_list(edges)
        while g.alive_count > 1 and data.draw(st.booleans(), label="go on"):
            alive = list(g.alive_ids())
            a = data.draw(st.sampled_from(alive), label="a")
            b = data.draw(st.sampled_from([x for x in alive if x != a]), label="b")
            before = {x: set(g.adj[x]) for x in alive}
            z = g.merge(a, b)
            for x in g.alive_ids():
                if x == z:
                    assert len(g.adj[z]) == len((before[a] | before[b]) - {a, b})
                    continue
                # a neighbor of a or b trades one or two keys for z
                lost = len(before[x] & {a, b})
                assert len(g.adj[x]) == len(before[x]) - lost + (lost > 0)
                assert len(g.adj[x]) <= len(before[x])

    def test_copy_is_independent(self):
        rng = random.Random(3)
        g = SummaryGraph.from_edge_list(gnp_edges(12, 0.4, rng))
        g.merge(0, 1)

        def snapshot(graph):
            members = member_sets(graph)
            nodes = sorted((i, node.size_n, node.internal_e, node.d_value,
                            sorted(members[i]))
                           for i, node in graph.nodes.items())
            edges = sorted((a, x, edge.cross_e)
                           for a, entries in graph.adj.items()
                           for x, edge in entries.items())
            return nodes, edges

        before = snapshot(g)
        clone = g.copy()
        assert 0 in clone.nodes and 1 not in clone.nodes
        assert list(clone.nodes) == list(clone.adj) == list(g.nodes)
        for a, entries in g.adj.items():
            assert clone.adj[a] is not entries
            for x, edge in entries.items():
                assert clone.adj[a][x] is edge
                assert clone.adj[x][a] is edge
        for name in ("size_n", "internal_e", "d_value"):
            assert getattr(clone, name).obj is not getattr(g, name).obj
        # the vertex arrays never change and are shared; the log is copied
        assert clone.member_ids is g.member_ids
        assert clone.member_start is g.member_start
        assert clone.merge_log == g.merge_log
        assert clone.merge_log is not g.merge_log
        while clone.alive_count > 1:
            a, b = sorted(clone.alive_ids())[:2]
            clone.merge(a, b)
            clone.validate()
        g.validate()
        assert snapshot(g) == before


def merge_sequences(max_n=14):
    """Hypothesis strategy: an edge list and a merge sequence drawn as
    index pairs into the current alive list."""
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n), label="n")
        vertex = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                              max_size=3 * n), label="edges")
        picks = draw(st.lists(st.tuples(st.integers(0, 10 ** 6),
                                        st.integers(0, 10 ** 6)),
                              max_size=n), label="picks")
        return edges, picks
    return build()


def apply_picks(g, picks, sets=None):
    """Merge g along picks (each an index pair into the alive list), keeping
    the reference member sets, if given, in step by set union."""
    for i, j in picks:
        alive = list(g.alive_ids())
        if len(alive) < 2:
            break
        a = alive[i % len(alive)]
        b = [x for x in alive if x != a][j % (len(alive) - 1)]
        z = g.merge(a, b)
        if sets is not None:
            sets[z] = sets.pop(a) | sets.pop(b)


class TestMembershipLog:
    @settings(max_examples=200, deadline=None)
    @given(merge_sequences())
    def test_replay_matches_set_union(self, case):
        edges, picks = case
        g = SummaryGraph.from_edge_list(edges)
        sets = {a: {g.labels[a]} for a in g.nodes}
        apply_picks(g, picks, sets)
        assert member_sets(g) == sets
        assert len(g.merge_log) == 2 * (g.original_vertex_count - g.alive_count)
        g.validate()

    @settings(max_examples=100, deadline=None)
    @given(merge_sequences(), st.lists(st.tuples(st.integers(0, 10 ** 6),
                                                 st.integers(0, 10 ** 6)),
                                       min_size=1, max_size=6),
           st.booleans())
    def test_copy_and_original_merge_independently(self, case, more, in_copy):
        edges, picks = case
        g = SummaryGraph.from_edge_list(edges)
        apply_picks(g, picks)
        clone = g.copy()
        moved, kept = (clone, g) if in_copy else (g, clone)
        before = member_sets(kept)
        sets = member_sets(moved)
        apply_picks(moved, more, sets)
        assert member_sets(kept) == before
        assert member_sets(moved) == sets
        kept.validate()
        moved.validate()

    @pytest.mark.parametrize("tamper", ["relink", "drop", "extra"])
    def test_validate_rejects_a_log_that_disagrees_with_sizes(self, tamper):
        g = SummaryGraph.from_edge_list([(0, 1), (1, 2), (2, 3)])
        g.merge(0, 2)
        g.merge(0, 3)
        g.validate()
        if tamper == "relink":
            g.merge_log[1] = 1  # the first merge now takes 1 in place of 2
        elif tamper == "drop":
            del g.merge_log[2:]  # the second merge is forgotten
        else:
            g.merge_log.extend((1, 0))  # a merge that never happened
        with pytest.raises(AssertionError, match="replayed membership"):
            g.validate()

    def test_retained_identity_memory(self):
        # the log and vertex arrays cost a few bytes per vertex, next to the
        # supernodes and adjacency maps the graph needs anyway: at most a
        # tenth of the rest of the identity graph's traced memory
        edges = constant_degree_edges(2 ** 13, 6, random.Random(13))
        tracemalloc.start()
        try:
            g = SummaryGraph.from_edge_list(edges)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the label array is the vertex array, and each vertex starts as
        # its own block, so the start blocks are a range
        assert g.member_ids is g.labels
        assert g.member_start == range(g.original_vertex_count)
        arrays = sys.getsizeof(g.member_ids) + sys.getsizeof(g.merge_log)
        assert arrays >= 8 * g.original_vertex_count
        assert arrays <= 0.1 * (traced - arrays)


class TestValidate:
    def test_fresh_unit_edge_breaks_mirror(self):
        g = p3()
        assert g.adj[0][1] is g.adj[1][2]
        g.adj[0][1] = SuperEdge(1)
        with pytest.raises(AssertionError, match="mirror broken for 0-1"):
            g.validate()

    def test_node_without_adjacency_entry(self):
        # liveness is a key of adj: a supernode whose entry is dropped is
        # gone, and the live sizes no longer partition the vertices
        g = SummaryGraph.from_edge_list([(0, 1), (2, 2)])
        del g.adj[2]
        with pytest.raises(AssertionError, match="do not partition"):
            g.validate()
        with pytest.raises(KeyError):
            g.nodes[2]


class TestRelabeling:
    """Ids are the dense first-appearance indices; labels only name the
    vertices. The same graph under two labelings therefore runs the same
    exact-mode merge loop, and every vertex-facing output differs only by
    the labels."""

    @staticmethod
    def spread(label):
        return 7919 * label + 11

    def test_two_labelings_give_one_run(self, tmp_path):
        rng = random.Random(71)
        n = 150
        names = rng.sample(range(1 << 38), n)  # sparse, some of them huge
        named = [(names[u], names[v]) for u, v in gnp_edges(n, 0.08, rng)]
        order = list(dict.fromkeys(u for edge in named for u in edge))
        index = {label: i for i, label in enumerate(order)}
        dense = [(index[u], index[v]) for u, v in named]
        spread = [(self.spread(u), self.spread(v)) for u, v in named]
        assert max(map(max, spread)) >= 2 ** 40
        graphs = {}
        for name, edges in (("dense", dense), ("spread", spread)):
            g = SummaryGraph.from_edge_list(edges)
            summarize(g, SummarizerConfig(target_k=20, seed=7))
            g.validate()
            graphs[name] = g
        g_dense, g_spread = graphs["dense"], graphs["spread"]
        relabel = [self.spread(label) for label in order]
        assert list(g_dense.labels) == list(range(len(order)))
        assert list(g_spread.labels) == relabel
        # the same merges, in id space
        assert len(g_dense.merge_log) > 0
        assert g_dense.merge_log == g_spread.merge_log
        # membership speaks labels, with the same blocks
        vertices_dense, blocks_dense = g_dense.membership()
        vertices_spread, blocks_spread = g_spread.membership()
        assert blocks_dense == blocks_spread
        assert list(vertices_spread) == [relabel[v] for v in vertices_dense]
        # the same summary file as a graph built from the spread labels
        # with the dense run's merges
        replayed = SummaryGraph.from_edge_list(spread)
        log = g_dense.merge_log
        for a, b in zip(log[::2], log[1::2]):
            replayed.merge(a, b)
        paths = [tmp_path / "replayed.summary", tmp_path / "spread.summary"]
        write_summary(replayed, paths[0])
        write_summary(g_spread, paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # the brute-force oracle matches vertices to blocks by label
        original = SummaryGraph.from_edge_list(spread)
        assert re_brute(original, g_spread) == re_brute(
            SummaryGraph.from_edge_list(dense), g_dense)
        assert re_brute(original, g_spread) == pytest.approx(
            re_closed(g_spread), abs=1e-9)
        with pytest.raises(ValueError, match="unknown vertex"):
            re_brute(original, g_dense)

    def test_label_checks_see_labels_not_ids(self):
        # the ids are 0 and 1 either way; only the labels can be refused
        top = 7919 * 2 ** 50
        assert list(SummaryGraph.from_edge_list([(top, 11)]).labels) == [top, 11]
        with pytest.raises(ValueError, match="too large for the int64 label array"):
            SummaryGraph.from_edge_list([(7919 * 2 ** 51, 11)])
        with pytest.raises(ValueError, match="too large for the int64 label array"):
            SummaryGraph.from_edge_list([(11, -7919 * 2 ** 51)])
        assert list(SummaryGraph.from_edge_list([(11, self.spread(-1))]).labels) \
            == [11, -7908]


class TestStatisticsArrays:
    def test_merged_away_ids_are_zeroed(self):
        # whole-array sums of internal_e and d_value count live nodes only
        g = k3()
        g.merge(0, 1)
        assert (g.internal_e[1], g.d_value[1]) == (0, 0.0)
        assert sum(g.internal_e) == g.internal_e[0] == 1
        assert sum(g.d_value) == g.d_value[0] + g.d_value[2]
        g.validate()
        g.d_value[1] = 0.5
        with pytest.raises(AssertionError, match="dead supernode"):
            g.validate()
