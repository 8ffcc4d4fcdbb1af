import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_degree_edges, gnp_edges, member_sets
from graphsumm import SummaryGraph, SuperEdge, SuperNode


def p3():
    return SummaryGraph.from_edge_list([(1, 2), (2, 3)])


def k3():
    return SummaryGraph.from_edge_list([(1, 2), (2, 3), (1, 3)])


class TestFromEdgeList:
    def test_path_graph(self):
        g = p3()
        assert g.alive_count == 3
        assert g.original_edge_count == 2
        assert {x: g.cross_count(2, x) for x in g.adj[2]} == {1: 1, 3: 1}
        # center's cached sum: 1^2/1 + 1^2/1
        assert g.nodes[2].d_value == pytest.approx(2.0, rel=1e-12)

    def test_duplicates_and_self_loops_dropped(self):
        g = SummaryGraph.from_edge_list([(1, 2), (2, 1), (1, 1)])
        assert g.alive_count == 2
        assert g.original_edge_count == 1
        assert g.cross_count(1, 2) == 1
        g = SummaryGraph.from_edge_list(
            [(3, 1), (1, 3), (2, 2), (5, 3), (3, 5), (1, 5), (0, 4)])
        assert list(g.nodes) == list(g.adj) == [3, 1, 2, 5, 0, 4]
        assert g.original_edge_count == 4
        assert list(g.adj[3]) == [1, 5]
        entries = {(a, x): edge.cross_e for a, adj_a in g.adj.items()
                   for x, edge in adj_a.items() if g.adj[x][a] is edge}
        assert entries == {(3, 1): 1, (1, 3): 1, (3, 5): 1, (5, 3): 1,
                           (1, 5): 1, (5, 1): 1, (0, 4): 1, (4, 0): 1}
        g.validate()

    def test_triangle_edge_conservation(self):
        g = k3()
        assert g.alive_count == 3
        cross = sum(edge.cross_e for a in g.alive_ids() for edge in g.adj[a].values())
        assert 0 + cross // 2 == 3 == g.original_edge_count

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty graph"):
            SummaryGraph.from_edge_list([])

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            SummaryGraph.from_edge_list([(0, -1)])
        with pytest.raises(ValueError, match=r"edge \(3, -2\)"):
            SummaryGraph.from_edge_list([(0, 1), (3, -2), (-5, 4)])

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
        g = SummaryGraph.from_edge_list(edges, retain_members=True)
        assert list(g.nodes) == list(g.adj) == order
        assert {a: list(entries) for a, entries in g.adj.items()} == rows
        assert g.original_vertex_count == len(order)
        assert g.original_edge_count == edge_count
        assert g._next_id == max(order) + 1
        vertices, blocks = g.membership()
        assert list(vertices) == list(blocks) == order
        assert len(g.merge_log) == 0
        for a, node in g.nodes.items():
            assert (node.size_n, node.internal_e) == (1, 0)
            assert node.d_value == float(len(rows[a]))
        g.validate()

    def test_count_one_superedges_are_one_object(self):
        g = SummaryGraph.from_edge_list(gnp_edges(40, 0.2, random.Random(8)))
        edges = [e for row in g.adj.values() for e in row.values()]
        assert len({id(e) for e in edges}) == 1
        assert edges[0].cross_e == 1

    def test_members_retained_on_demand(self):
        g = SummaryGraph.from_edge_list([(1, 2)], retain_members=True)
        assert member_sets(g) == {1: {1}, 2: {2}}
        g = p3()
        assert (g.member_ids, g.member_start, g.merge_log) == (None, None, None)
        g.merge(1, 2)
        assert g.merge_log is None
        with pytest.raises(ValueError, match="membership not retained"):
            g.membership()

    def test_retained_ids_must_fit_int64(self):
        edges = [(0, 2 ** 63 - 3), (1, 2)]
        assert SummaryGraph.from_edge_list(edges).alive_count == 4
        with pytest.raises(ValueError, match="too large to retain"):
            SummaryGraph.from_edge_list(edges, retain_members=True)
        g = SummaryGraph.from_edge_list([(0, 2 ** 63 - 4), (1, 2)],
                                        retain_members=True)
        while g.alive_count > 1:
            g.merge(*list(g.alive_ids())[:2])
        g.validate()


class TestMerge:
    def test_path_merge_adjacent(self):
        g = p3()
        held = g.nodes[1]
        z = g.merge(1, 2)
        assert not held.alive
        assert list(g.nodes) == list(g.adj) == [3, z]
        assert g.nodes[z].size_n == 2
        assert g.nodes[z].internal_e == 1
        assert list(g.adj[z]) == [3]
        assert g.cross_count(z, 3) == 1
        # neighbor's cached sum moves from 1^2/1 to 1^2/2
        assert g.nodes[3].d_value == pytest.approx(0.5, rel=1e-12)
        g.validate()

    def test_path_merge_twins(self):
        g = p3()
        z = g.merge(1, 3)
        assert g.nodes[z].size_n == 2
        assert g.nodes[z].internal_e == 0
        assert g.cross_count(z, 2) == 2
        assert g.nodes[2].d_value == pytest.approx(2.0, rel=1e-12)
        g.validate()

    def test_triangle_merge(self):
        g = k3()
        z = g.merge(1, 2)
        assert g.nodes[z].size_n == 2
        assert g.nodes[z].internal_e == 1
        assert g.cross_count(z, 3) == 2
        g.validate()

    def test_merge_members_union(self):
        g = SummaryGraph.from_edge_list([(1, 2), (2, 3)], retain_members=True)
        z = g.merge(1, 3)
        assert member_sets(g) == {2: {2}, z: {1, 3}}
        assert list(g.merge_log) == [1, 3, z]

    def test_removed_maps_left_intact(self):
        # a caller holding a's and b's maps and nodes still reads their
        # pre-merge entries and statistics after the merge
        rng = random.Random(19)
        for _ in range(20):
            g = SummaryGraph.from_edge_list(gnp_edges(12, 0.4, rng))
            for _ in range(rng.randrange(6)):
                g.merge(*rng.sample(list(g.alive_ids()), 2))
            a, b = rng.sample(list(g.alive_ids()), 2)
            held = {u: (g.adj[u], g.nodes[u]) for u in (a, b)}
            before = {u: ([(x, edge, edge.cross_e) for x, edge in entries.items()],
                          (node.size_n, node.internal_e, node.d_value))
                      for u, (entries, node) in held.items()}
            g.merge(a, b)
            for u, (entries, node) in held.items():
                assert [(x, edge, edge.cross_e)
                        for x, edge in entries.items()] == before[u][0]
                assert (node.size_n, node.internal_e, node.d_value) == before[u][1]
            g.validate()

    def test_invalid_pairs(self):
        g = p3()
        with pytest.raises(ValueError, match="invalid merge pair"):
            g.merge(1, 1)
        with pytest.raises(ValueError, match="invalid merge pair"):
            g.merge(1, 99)
        z = g.merge(1, 2)
        with pytest.raises(ValueError, match="invalid merge pair"):
            g.merge(1, 3)  # 1 is dead
        g.merge(z, 3)
        assert g.alive_count == 1


class TestNeighbors:
    def test_initial_adjacency(self):
        assert sorted(p3().adj[2]) == [1, 3]

    def test_after_twin_merge(self):
        g = p3()
        z = g.merge(1, 3)
        assert list(g.adj[2]) == [z]
        assert g.cross_count(2, z) == 2

    def test_isolated_vertex_empty(self):
        # vertex 7 appears only in a dropped self-loop
        g = SummaryGraph.from_edge_list([(1, 2), (7, 7)])
        assert g.adj[7] == {}


class TestInvariantsUnderRandomMerges:
    def test_random_merge_sequences(self):
        rng = random.Random(42)
        for trial in range(30):
            n = rng.randint(4, 14)
            g = SummaryGraph.from_edge_list(gnp_edges(n, 0.4, rng),
                                            retain_members=True)
            edge_count = g.original_edge_count
            while g.alive_count > 1:
                alive = list(g.alive_ids())
                a, b = rng.sample(alive, 2)
                touched = 2 * (g.degree(a) + g.degree(b)) - 2 * (b in g.adj[a])
                before = g.alive_count
                z = g.merge(a, b)
                assert g.alive_count == before - 1
                assert g.last_merge_touched == touched
                assert a not in g.nodes and b not in g.nodes
                assert list(g.nodes) == list(g.adj) == [x for x in alive
                                                        if x not in (a, b)] + [z]
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
                    assert g.degree(z) == len((before[a] | before[b]) - {a, b})
                    continue
                # a neighbor of a or b trades one or two keys for z
                lost = len(before[x] & {a, b})
                assert g.degree(x) == len(before[x]) - lost + (lost > 0)
                assert g.degree(x) <= len(before[x])

    def test_copy_is_independent(self):
        rng = random.Random(3)
        g = SummaryGraph.from_edge_list(gnp_edges(12, 0.4, rng),
                                        retain_members=True)
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
        assert 0 not in clone.nodes and 1 not in clone.nodes
        assert list(clone.nodes) == list(clone.adj) == list(g.nodes)
        for a, entries in g.adj.items():
            assert clone.adj[a] is not entries
            for x, edge in entries.items():
                assert clone.adj[a][x] is edge
                assert clone.adj[x][a] is edge
        for i, node in g.nodes.items():
            assert clone.nodes[i] is not node
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
        g = SummaryGraph.from_edge_list(edges, retain_members=True)
        sets = {a: {a} for a in g.nodes}
        apply_picks(g, picks, sets)
        assert member_sets(g) == sets
        assert len(g.merge_log) == 3 * (g.original_vertex_count - g.alive_count)
        g.validate()

    @settings(max_examples=100, deadline=None)
    @given(merge_sequences(), st.lists(st.tuples(st.integers(0, 10 ** 6),
                                                 st.integers(0, 10 ** 6)),
                                       min_size=1, max_size=6),
           st.booleans())
    def test_copy_and_original_merge_independently(self, case, more, in_copy):
        edges, picks = case
        g = SummaryGraph.from_edge_list(edges, retain_members=True)
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
        g = SummaryGraph.from_edge_list([(1, 2), (2, 3), (3, 4)],
                                        retain_members=True)
        z = g.merge(1, 3)
        g.merge(z, 4)
        g.validate()
        if tamper == "relink":
            g.merge_log[1] = 2  # the first merge now takes 2 in place of 3
        elif tamper == "drop":
            del g.merge_log[3:]  # the second merge is forgotten
        else:
            g.merge_log.extend((2, g._next_id - 1, g._next_id))
        with pytest.raises(AssertionError, match="replayed membership"):
            g.validate()

    def test_retained_identity_memory(self):
        # the log and vertex arrays cost a few bytes per vertex, next to the
        # supernodes and adjacency maps the graph needs anyway
        edges = constant_degree_edges(2 ** 13, 6, random.Random(13))
        traced = {}
        for retain in (False, True):
            tracemalloc.start()
            try:
                g = SummaryGraph.from_edge_list(edges, retain_members=retain)
                traced[retain] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del g
        assert traced[True] <= 1.1 * traced[False]


class TestValidate:
    def test_fresh_unit_edge_breaks_mirror(self):
        g = p3()
        assert g.adj[1][2] is g.adj[2][3]
        g.adj[1][2] = SuperEdge(1)
        with pytest.raises(AssertionError, match="mirror broken for 1-2"):
            g.validate()

    def test_node_without_adjacency_entry(self):
        g = p3()
        g.nodes[9] = SuperNode()
        g.original_vertex_count += 1
        with pytest.raises(AssertionError, match="adjacency keys"):
            g.validate()
