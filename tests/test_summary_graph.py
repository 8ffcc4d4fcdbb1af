import random

import pytest

from conftest import gnp_edges
from graphsumm import SummaryGraph, SuperNode


def p3():
    return SummaryGraph.from_edge_list([(1, 2), (2, 3)])


def k3():
    return SummaryGraph.from_edge_list([(1, 2), (2, 3), (1, 3)])


class TestFromEdgeList:
    def test_path_graph(self):
        g = p3()
        assert g.alive_count == 3
        assert g.original_edge_count == 2
        assert sorted(dict(g.neighbors(2)).items()) == [(1, 1), (3, 1)]
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
        cross = sum(e for a in g.alive_ids() for _, e in g.neighbors(a))
        assert 0 + cross // 2 == 3 == g.original_edge_count

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty graph"):
            SummaryGraph.from_edge_list([])

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            SummaryGraph.from_edge_list([(0, -1)])

    def test_members_retained_on_demand(self):
        g = SummaryGraph.from_edge_list([(1, 2)], retain_members=True)
        assert g.nodes[1].members == {1}
        assert p3().nodes[1].members is None


class TestMerge:
    def test_path_merge_adjacent(self):
        g = p3()
        held = g.nodes[1]
        z = g.merge(1, 2)
        assert not held.alive
        assert list(g.nodes) == list(g.adj) == [3, z]
        assert g.nodes[z].size_n == 2
        assert g.nodes[z].internal_e == 1
        assert dict(g.neighbors(z)) == {3: 1}
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
        assert g.nodes[z].members == {1, 3}

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
        assert sorted(dict(p3().neighbors(2))) == [1, 3]

    def test_after_twin_merge(self):
        g = p3()
        z = g.merge(1, 3)
        assert list(g.neighbors(2)) == [(z, 2)]

    def test_isolated_vertex_empty(self):
        # vertex 7 appears only in a dropped self-loop
        g = SummaryGraph.from_edge_list([(1, 2), (7, 7)])
        assert list(g.neighbors(7)) == []

    def test_dead_node_errors(self):
        g = p3()
        g.merge(1, 2)
        with pytest.raises(ValueError):
            g.neighbors(1)


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

    def test_copy_is_independent(self):
        rng = random.Random(3)
        g = SummaryGraph.from_edge_list(gnp_edges(12, 0.4, rng),
                                        retain_members=True)
        g.merge(0, 1)

        def snapshot(graph):
            nodes = sorted((i, node.size_n, node.internal_e, node.d_value,
                            sorted(node.members))
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
            assert clone.nodes[i].members is node.members
        while clone.alive_count > 1:
            a, b = sorted(clone.alive_ids())[:2]
            clone.merge(a, b)
            clone.validate()
        g.validate()
        assert snapshot(g) == before


class TestValidate:
    def test_node_without_adjacency_entry(self):
        g = p3()
        g.nodes[9] = SuperNode()
        g.original_vertex_count += 1
        with pytest.raises(AssertionError, match="adjacency keys"):
            g.validate()
