import math

import pytest

from parikhgrid import grid as G
from parikhgrid import vectors as V
from parikhgrid.errors import CapacityExceeded, InvalidInput, LayoutUnsupported

from helpers import cliques_of_size


class TestBuildGrid:
    def test_counts_4_3(self):
        g = G.build_grid(4, 3)
        assert g.vertex_count == 15
        assert g.undirected_edge_count() == 30
        assert g.bow_count() == 30

    def test_counts_against_handshake_oracle(self):
        # recount edges and bows by brute force over vertex pairs
        for k, sigma in [(4, 3), (2, 4), (3, 2), (5, 1)]:
            g = G.build_grid(k, sigma)
            vs = g.vertices()
            edges = sum(1 for i, p in enumerate(vs) for q in vs[i + 1:]
                        if V.step(p, q) is not None)
            bows = sum(sum(1 for c in p if c) for p in vs)
            assert g.undirected_edge_count() == edges
            assert g.bow_count() == bows
            assert len(list(g.undirected_edges())) == edges

    def test_closed_form_counts_match_vertex_sums(self):
        for k in range(1, 7):
            for sigma in range(1, 7):
                g = G.build_grid(k, sigma)
                bows = sum(V.support_size(p) for p in g.vertices())
                assert g.bow_count() == bows
                assert g.undirected_edge_count() == bows * (sigma - 1) // 2

    def test_unary_alphabet(self):
        g = G.build_grid(5, 1)
        assert g.vertex_count == 1
        assert g.undirected_edge_count() == 0
        assert g.bow_count() == 1

    def test_order_one_complete_graph(self):
        for sigma in (2, 4, 6):
            g = G.build_grid(1, sigma)
            assert g.vertex_count == sigma
            assert g.undirected_edge_count() == sigma * (sigma - 1) // 2
            assert all(len(g.bows(p)) == 1 for p in g.vertices())

    def test_degree_formula_exhaustive(self):
        for k in range(1, 7):
            for sigma in range(1, 7):
                g = G.build_grid(k, sigma)
                for p in g.vertices():
                    assert g.degree(p) == len(g.neighbors(p))
                    assert g.degree(p) == V.support_size(p) * (sigma - 1)

    def test_contains(self):
        g = G.build_grid(2, 3)
        assert all(g.contains(p) for p in g.vertices())
        for p in [(1, 1), (2, 1, 0), (3, -1, 0), ()]:
            assert not g.contains(p)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInput):
            G.build_grid(0, 3)
        with pytest.raises(CapacityExceeded, match="2\\^63-1"):
            G.build_grid(10**6, 8)

    def test_large_grid_answers_local_questions(self):
        # C(39, 19) vertices: too many to list, none held by the grid
        g = G.build_grid(20, 20)
        p = (20,) + (0,) * 19
        assert g.neighbors(p) == {(19,) + (0,) * i + (1,) + (0,) * (18 - i)
                                  for i in range(19)}
        assert g.degree(p) == 19
        assert g.unrank(g.rank(p)) == p
        for listing in (g.vertices, lambda: next(g.arcs()),
                        lambda: next(g.undirected_edges()),
                        lambda: next(g.directed_edges()),
                        lambda: G.layout_2d(G.build_grid(4000, 3))):
            with pytest.raises(CapacityExceeded, match="vertex bound"):
                listing()


class TestDirectedEdges:
    def test_label_inverts_under_reversal(self):
        g = G.build_grid(3, 3)
        for p in g.vertices():
            for q in g.neighbors(p):
                lab = g.edge_label(p, q)
                rev = g.edge_label(q, p)
                assert (lab.out_letter, lab.in_letter) == (rev.in_letter,
                                                           rev.out_letter)

    def test_anti_parallel_pairs_and_bows(self):
        g = G.build_grid(2, 3)
        arcs = list(g.directed_edges())
        loops = [(p, q, lab) for p, q, lab in arcs if p == q]
        proper = [(p, q) for p, q, _ in arcs if p != q]
        assert len(loops) == g.bow_count()
        assert len(proper) == 2 * g.undirected_edge_count()
        assert all(lab.out_letter == lab.in_letter for _, _, lab in loops)
        # each anti-parallel partner present exactly once
        assert sorted(proper) == sorted((q, p) for p, q in proper)

    def test_arc_order_k2_s3(self):
        # by source rank, then leaving letter, then entering letter
        v = G.build_grid(2, 3).vertices()
        assert v == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
                     (0, 0, 2)]
        want = [
            (0, 0, "aa"), (0, 1, "ab"), (0, 3, "ac"),
            (1, 1, "aa"), (1, 2, "ab"), (1, 4, "ac"),
            (1, 0, "ba"), (1, 1, "bb"), (1, 3, "bc"),
            (2, 1, "ba"), (2, 2, "bb"), (2, 4, "bc"),
            (3, 3, "aa"), (3, 4, "ab"), (3, 5, "ac"),
            (3, 0, "ca"), (3, 1, "cb"), (3, 3, "cc"),
            (4, 3, "ba"), (4, 4, "bb"), (4, 5, "bc"),
            (4, 1, "ca"), (4, 2, "cb"), (4, 4, "cc"),
            (5, 3, "ca"), (5, 4, "cb"), (5, 5, "cc"),
        ]
        assert list(G.build_grid(2, 3).directed_edges()) == [
            (v[i], v[j], G.EdgeLabel(lab[0], lab[1])) for i, j, lab in want]

    def test_bow_requires_positive_coordinate(self):
        g = G.build_grid(3, 3)
        letters = [lab.out_letter for lab in g.bows((3, 0, 0))]
        assert letters == ["a"]


class TestCliqueClassification:
    def test_common_parent_example(self):
        got = G.classify_clique({(2, 2, 0), (2, 1, 1), (1, 2, 1)})
        assert got.kind == G.COMMON_PARENT and got.common_parent == (2, 2, 1)

    def test_common_child_example(self):
        got = G.classify_clique({(2, 2, 0), (1, 3, 0), (1, 2, 1)})
        assert got.kind == G.COMMON_CHILD and got.common_child == (1, 2, 0)

    def test_binary_pair_is_both(self):
        for k in (2, 5):
            got = G.classify_clique({(k, 0), (k - 1, 1)})
            assert got.kind == G.BOTH

    def test_singleton_kind(self):
        assert G.classify_clique({(1, 2, 0)}).kind == G.SINGLETON

    def test_non_clique(self):
        assert G.classify_clique({(3, 0, 0), (0, 3, 0)}).kind == G.NOT_A_CLIQUE

    def test_mixed_orders_rejected(self):
        with pytest.raises(InvalidInput):
            G.classify_clique({(1, 2, 0), (1, 1, 0)})

    def test_negative_counts_rejected(self):
        # pairwise one shift apart, yet (1, -1) is no Parikh vector
        with pytest.raises(InvalidInput, match="negative count"):
            G.classify_clique([(1, -1), (0, 0)])

    def test_exhaustive_sigma_cliques(self):
        # every sigma-sized clique shares exactly one of child/parent
        # (both for sigma = 2), for all k, sigma <= 5
        for sigma in range(2, 6):
            for k in range(1, 6):
                g = G.build_grid(k, sigma)
                for clique in cliques_of_size(g.vertices(), sigma):
                    got = G.classify_clique(clique)
                    if sigma == 2:
                        assert got.kind == G.BOTH
                    else:
                        assert got.kind in (G.COMMON_CHILD, G.COMMON_PARENT)

    def test_converse_simplices_are_cliques(self):
        for k, sigma in [(3, 3), (4, 3), (2, 4), (3, 5)]:
            g = G.build_grid(k, sigma)
            for r in V.enumerate_pv(k + 1, sigma):
                got = G.classify_clique(g.simplex_of_parent(r))
                assert got.kind != G.NOT_A_CLIQUE
            for q in V.enumerate_pv(k - 1, sigma):
                got = G.classify_clique(g.simplex_of_child(q))
                assert got.kind != G.NOT_A_CLIQUE


class TestSimplices:
    def test_parent_simplex_example(self):
        g = G.build_grid(4, 3)
        assert g.simplex_of_parent((2, 2, 1)) == {(1, 2, 1), (2, 1, 1),
                                                  (2, 2, 0)}

    def test_corner_parent_is_one_clique(self):
        g = G.build_grid(4, 3)
        assert g.simplex_of_parent((5, 0, 0)) == {(4, 0, 0)}

    def test_child_simplex_of_zero(self):
        g = G.build_grid(1, 3)
        assert g.simplex_of_child((0, 0, 0)) == {(1, 0, 0), (0, 1, 0),
                                                 (0, 0, 1)}

    def test_wrong_order_rejected(self):
        g = G.build_grid(4, 3)
        with pytest.raises(InvalidInput):
            g.simplex_of_parent((2, 2, 0))
        with pytest.raises(InvalidInput):
            g.simplex_of_child((2, 2, 0))
        # the right order, but a negative count
        with pytest.raises(InvalidInput):
            g.simplex_of_parent((-1, 5, 1))
        with pytest.raises(InvalidInput):
            g.simplex_of_child((-1, 4, 0))

    def test_simplex_bijections(self):
        # distinct +/-1-order vectors map to distinct cliques
        for k, sigma in [(3, 3), (2, 4)]:
            g = G.build_grid(k, sigma)
            ups = [frozenset(g.simplex_of_parent(r))
                   for r in V.enumerate_pv(k + 1, sigma)]
            downs = [frozenset(g.simplex_of_child(q))
                     for q in V.enumerate_pv(k - 1, sigma)]
            assert len(set(ups)) == len(ups)
            assert len(set(downs)) == len(downs)


class TestLayout:
    def test_corners(self):
        g = G.build_grid(4, 3)
        pos = G.layout_2d(g)
        assert pos[(4, 0, 0)] == (0.0, 0.0)
        assert pos[(0, 4, 0)] == (4.0, 0.0)

    def test_distinct_positions_unit_neighbor_distance(self):
        g = G.build_grid(4, 3)
        pos = G.layout_2d(g)
        assert len(set(pos.values())) == g.vertex_count
        for p, q in g.undirected_edges():
            (x1, y1), (x2, y2) = pos[p], pos[q]
            assert math.isclose(math.hypot(x1 - x2, y1 - y2), 1.0)

    def test_wrong_sigma_rejected(self):
        with pytest.raises(LayoutUnsupported):
            G.layout_2d(G.build_grid(2, 4))
