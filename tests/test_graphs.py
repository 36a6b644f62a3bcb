import numpy as np
import pytest

from chromabound.graphs import (
    DimacsError,
    Graph,
    adjacency_matrix,
    complete,
    cycle,
    default_corpus,
    emit_dimacs,
    erdos_renyi,
    generate,
    is_connected,
    is_proper,
    kneser,
    mycielski,
    mycielski_tower,
    parse_dimacs,
    petersen,
    star,
)


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, frozenset({(0, 3)}))

    def test_edges_normalized(self):
        g = Graph(3, frozenset({(2, 0)}))
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)
        assert g.num_edges == 1


class TestParseDimacs:
    def test_triangle(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3")
        assert g.n == 3
        assert g.edges == complete(3).edges

    def test_duplicate_edges_collapse(self):
        g = parse_dimacs("p edge 2 1\ne 1 2\ne 2 1")
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsError, match="line 2.*self-loop"):
            parse_dimacs("p edge 2 1\ne 1 1")

    def test_missing_p_line(self):
        with pytest.raises(DimacsError, match="missing p line"):
            parse_dimacs("c nothing here")

    def test_vertex_out_of_range(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p edge 2 1\ne 1 3")

    def test_malformed_line(self):
        with pytest.raises(DimacsError, match="unrecognized"):
            parse_dimacs("p edge 2 1\nx 1 2")

    def test_comments_and_bytes(self):
        g = parse_dimacs(b"c a comment\np edge 2 1\ne 1 2\n")
        assert g.num_edges == 1

    def test_edge_count_mismatch_is_not_an_error(self):
        g = parse_dimacs("p edge 3 99\ne 1 2")
        assert g.num_edges == 1

    def test_round_trip(self):
        g = petersen()
        assert parse_dimacs(emit_dimacs(g)).edges == g.edges


class TestGenerators:
    def test_complete_edge_count(self):
        for n in range(1, 8):
            assert complete(n).num_edges == n * (n - 1) // 2

    def test_cycle_is_2_regular(self):
        g = cycle(5)
        assert g.num_edges == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_star(self):
        g = star(6)
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_petersen_is_kneser_5_2(self):
        g = petersen()
        assert g.n == 10
        assert g.num_edges == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_kneser_params(self):
        with pytest.raises(ValueError):
            kneser(4, 3)

    def test_mycielski_sizes(self):
        # n' = 2n + 1, m' = 3m + n
        base = cycle(5)
        g = mycielski(base)
        assert g.n == 11
        assert g.num_edges == 3 * 5 + 5

    def test_erdos_renyi_reproducible(self):
        a = erdos_renyi(12, 0.4, seed=9)
        b = erdos_renyi(12, 0.4, seed=9)
        c = erdos_renyi(12, 0.4, seed=10)
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_mycielski_tower(self):
        # level L: 3 * 2^L - 1 vertices, Mycielski's construction applied L times to K2
        assert mycielski_tower(2) == mycielski(mycielski(complete(2)))
        assert [mycielski_tower(level).n for level in (1, 2, 3)] == [5, 11, 23]
        with pytest.raises(ValueError):
            mycielski_tower(0)

    def test_generate_rejects_oversized_before_building(self):
        with pytest.raises(ValueError, match="at least 6143 vertices exceed the limit of 2048"):
            generate("mycielski", 40)

    def test_generate_dispatch(self):
        assert generate("complete", 3).num_edges == 3
        with pytest.raises(ValueError):
            generate("torus")


class TestQueries:
    def test_adjacency_k2(self):
        assert np.array_equal(adjacency_matrix(complete(2)), [[0, 1], [1, 0]])

    def test_adjacency_empty(self):
        assert np.array_equal(adjacency_matrix(Graph(3)), np.zeros((3, 3)))

    def test_adjacency_c4_circulant(self):
        a = adjacency_matrix(cycle(4))
        assert list(a[0]) == [0, 1, 0, 1]
        assert np.array_equal(a, a.T)

    def test_adjacency_symmetric_zero_diag(self, corpus):
        for _name, g in corpus:
            a = adjacency_matrix(g)
            assert np.array_equal(a, a.T)
            assert not a.diagonal().any()

    def test_is_proper(self):
        k3 = complete(3)
        assert is_proper(k3, (0, 1, 2))
        assert not is_proper(k3, (0, 1, 1))
        assert is_proper(Graph(4), (0, 0, 0, 0))
        with pytest.raises(ValueError):
            is_proper(k3, (0, 1))

    def test_is_connected(self):
        assert is_connected(complete(3))
        assert is_connected(Graph(1))
        two_edges = Graph(4, frozenset({(0, 1), (2, 3)}))
        assert not is_connected(two_edges)

    def test_corpus_round_trips(self, corpus):
        for _name, g in corpus:
            assert parse_dimacs(emit_dimacs(g)).edges == g.edges

    def test_corpus_is_deterministic(self):
        first = default_corpus()
        second = default_corpus()
        assert [n for n, _ in first] == [n for n, _ in second]
        assert all(a.edges == b.edges for (_, a), (_, b) in zip(first, second))
