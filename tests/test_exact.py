from itertools import product

import pytest

from chromabound.exact import exact_chi, greedy_clique, greedy_dsatur
from chromabound.graphs import Graph, complete, cycle, erdos_renyi, is_proper, mycielski, petersen


def brute_force_chi(g):
    """Independent oracle: enumerate all colorings with k colors, k = 1..n."""
    for k in range(1, g.n + 1):
        for assignment in product(range(k), repeat=g.n):
            if is_proper(g, assignment):
                return k
    raise AssertionError("unreachable")


class TestDsatur:
    def test_k4(self):
        assert greedy_dsatur(complete(4)).num_colors == 4

    def test_edgeless(self):
        assert greedy_dsatur(Graph(5)).num_colors == 1

    def test_c5(self):
        coloring = greedy_dsatur(cycle(5))
        assert coloring.num_colors == 3
        assert is_proper(cycle(5), coloring.colors)

    def test_always_proper(self):
        for seed in range(10):
            g = erdos_renyi(10, 0.5, seed)
            coloring = greedy_dsatur(g)
            assert is_proper(g, coloring.colors)

    def test_deterministic(self):
        g = erdos_renyi(12, 0.4, 3)
        assert greedy_dsatur(g).colors == greedy_dsatur(g).colors


class TestGreedyClique:
    def test_complete(self):
        assert len(greedy_clique(complete(6))) == 6

    def test_cycle(self):
        assert len(greedy_clique(cycle(6))) == 2


class TestExactChi:
    def test_petersen(self):
        result = exact_chi(petersen())
        assert result.chi == 3
        assert not result.timed_out
        assert is_proper(petersen(), result.witness.colors)
        assert result.witness.num_colors == 3

    def test_k5(self):
        assert exact_chi(complete(5)).chi == 5

    def test_cycles(self):
        for k in range(2, 6):
            assert exact_chi(cycle(2 * k)).chi == 2
            assert exact_chi(cycle(2 * k + 1)).chi == 3

    def test_long_odd_cycle(self):
        # the search goes one level deeper per colored vertex: 1201 levels here
        result = exact_chi(cycle(1201))
        assert (result.chi, result.timed_out) == (3, False)
        assert is_proper(cycle(1201), result.witness.colors)

    def test_completes(self):
        for n in range(1, 8):
            assert exact_chi(complete(n)).chi == n

    def test_edgeless(self):
        result = exact_chi(Graph(4))
        assert result.chi == 1

    def test_matches_brute_force(self):
        for seed in range(8):
            g = erdos_renyi(7, 0.5, 200 + seed)
            assert exact_chi(g).chi == brute_force_chi(g)

    def test_mycielski_increments_chi(self):
        g = complete(2)
        expected = 2
        for _ in range(3):  # up to n = 23
            g = mycielski(g)
            expected += 1
            result = exact_chi(g)
            assert not result.timed_out
            assert result.chi == expected

    def test_budget_exhaustion(self):
        g = mycielski(mycielski(complete(2)))  # needs search beyond the clique bound
        result = exact_chi(g, budget=10)
        assert result.timed_out
        assert is_proper(g, result.witness.colors)

    def test_witness_uses_exactly_chi_colors(self, corpus):
        for _name, g in corpus:
            if g.n > 16:
                continue
            result = exact_chi(g)
            assert not result.timed_out
            colors = result.witness.colors
            assert is_proper(g, colors)
            assert max(colors) + 1 == result.chi

    def test_deterministic(self):
        g = erdos_renyi(12, 0.5, 4)
        r1 = exact_chi(g)
        r2 = exact_chi(g)
        assert r1.chi == r2.chi
        assert r1.witness.colors == r2.witness.colors
        assert r1.nodes_explored == r2.nodes_explored


@pytest.mark.parametrize("n", [4, 5, 6])
def test_wheel_graphs(n):
    # wheel on n+1 vertices: chi is 3 for even rim, 4 for odd rim
    rim = cycle(n)
    edges = set(rim.edges) | {(i, n) for i in range(n)}
    g = Graph(n + 1, frozenset(edges))
    assert exact_chi(g).chi == (3 if n % 2 == 0 else 4)
