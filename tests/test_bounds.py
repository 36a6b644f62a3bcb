import math

import numpy as np
import pytest

from chromabound import linalg
from chromabound.bounds import (
    BoundConfig,
    DegenerateGraphError,
    DisconnectedGraphError,
    WeightMatrix,
    barnes_bound,
    barnes_weight,
    canonicalize,
    chromatic_lower_bound,
    hoffman_bound,
    ones_weight,
    optimize_weight,
    tau_bound,
    weighted_adjacency,
    wilf_upper_bound,
)
from chromabound.graphs import Graph, adjacency_matrix, complete, cycle, petersen, star

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


class TestHoffman:
    def test_k3(self):
        assert hoffman_bound(complete(3)) == pytest.approx(3.0, abs=1e-8)

    def test_petersen(self):
        assert hoffman_bound(petersen()) == pytest.approx(2.5, abs=1e-8)

    def test_c4(self):
        assert hoffman_bound(cycle(4)) == pytest.approx(2.0, abs=1e-8)

    def test_c5_golden_ratio(self):
        # C5 spectrum is 2cos(2 pi k / 5); lambda_1 / |lambda_5| = 1/phi^-1... = phi - 1 + ...
        expected = 2.0 / (2.0 * math.cos(math.pi / 5)) + 1.0
        assert hoffman_bound(cycle(5)) == pytest.approx(expected, abs=1e-8)
        assert expected == pytest.approx(1.0 + 2.0 / GOLDEN_RATIO, abs=1e-12)

    def test_edgeless_rejected(self):
        with pytest.raises(DegenerateGraphError):
            hoffman_bound(Graph(3))


class TestWilf:
    def test_k3(self):
        assert wilf_upper_bound(complete(3)) == pytest.approx(3.0, abs=1e-9)

    def test_edgeless(self):
        assert wilf_upper_bound(Graph(4)) == 1.0

    def test_c5(self):
        assert wilf_upper_bound(cycle(5)) == pytest.approx(3.0, abs=1e-9)


class TestWeights:
    def test_ones_recovers_adjacency(self):
        g = complete(2)
        assert np.array_equal(weighted_adjacency(g, ones_weight(2)), adjacency_matrix(g))

    def test_canonicalize_zeroes_off_edges(self):
        g = cycle(4)
        w = canonicalize(g, WeightMatrix(np.full((4, 4), 7.0)))
        mask = adjacency_matrix(g)
        assert np.array_equal(w.matrix.real != 0, mask != 0)

    def test_canonicalize_rejects_vanishing(self):
        g = complete(3)
        w = WeightMatrix(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateGraphError):
            canonicalize(g, w)

    def test_barnes_weight_identity_scalar(self):
        g = complete(2)
        w = barnes_weight([4.0, 4.0])
        assert np.allclose(weighted_adjacency(g, w), [[0, 0.25], [0.25, 0]])

    def test_barnes_weight_identity_random(self):
        g = petersen()
        a = adjacency_matrix(g)
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.uniform(0.5, 4.0, size=10)
            w = barnes_weight(d)
            inv_root = np.diag(1.0 / np.sqrt(d))
            expected = inv_root @ a @ inv_root
            assert np.linalg.norm(weighted_adjacency(g, w) - expected) <= 1e-12

    def test_barnes_weight_identity_is_ones(self):
        w = barnes_weight(np.ones(4))
        assert np.allclose(w.matrix, np.ones((4, 4)))

    def test_barnes_weight_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            barnes_weight([1.0, 0.0])


class TestTauBound:
    def test_k3_ones(self):
        assert tau_bound(complete(3), ones_weight(3)) == pytest.approx(3.0, abs=1e-8)

    def test_petersen_ones(self):
        assert tau_bound(petersen(), ones_weight(10)) == pytest.approx(2.5, abs=1e-8)

    def test_bipartite_ones_is_two(self):
        k33 = Graph(6, frozenset((i, 3 + j) for i in range(3) for j in range(3)))
        for g in (cycle(4), cycle(6), k33, star(7)):
            assert tau_bound(g, ones_weight(g.n)) == pytest.approx(2.0, abs=1e-8)

    def test_dominates_hoffman(self, corpus):
        for _name, g in corpus:
            if g.num_edges == 0:
                continue
            assert tau_bound(g, ones_weight(g.n)) >= hoffman_bound(g) - 1e-8

    def test_scale_invariant(self):
        g = petersen()
        base = tau_bound(g, ones_weight(10))
        for c in (0.01, 3.0, 250.0):
            scaled = WeightMatrix(np.full((10, 10), c))
            assert tau_bound(g, scaled) == pytest.approx(base, abs=1e-9)

    def test_vanishing_weight_rejected(self):
        with pytest.raises(DegenerateGraphError):
            tau_bound(complete(3), WeightMatrix(np.eye(3)))


class TestOptimizeWeight:
    def test_k3_reaches_provable_max(self):
        _w, tau = optimize_weight(complete(3), restarts=2, iterations=50, seed=0)
        assert tau >= 2.0 - 1e-9
        assert tau <= 2.0 + 1e-6  # soundness: tau + 1 <= chi = 3

    def test_bipartite_capped_at_one(self):
        _w, tau = optimize_weight(cycle(6), restarts=4, iterations=100, seed=1)
        assert 1.0 - 1e-9 <= tau <= 1.0 + 1e-6

    def test_never_below_ones_baseline(self):
        for seed in (0, 7, 42):
            g = cycle(5)
            baseline = tau_bound(g, ones_weight(5)) - 1.0
            _w, tau = optimize_weight(g, restarts=8, iterations=100, seed=seed)
            assert tau >= baseline - 1e-9

    def test_c5_baseline_value(self):
        baseline = 2.0 / (2.0 * math.cos(math.pi / 5))
        _w, tau = optimize_weight(cycle(5), restarts=8, iterations=200, seed=42)
        assert tau >= baseline - 1e-9
        assert tau >= 1.236

    def test_deterministic(self):
        g = petersen()
        w1, t1 = optimize_weight(g, restarts=3, iterations=60, seed=9)
        w2, t2 = optimize_weight(g, restarts=3, iterations=60, seed=9)
        assert t1 == t2
        assert np.array_equal(w1.matrix, w2.matrix)

    def test_complex_weights(self):
        _w, tau = optimize_weight(cycle(5), restarts=3, iterations=80, seed=2, allow_complex=True)
        assert tau >= 2.0 / (2.0 * math.cos(math.pi / 5)) - 1e-9
        assert tau <= 2.0 + 1e-6  # chi(C5) = 3

    def test_edgeless_rejected(self):
        with pytest.raises(DegenerateGraphError):
            optimize_weight(Graph(3))


class TestBarnes:
    def test_hoffman_diag_reproduces_hoffman(self, corpus):
        from chromabound.graphs import is_connected

        for _name, g in corpus:
            if g.num_edges == 0 or not is_connected(g):
                continue
            value, d = barnes_bound(g)
            assert value == pytest.approx(hoffman_bound(g), abs=1e-8)
            assert np.all(d > 0)
            assert linalg.min_eigenvalue(adjacency_matrix(g) + np.diag(d)) >= -1e-8

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            barnes_bound(Graph(4, frozenset({(0, 1), (2, 3)})))


class TestReport:
    def test_petersen_report(self):
        report = chromatic_lower_bound(petersen(), BoundConfig(restarts=2, iterations=50), "petersen")
        assert report.hoffman == pytest.approx(2.5, abs=1e-8)
        assert report.lower == 3
        assert report.exact_chi == 3
        assert report.wilf == pytest.approx(4.0, abs=1e-8)

    def test_k5_report(self):
        report = chromatic_lower_bound(complete(5), BoundConfig(restarts=2, iterations=50), "K5")
        assert report.hoffman == pytest.approx(5.0, abs=1e-8)
        assert report.exact_chi == 5
        assert report.lower == 5

    def test_c5_report(self):
        report = chromatic_lower_bound(cycle(5), BoundConfig(restarts=2, iterations=50), "C5")
        assert report.hoffman == pytest.approx(2.2360679, abs=1e-6)
        assert report.lower == 3
        assert report.exact_chi == 3

    def test_edgeless_report(self):
        report = chromatic_lower_bound(Graph(4), BoundConfig(), "empty")
        assert report.hoffman is None
        assert report.wilf == 1.0
        assert report.lower == 1
        assert any("edgeless" in note for note in report.notes)

    def test_document_field_order(self):
        doc = chromatic_lower_bound(complete(3), BoundConfig(restarts=1, iterations=20), "K3").to_document()
        assert list(doc) == [
            "graphId", "n", "m", "hoffman", "wilf", "tauOnes", "tauOptimized",
            "barnes", "exactChi", "lower", "seed", "notes", "certificates",
        ]

    def test_exact_limit_skips_oracle(self):
        report = chromatic_lower_bound(petersen(), BoundConfig(exact_limit=5, restarts=1, iterations=10))
        assert report.exact_chi is None
        assert any("exact limit" in note for note in report.notes)

    @pytest.mark.parametrize("allow_complex", [False, True])
    def test_certificate_round_trip(self, corpus, allow_complex):
        """W rebuilt from the 12-digit optimizedWeight entries gives tauOptimized back."""
        config = BoundConfig(restarts=2, iterations=60, seed=7, allow_complex=allow_complex,
                             methods=("tau-opt",))
        for name, g in corpus:
            if g.num_edges == 0:
                continue
            report = chromatic_lower_bound(g, config, name)
            entries = report.certificates["optimizedWeight"]
            assert [(u, v) for u, v, _re, _im in entries] == sorted(g.edges), name
            w = np.zeros((g.n, g.n), dtype=complex)
            for u, v, re, im in entries:
                w[u, v] = complex(re, im)
                w[v, u] = complex(re, -im)
            assert tau_bound(g, WeightMatrix(w)) == pytest.approx(report.tau_optimized, abs=1e-9), name

    def test_all_bounds_below_wilf(self, corpus):
        config = BoundConfig(restarts=1, iterations=20)
        for name, g in corpus[:8]:
            report = chromatic_lower_bound(g, config, name)
            for b in report.lower_bounds():
                assert b <= report.wilf + 1e-6
