import math

import numpy as np
import pytest

from chromabound import bounds, linalg
from chromabound.bounds import (
    BoundConfig,
    DegenerateGraphError,
    DisconnectedGraphError,
    WeightMatrix,
    barnes_bound,
    barnes_weight,
    chromatic_lower_bound,
    hoffman_bound,
    ones_weight,
    optimize_weight,
    tau_bound,
    weighted_adjacency,
    wilf_upper_bound,
)
from chromabound.exact import exact_chi
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
        m = weighted_adjacency(g, WeightMatrix(np.full((4, 4), 7.0)))
        mask = adjacency_matrix(g)
        assert np.array_equal(m.real != 0, mask != 0)

    def test_canonicalize_rejects_vanishing(self):
        g = complete(3)
        w = WeightMatrix(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateGraphError):
            weighted_adjacency(g, w)

    def test_equals_masked_product(self, corpus):
        """Bit for bit, dtype included, the Hermitian part of W * A."""
        for name, g in corpus:
            a = adjacency_matrix(g)
            for seed in range(20):
                w = WeightMatrix(linalg.random_hermitian(g.n, seed, complex_entries=seed % 2 == 1))
                m = weighted_adjacency(g, w)
                expected = linalg.hermitize(w.matrix * a)
                assert m.dtype == expected.dtype, (name, seed)
                assert np.array_equal(m, expected), (name, seed)

    def test_imaginary_part_off_edges_only_gives_real(self):
        g = cycle(5)
        w = np.full((5, 5), 2.0, dtype=complex)
        w[0, 2], w[2, 0] = 2.0 + 3.0j, 2.0 - 3.0j  # (0, 2) is not an edge of C5
        m = weighted_adjacency(g, WeightMatrix(w))
        assert not np.iscomplexobj(m)
        assert np.array_equal(m, 2.0 * adjacency_matrix(g))

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

    def test_empty_budget_runs_one_evaluation(self):
        """restarts < 1 and iterations < 1 still score one start: the ones baseline."""
        baseline = tau_bound(cycle(5), ones_weight(5)) - 1.0
        _w, tau = optimize_weight(cycle(5), restarts=0, iterations=0)
        assert tau == pytest.approx(baseline, abs=1e-12)

    @pytest.mark.parametrize("allow_complex", [False, True])
    @pytest.mark.parametrize("g", [complete(2), star(5), cycle(4), complete(5)], ids=["K2", "star5", "C4", "K5"])
    def test_ones_optimal_graphs_keep_baseline(self, g, allow_complex):
        """Where all-ones already gives tau + 1 = chi, the ascent neither fails nor drifts."""
        baseline = tau_bound(g, ones_weight(g.n)) - 1.0
        _w, tau = optimize_weight(g, restarts=3, iterations=60, seed=5, allow_complex=allow_complex)
        assert tau == pytest.approx(baseline, abs=1e-9)


def _ratio_at(g, z, mu):
    """The smoothed ratio at edge values z, and its gradient as the ascent computes it."""
    index = bounds._edge_index(g)
    lam, v = np.linalg.eigh(bounds._edge_matrix(g.n, index, z))
    ratio, c = bounds._smoothed_ratio(lam, mu)
    return ratio, bounds._edge_gradient(v, c, index)


class TestAscentGradient:
    @pytest.mark.parametrize("allow_complex", [False, True])
    def test_matches_central_differences(self, allow_complex):
        """The edge gradient is d/dRe z_uv + i d/dIm z_uv of the smoothed ratio."""
        g = petersen()
        rng = np.random.default_rng(3)
        z = rng.uniform(0.5, 1.5, g.num_edges)
        if allow_complex:
            z = z * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, g.num_edges))
        mu, h = 0.05, 1e-6
        _ratio, grad = _ratio_at(g, z, mu)
        assert np.iscomplexobj(grad) == allow_complex
        directions = (1.0, 1j) if allow_complex else (1.0,)
        for part, direction in zip((grad.real, grad.imag), directions):
            fd = np.empty(g.num_edges)
            for e in range(g.num_edges):
                dz = np.zeros(g.num_edges, dtype=z.dtype)
                dz[e] = h * direction
                fd[e] = (_ratio_at(g, z + dz, mu)[0] - _ratio_at(g, z - dz, mu)[0]) / (2 * h)
            assert np.max(np.abs(fd)) > 1e-3  # a vanishing part would test nothing
            assert part == pytest.approx(fd, abs=1e-7)


class TestAscentQuality:
    GATE = ("gnp11_s3", "gnp13_s5", "gnp14_s6", "gnp15_s7", "gnp16_s8")

    @pytest.fixture(scope="class")
    def chi(self, corpus):
        return {name: exact_chi(g).chi for name, g in corpus if g.num_edges}

    @pytest.mark.parametrize("allow_complex", [False, True])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_tight_where_theta_is_chi(self, corpus, chi, seed, allow_complex):
        """At the perfbench budget the ascent reaches chi on G(n, p) graphs whose theta(G-bar) is chi."""
        config = BoundConfig(restarts=2, iterations=60, seed=seed, allow_complex=allow_complex,
                             methods=("tau-opt",))
        for name, g in corpus:
            if name in self.GATE:
                assert chromatic_lower_bound(g, config, name).lower == chi[name], name

    @pytest.mark.parametrize("budget", [(2, 60), (8, 200)], ids=["perfbench", "default"])
    @pytest.mark.parametrize("allow_complex", [False, True])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sound_and_above_ones(self, corpus, chi, seed, allow_complex, budget):
        restarts, iterations = budget
        config = BoundConfig(restarts=restarts, iterations=iterations, seed=seed,
                             allow_complex=allow_complex, methods=("tau-ones", "tau-opt"))
        for name, g in corpus:
            if g.num_edges == 0:
                continue
            report = chromatic_lower_bound(g, config, name)
            assert report.tau_optimized <= chi[name] + 1e-9, name
            assert report.tau_optimized >= report.tau_ones - 1e-9, name


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

    def test_one_spectrum_per_report(self, monkeypatch):
        """Wilf, Hoffman, tau-ones and Barnes share one eigensolve of one A."""
        calls = {"spectrum": 0, "adjacency_matrix": 0, "is_connected": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(bounds.linalg, "spectrum")
        counted(bounds, "adjacency_matrix")
        counted(bounds, "is_connected")
        config = BoundConfig(methods=("wilf", "hoffman", "tau-ones", "barnes", "exact"))
        report = chromatic_lower_bound(petersen(), config, "petersen")
        assert calls == {"spectrum": 1, "adjacency_matrix": 1, "is_connected": 1}
        assert report.lower == report.exact_chi == 3

    def test_report_matches_public_functions(self, corpus):
        config = BoundConfig(methods=("wilf", "hoffman", "tau-ones", "barnes"))
        for name, g in corpus:
            report = chromatic_lower_bound(g, config, name)
            assert report.wilf == wilf_upper_bound(g), name
            if g.num_edges == 0:
                continue
            assert report.hoffman == hoffman_bound(g), name
            assert report.tau_ones == pytest.approx(tau_bound(g, ones_weight(g.n)), rel=1e-12), name
            if report.barnes is None:
                with pytest.raises(DisconnectedGraphError):
                    barnes_bound(g)
                continue
            value, d = barnes_bound(g)
            assert report.barnes == value, name
            assert report.certificates["barnesD"] == [linalg.fmt12(x) for x in d], name

    def test_all_bounds_below_wilf(self, corpus):
        config = BoundConfig(restarts=1, iterations=20)
        for name, g in corpus[:8]:
            report = chromatic_lower_bound(g, config, name)
            for b in report.lower_bounds():
                assert b <= report.wilf + 1e-6
