import math
import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound import bounds, exact, graphs, linalg
from chromabound.bounds import (
    BoundConfig,
    DegenerateGraphError,
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
from chromabound.graphs import Graph, adjacency_matrix, complete, cycle, mycielski_tower, petersen, star
from chromabound.majorization import minimal_tau

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def _count_solves(monkeypatch):
    """Patch linalg.eigensolve to record the shape of every solve, under "eigvalsh" for
    eigenvalues alone and "eigh" for eigenvalues and eigenvectors."""
    solves = {"eigvalsh": [], "eigh": []}
    inner = linalg.eigensolve

    def counted(m, vectors=False):
        solves["eigh" if vectors else "eigvalsh"].append(m.shape)
        return inner(m, vectors)

    monkeypatch.setattr(linalg, "eigensolve", counted)
    return solves


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
        assert np.array_equal(weighted_adjacency(g, ones_weight(g)), adjacency_matrix(g))

    def test_canonicalize_zeroes_off_edges(self):
        g = cycle(4)
        m = weighted_adjacency(g, np.full((4, 4), 7.0)[g.us, g.vs])
        mask = adjacency_matrix(g)
        assert np.array_equal(m.real != 0, mask != 0)

    def test_canonicalize_rejects_vanishing(self):
        g = complete(3)
        with pytest.raises(DegenerateGraphError):
            weighted_adjacency(g, np.diag([1.0, 2.0, 3.0])[g.us, g.vs])

    def test_equals_masked_product(self, corpus):
        """Bit for bit, dtype included, the paper's M = W * A: the Hermitian part of the
        entrywise product of a dense Hermitian W with A."""
        for name, g in corpus:
            a = adjacency_matrix(g)
            for seed in range(20):
                w = linalg.random_hermitian(g.n, seed, complex_entries=seed % 2 == 1)
                m = weighted_adjacency(g, w[g.us, g.vs])
                expected = linalg.hermitize(w * a)
                assert m.dtype == expected.dtype, (name, seed)
                assert np.array_equal(m, expected), (name, seed)

    def test_imaginary_part_off_edges_only_gives_real(self):
        g = cycle(5)
        w = np.full((5, 5), 2.0, dtype=complex)
        w[0, 2], w[2, 0] = 2.0 + 3.0j, 2.0 - 3.0j  # (0, 2) is not an edge of C5
        m = weighted_adjacency(g, w[g.us, g.vs])
        assert not np.iscomplexobj(m)
        assert np.array_equal(m, 2.0 * adjacency_matrix(g))

    @pytest.mark.parametrize(
        "z, match",
        [(np.ones(4), "shape"), (np.ones((1, 5)), "shape"), (np.ones((5, 5)), "shape"),
         (np.array([1.0, 1.0, np.nan, 1.0, 1.0]), "finite"), (np.array([1.0, np.inf, 1, 1, 1j]), "finite"),
         (np.array(["1"] * 5), "finite")],
        ids=["short", "row", "dense", "nan", "inf", "strings"],
    )
    def test_rejects_malformed_weighting(self, z, match):
        g = cycle(5)
        for f in (weighted_adjacency, tau_bound):
            with pytest.raises(ValueError, match=match):
                f(g, z)

    def test_weighting_dtypes(self):
        """Real input is solved as float64, complex as complex128, and complex input whose
        imaginary part is zero as real."""
        g = cycle(5)
        ones = np.ones(g.num_edges)
        for z, dtype in [(ones.astype(int), float), (ones.astype(np.float32), float),
                         (ones.astype(complex), float), (ones.astype(np.complex64) * 1j, complex)]:
            m = weighted_adjacency(g, z)
            assert m.dtype == dtype, z.dtype
            assert np.array_equal(np.abs(m), adjacency_matrix(g))
        assert tau_bound(g, ones.astype(complex)) == tau_bound(g, ones)

    def test_barnes_weight_identity_scalar(self):
        g = complete(2)
        w = barnes_weight(g, [4.0, 4.0])
        assert np.allclose(weighted_adjacency(g, w), [[0, 0.25], [0.25, 0]])

    def test_barnes_weight_identity_random(self):
        g = petersen()
        a = adjacency_matrix(g)
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.uniform(0.5, 4.0, size=10)
            w = barnes_weight(g, d)
            inv_root = 1.0 / np.sqrt(d)
            assert np.array_equal(w, linalg.hermitize(np.outer(inv_root, inv_root))[g.us, g.vs])
            expected = np.diag(inv_root) @ a @ np.diag(inv_root)
            assert np.linalg.norm(weighted_adjacency(g, w) - expected) <= 1e-12

    def test_barnes_weight_identity_is_ones(self):
        g = complete(4)
        assert np.array_equal(barnes_weight(g, np.ones(4)), ones_weight(g))

    def test_barnes_weight_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            barnes_weight(complete(2), [1.0, 0.0])

    @pytest.mark.parametrize("d", [[1.0, -2.0], [1.0, np.inf], [1.0, np.nan], [1.0], [[1.0, 1.0]]])
    def test_barnes_weight_rejects_malformed_diagonal(self, d):
        with pytest.raises(ValueError):
            barnes_weight(complete(2), d)


class TestTauBound:
    def test_k3_ones(self):
        g = complete(3)
        assert tau_bound(g, ones_weight(g)) == pytest.approx(3.0, abs=1e-8)

    def test_petersen_ones(self):
        g = petersen()
        assert tau_bound(g, ones_weight(g)) == pytest.approx(2.5, abs=1e-8)

    def test_bipartite_ones_is_two(self):
        k33 = Graph(6, frozenset((i, 3 + j) for i in range(3) for j in range(3)))
        for g in (cycle(4), cycle(6), k33, star(7)):
            assert tau_bound(g, ones_weight(g)) == pytest.approx(2.0, abs=1e-8)

    def test_dominates_hoffman(self, corpus):
        for _name, g in corpus:
            if g.num_edges == 0:
                continue
            assert tau_bound(g, ones_weight(g)) >= hoffman_bound(g) - 1e-8

    def test_scale_invariant(self):
        g = petersen()
        base = tau_bound(g, ones_weight(g))
        for c in (0.01, 3.0, 250.0):
            assert tau_bound(g, np.full(g.num_edges, c)) == pytest.approx(base, abs=1e-9)

    def test_vanishing_weight_rejected(self):
        g = complete(3)
        with pytest.raises(DegenerateGraphError):
            tau_bound(g, np.eye(3)[g.us, g.vs])

    def test_edgeless_rejected(self):
        g = Graph(3)
        with pytest.raises(DegenerateGraphError, match="no edges"):
            tau_bound(g, ones_weight(g))


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
            baseline = tau_bound(g, ones_weight(cycle(5))) - 1.0
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
        assert np.array_equal(w1, w2)

    def test_complex_weights(self):
        _w, tau = optimize_weight(cycle(5), restarts=3, iterations=80, seed=2, allow_complex=True)
        assert tau >= 2.0 / (2.0 * math.cos(math.pi / 5)) - 1e-9
        assert tau <= 2.0 + 1e-6  # chi(C5) = 3

    def test_edgeless_rejected(self):
        with pytest.raises(DegenerateGraphError):
            optimize_weight(Graph(3))

    def test_refuses_what_bound_config_refuses(self):
        """Out-of-range and non-integer counts raise BoundConfig's ValueError, as they do for a
        report."""
        g = mycielski_tower(3)
        for name, value, least in (("restarts", 0, 1), ("restarts", -3, 1), ("restarts", 2.5, 1),
                                   ("iterations", 0, 1), ("iterations", 2.5, 1), ("seed", -1, 0)):
            message = f"{name}: expected an integer >= {least}, got {value!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                optimize_weight(g, **{name: value})

    def test_incumbent_reuses_restart_zero_start(self, monkeypatch):
        """The all-ones incumbent is restart 0's start, and the winner's tau is its score: one
        eigvalsh in all."""
        calls = _count_solves(monkeypatch)["eigvalsh"]
        baseline = tau_bound(petersen(), ones_weight(petersen())) - 1.0
        calls.clear()
        _w, tau = optimize_weight(petersen(), restarts=1, iterations=1)
        assert len(calls) == 1
        assert tau == pytest.approx(baseline, abs=1e-12)

    @pytest.mark.parametrize("allow_complex", [False, True])
    @pytest.mark.parametrize("g", [complete(2), star(5), cycle(4), complete(5)], ids=["K2", "star5", "C4", "K5"])
    def test_ones_optimal_graphs_keep_baseline(self, g, allow_complex):
        """Where all-ones already gives tau + 1 = chi, the ascent neither fails nor drifts."""
        baseline = tau_bound(g, ones_weight(g)) - 1.0
        _w, tau = optimize_weight(g, restarts=3, iterations=60, seed=5, allow_complex=allow_complex)
        assert tau == pytest.approx(baseline, abs=1e-9)


K34 = Graph(7, frozenset((i, 3 + j) for i in range(3) for j in range(4)))
ONES_TIGHT = {
    **{f"K{n}": complete(n) for n in range(2, 9)},
    **{f"C{n}": cycle(n) for n in (4, 6, 8, 10, 12)},
    "star5": star(5), "star9": star(9), "K34": K34,
}


class TestOnesTightSkip:
    """Where tau-ones + 1 equals greedy DSATUR's color count q, no weighting can beat
    all-ones (tau_W + 1 <= chi <= q), so optimize_weight returns it without an ascent."""

    @pytest.fixture
    def solves(self, monkeypatch):
        return _count_solves(monkeypatch)

    @pytest.mark.parametrize("allow_complex", [False, True])
    @pytest.mark.parametrize("name", sorted(ONES_TIGHT))
    def test_fires_on_tight_graphs(self, name, allow_complex, solves):
        g = ONES_TIGHT[name]
        baseline = tau_bound(g, ones_weight(g)) - 1.0
        solves["eigvalsh"].clear()
        w, tau = optimize_weight(g, restarts=2, iterations=60, seed=7, allow_complex=allow_complex)
        assert solves["eigh"] == []
        assert solves["eigvalsh"] == [(g.n, g.n)]  # the all-ones start, whose tau is returned
        assert tau == pytest.approx(baseline, abs=1e-12)
        assert w == pytest.approx(np.full(g.num_edges, 1.0 / math.sqrt(2 * g.num_edges)), rel=1e-15)

    @pytest.mark.parametrize("allow_complex", [False, True])
    def test_greedy_never_runs_where_ones_is_not_integral(self, corpus, allow_complex, solves, monkeypatch):
        greedy_calls = []
        monkeypatch.setattr(bounds, "greedy_dsatur", lambda g: greedy_calls.append(g))
        graphs = dict(corpus)
        for name in ["C5", "petersen"] + [name for name in graphs if name.startswith("gnp")]:
            solves["eigh"].clear()
            optimize_weight(graphs[name], restarts=2, iterations=60, seed=7, allow_complex=allow_complex)
            assert solves["eigh"], name  # the ascent ran
        assert greedy_calls == []

    def test_integral_ones_needs_a_matching_coloring(self, solves):
        """tau-ones + 1 is 3 on this 8-vertex graph, but chi = 4: the integer test alone
        would stop an ascent that still has room."""
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (2, 6),
                 (3, 5), (3, 7), (4, 6), (4, 7), (6, 7)]
        g = Graph(8, frozenset(edges))
        assert bounds._near_integer(tau_bound(g, ones_weight(g))) == 3
        assert exact_chi(g).chi == 4
        optimize_weight(g, restarts=1, iterations=5)
        assert solves["eigh"]  # the ascent ran

    @pytest.mark.parametrize(
        "value, q",
        [(1000 - 2e-9, 1000), (2048 - 1.6e-8, 2048), (2 - 3.5e-13, 2), (3.0, 3),
         (2.0000012, None), (2.5, None), (1 + 2 / (2 * math.cos(math.pi / 5)), None)],
        ids=["K1000", "K2048", "C2048", "exact", "C2047", "petersen", "C5"],
    )
    def test_integer_test_is_relative(self, value, q):
        assert bounds._near_integer(value) == q


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), min_size=1, unique=True))
    return Graph(n, frozenset(edges))


def _tight_skip(g):
    """optimize_weight's skip predicate, recomputed: the integer q that all-ones tau + 1 is
    within TIGHT_RTOL * q of, if greedy DSATUR colors g with at most q colors; else None."""
    q = bounds._near_integer(tau_bound(g, ones_weight(g)))
    return q if q is not None and exact.greedy_dsatur(g).num_colors <= q else None


@given(_small_graphs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_skip_fires_only_where_chi_is_q(g):
    q = _tight_skip(g)
    if q is not None:
        assert exact_chi(g).chi == q
        _w, tau = optimize_weight(g, restarts=1, iterations=1)
        assert round(tau + 1.0) == q


def _ratio_at(g, z, mu):
    """The smoothed ratio at edge values z, and its gradient as the ascent computes it."""
    edges = bounds._EdgeMatrices(g)
    lam, v = np.linalg.eigh(edges.matrix(z))
    ratio, terms = bounds._smoothed_ratio(lam, mu, bounds._smoothing_buffer(g.n))
    c = bounds._ratio_derivatives(ratio, terms)
    return ratio, bounds._edge_gradient(v, c, edges.upper)


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


# Reference ascent step, which bounds._ascend must match bit for bit: a fresh matrix per
# candidate, c formed for every candidate, the full product indexed in 2-D, and a gradient
# solved after every accept, even one no step can follow.
def _edge_matrix_ref(n, index, z):
    us, vs = index
    m = np.zeros((n, n), dtype=np.result_type(z, float))
    m[us, vs] = z
    m[vs, us] = np.conj(z)
    return m


def _smoothed_ratio_ref(lam, mu):
    top_w = np.exp((lam - lam[-1]) / mu)
    bot_w = np.exp((lam[0] - lam) / mu)
    top = lam[-1] + mu * math.log(top_w.sum())
    bot = lam[0] - mu * math.log(bot_w.sum())
    ratio = top / -bot
    return ratio, (top_w / top_w.sum() + ratio * bot_w / bot_w.sum()) / -bot


def _evaluate_ref(n, index, z):
    z = z / (np.linalg.norm(z) * math.sqrt(2.0))
    m = _edge_matrix_ref(n, index, z)
    return z, m, np.linalg.eigvalsh(m)


def _ascend_ref(n, index, start, budget, stationary_stop=True):
    """With stationary_stop, a restart whose first gradient has a tangent part of at most
    1e-8 of its norm, or a norm of at most n * eps * sum_k |c_k| (the rounding level of its
    entries), returns its start; without it, the ascent goes on, as it did before those
    rules. The thresholds are written here, not read from bounds, so that the test pins
    them."""
    us, vs = index
    step, mu, ratio = bounds.STEP, bounds.MU, -math.inf
    cand, m, cand_lam = start
    solves = 1
    while True:
        cand_ratio, c = _smoothed_ratio_ref(cand_lam, mu)
        if cand_ratio > ratio:
            z, lam, ratio = cand, cand_lam, cand_ratio
            if solves == budget:
                break
            v = np.linalg.eigh(m)[1]
            grad = 2.0 * ((v * c) @ v.conj().T)[us, vs]
            solves += 1
            norm = np.linalg.norm(grad)
            tangent = np.linalg.norm(grad - (np.vdot(z, grad).real / np.vdot(z, z).real) * z)
            rounding = n * np.finfo(float).eps * np.abs(c).sum()
            if stationary_stop and solves == 2 and (tangent <= 1e-8 * norm or norm <= rounding):
                break
            step *= 1.5
        else:
            step /= 2.0
            if mu > bounds.MIN_MU:
                mu = max(mu / 2.0, bounds.MIN_MU)
                ratio = _smoothed_ratio_ref(lam, mu)[0]
        if solves >= budget or step < bounds.MIN_STEP:
            break
        cand, m, cand_lam = _evaluate_ref(n, index, z + (step / norm) * grad)
        solves += 1
    return z, lam


def _restart_starts(g, restarts, seed, allow_complex):
    """The start edge values of optimize_weight's restarts."""
    yield np.ones(g.num_edges)
    for r_idx in range(1, restarts):
        rng = random.Random(seed + r_idx)
        z = np.array([rng.uniform(0.5, 1.5) for _ in range(g.num_edges)])
        if allow_complex:
            z = z * np.exp(1j * np.array([rng.uniform(0.0, 2.0 * math.pi) for _ in range(g.num_edges)]))
        yield z


class TestAscentMatchesReference:
    @pytest.mark.parametrize("allow_complex", [False, True])
    def test_bit_identical_on_corpus(self, corpus, allow_complex):
        """The buffered, trimmed step does the reference's floating-point operations: every
        restart returns the same z and spectrum, bit for bit, on the same LAPACK."""
        checked = 0
        for name, g in corpus:
            if g.num_edges == 0 or _tight_skip(g) is not None:
                continue  # the ascent never runs
            index = g.us, g.vs
            edges = bounds._EdgeMatrices(g)
            for z0 in _restart_starts(g, 2, 7, allow_complex):
                start, start_ref = edges.evaluate(z0), _evaluate_ref(g.n, index, z0)
                for got, want in zip(start, start_ref):
                    assert np.array_equal(got, want), name
                z, lam = bounds._ascend(edges, start, 60)
                z_ref, lam_ref = _ascend_ref(g.n, index, start_ref, 60)
                assert z.dtype == z_ref.dtype and np.array_equal(z, z_ref), name
                assert np.array_equal(lam, lam_ref), name
            checked += 1
        assert checked == 18

    @pytest.mark.parametrize("name", ["C5", "C7", "petersen"])
    def test_stationary_start_returns_it(self, corpus, name, monkeypatch):
        """At the all-ones start of an edge-transitive graph the gradient is radial, so restart
        0 stops after the start's eigvalsh and one eigh and returns the start itself. Restart
        1 and optimize_weight's result are those of the ascent without the stop."""
        g = dict(corpus)[name]
        index = g.us, g.vs
        edges = bounds._EdgeMatrices(g)
        start = edges.evaluate(np.ones(g.num_edges))
        solves = _count_solves(monkeypatch)
        z, lam = bounds._ascend(edges, start, 60)
        assert solves == {"eigvalsh": [], "eigh": [(g.n, g.n)]}
        assert z is start[0] and lam is start[2]

        # the search without the stop, scored as optimize_weight scores it
        best_z, best_tau = start[0], minimal_tau(start[2])
        for r_idx, z0 in enumerate(_restart_starts(g, 2, 7, False)):
            z_ref, lam_ref = _ascend_ref(g.n, index, _evaluate_ref(g.n, index, z0), 60, stationary_stop=False)
            if r_idx > 0:
                z, lam = bounds._ascend(edges, edges.evaluate(z0), 60)
                assert np.array_equal(z, z_ref) and np.array_equal(lam, lam_ref)
            if minimal_tau(lam_ref) > best_tau + 1e-15:
                best_z, best_tau = z_ref, minimal_tau(lam_ref)
        z, tau = optimize_weight(g, restarts=2, iterations=60, seed=7)
        assert tau == best_tau
        assert np.array_equal(z, best_z)

    @pytest.mark.parametrize("allow_complex", [False, True])
    def test_rounding_gradient_returns_start(self, allow_complex, monkeypatch):
        """On C101 the first gradient is rounding noise, at the all-ones start and at a random
        one, so restarts 0 and 1 each stop after the start's eigvalsh and one eigh, return
        their start and match the reference ascent with the same rule."""
        g = cycle(101)
        index = g.us, g.vs
        edges = bounds._EdgeMatrices(g)
        for z0 in _restart_starts(g, 2, 7, allow_complex):
            start = edges.evaluate(z0)
            solves = _count_solves(monkeypatch)
            z, lam = bounds._ascend(edges, start, 60)
            assert solves == {"eigvalsh": [], "eigh": [(g.n, g.n)]}
            assert z is start[0] and lam is start[2]
            z_ref, lam_ref = _ascend_ref(g.n, index, _evaluate_ref(g.n, index, z0), 60)
            assert np.array_equal(z, z_ref) and np.array_equal(lam, lam_ref)

    @pytest.mark.parametrize("name", ["gnp11_s3", "mycielski2"])
    def test_non_stationary_start_ascends(self, corpus, name, monkeypatch):
        """At the all-ones start of a graph that is not edge-transitive the gradient has a
        tangent part, so restart 0 steps away from the start."""
        g = dict(corpus)[name]
        edges = bounds._EdgeMatrices(g)
        start = edges.evaluate(np.ones(g.num_edges))
        solves = _count_solves(monkeypatch)
        z, _lam = bounds._ascend(edges, start, 60)
        assert len(solves["eigvalsh"]) + len(solves["eigh"]) > 2
        assert not np.array_equal(z, start[0])


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
        for _name, g in corpus:
            if g.num_edges == 0:
                continue
            value, d = barnes_bound(g)
            assert value == pytest.approx(hoffman_bound(g), abs=1e-8)
            assert np.all(d > 0)
            assert linalg.spectrum(adjacency_matrix(g) + np.diag(d))[-1] >= -1e-8

    def test_disconnected_equals_hoffman(self):
        """Two disjoint edges: spec(A) = {1, 1, -1, -1}, so D = I and Barnes = Hoffman = 2."""
        g = Graph(4, frozenset({(0, 1), (2, 3)}))
        value, d = barnes_bound(g)
        assert value == hoffman_bound(g) == pytest.approx(2.0, abs=1e-12)
        assert d == pytest.approx(np.ones(4), abs=1e-12)
        report = chromatic_lower_bound(g, BoundConfig(methods=("hoffman", "barnes")), "2K2")
        assert report.barnes == report.hoffman and report.notes == []
        assert report.certificates["barnesD"] == [linalg.fmt12(x) for x in d]


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

    @pytest.mark.parametrize(
        "bound, lower",
        [(2 + 7.9e-7, 3), (2 + 1.18e-6, 3), (3 + 1e-13, 3), (2048 - 1.6e-8, 2048), (3.0, 3), (2.2360679, 3)],
        ids=["C2501", "C2047", "3+1e-13", "K2048", "exact", "C5"],
    )
    def test_lower_is_the_admitted_integer_or_the_ceiling(self, bound, lower):
        """One relative rule: the integer within TIGHT_RTOL * q of the largest bound, else its
        ceiling. An absolute slack of 1e-6 gave C2501's Hoffman bound, 2 + 7.9e-7, lower 2 at chi = 3."""
        got = bounds._lower_integer(bound)
        assert type(got) is int and got == lower

    def test_edgeless_report(self):
        report = chromatic_lower_bound(Graph(4), BoundConfig(), "empty")
        assert report.hoffman is None
        assert report.wilf == 1.0
        assert report.lower == 1
        assert any("edgeless" in note for note in report.notes)

    @pytest.mark.parametrize("methods", [("hofman", "tau_opt"), ("hoffman", "all"), ("hoffman", "exact"), "exact"])
    def test_config_rejects_unknown_methods(self, methods):
        """A misspelt method would otherwise leave every bound None and lower 1, with no note."""
        with pytest.raises(ValueError, match="unknown method .*; known methods: " + ", ".join(bounds.METHODS)):
            BoundConfig(methods=methods)

    @pytest.mark.parametrize("field, value, least", [
        ("restarts", 0, 1), ("restarts", -3, 1), ("iterations", 0, 1), ("seed", -2, 0), ("exact_limit", -5, 0),
    ])
    def test_config_rejects_out_of_range_values(self, field, value, least):
        """The CLI refuses these values too; unrefused, exact_limit=-5 ran and noted "n > exact limit -5"."""
        with pytest.raises(ValueError, match=f"^{field}: expected an integer >= {least}, got {value}$"):
            BoundConfig(**{field: value})

    @pytest.mark.parametrize("field, least", [("restarts", 1), ("iterations", 1), ("seed", 0), ("exact_limit", 0)])
    def test_config_rejects_non_integer_values(self, field, least):
        """restarts=2.5 raised TypeError in range() mid-report; the other fields ran silently."""
        with pytest.raises(ValueError, match=f"^{field}: expected an integer >= {least}, got 2.5$"):
            BoundConfig(**{field: 2.5})

    def test_numpy_seed_reads_as_its_int(self):
        """np.int64(3) passed BoundConfig, then random.Random refused it mid-report."""
        config = BoundConfig(seed=np.int64(3))
        assert type(config.seed) is int
        report = chromatic_lower_bound(cycle(7), config, "C7").to_document()
        assert report == chromatic_lower_bound(cycle(7), BoundConfig(seed=3), "C7").to_document()
        _z, tau = optimize_weight(petersen(), seed=np.int64(1))
        assert tau == optimize_weight(petersen(), seed=1)[1]

    def test_config_accepts_the_least_values(self):
        config = BoundConfig(restarts=1, iterations=1, seed=0, exact_limit=0)
        assert chromatic_lower_bound(petersen(), config, "petersen").lower == 3

    def test_document_field_order(self):
        doc = chromatic_lower_bound(complete(3), BoundConfig(restarts=1, iterations=20), "K3").to_document()
        assert list(doc) == [
            "graphId", "n", "m", "hoffman", "wilf", "tauOnes", "tauOptimized",
            "barnes", "exactChi", "lower", "seed", "notes", "certificates",
        ]

    def test_exact_timeout_noted(self, monkeypatch):
        """An oracle cut by its budget leaves exactChi unset and says how far it got."""
        monkeypatch.setattr(bounds, "exact_chi", lambda g, **kwargs: exact_chi(g, 1, **kwargs))
        report = chromatic_lower_bound(cycle(5), BoundConfig(restarts=1, iterations=10), "C5")
        assert report.exact_chi is None
        assert "exact oracle timed out after 1 nodes (best known 3)" in report.notes

    def test_exact_limit_skips_oracle(self):
        report = chromatic_lower_bound(petersen(), BoundConfig(exact_limit=5, restarts=1, iterations=10))
        assert report.exact_chi is None
        assert any("exact limit" in note for note in report.notes)

    @pytest.mark.parametrize("allow_complex", [False, True])
    def test_certificate_round_trip(self, corpus, allow_complex):
        """The 12-digit optimizedWeight entries, passed as they are, give tauOptimized back."""
        config = BoundConfig(restarts=2, iterations=60, seed=7, allow_complex=allow_complex,
                             methods=("tau-opt",))
        for name, g in corpus:
            if g.num_edges == 0:
                continue
            report = chromatic_lower_bound(g, config, name)
            entries = report.certificates["optimizedWeight"]
            assert [(u, v) for u, v, _re, _im in entries] == sorted(g.edges), name
            z = np.array([complex(re, im) for _u, _v, re, im in entries])
            assert tau_bound(g, z) == pytest.approx(report.tau_optimized, abs=1e-9), name

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = {"eigvalsh": 0, "eigh": 0, "adjacency_matrix": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        solve = linalg.eigensolve

        def counted_solve(m, vectors=False):
            calls["eigh" if vectors else "eigvalsh"] += 1
            return solve(m, vectors)

        monkeypatch.setattr(linalg, "eigensolve", counted_solve)
        counted(graphs, "adjacency_matrix")
        return calls

    def test_one_spectrum_per_report(self, solver_calls):
        """Wilf, Hoffman, tau-ones and Barnes share one eigensolve of the all-ones M, and no A is built."""
        config = BoundConfig(methods=("wilf", "hoffman", "tau-ones", "barnes"))
        report = chromatic_lower_bound(petersen(), config, "petersen")
        assert solver_calls == {"eigvalsh": 1, "eigh": 0, "adjacency_matrix": 0}
        assert report.lower == report.exact_chi == 3

    @pytest.mark.parametrize("g", [complete(5), cycle(6)], ids=["K5", "C6"])
    def test_tight_search_reuses_the_report_spectrum(self, g, solver_calls):
        """Where the search is skipped, tau-opt adds no eigensolve to the adjacency bounds'."""
        report = chromatic_lower_bound(g, BoundConfig(restarts=2, iterations=60), "g")
        assert solver_calls == {"eigvalsh": 1, "eigh": 0, "adjacency_matrix": 0}
        assert report.tau_optimized == report.tau_ones

    @pytest.mark.parametrize("exact_limit", [30, 0])
    @pytest.mark.parametrize("g, tight", [(complete(5), True), (cycle(6), True), (cycle(5), False),
                                          (petersen(), False)], ids=["K5", "C6", "C5", "petersen"])
    def test_prerequisites_built_once(self, g, tight, exact_limit, monkeypatch):
        """With the exact oracle, a report builds the bit index and greedy DSATUR once each, inside
        exact_chi, and the adjacency lists once, for the oracle. Without it, greedy DSATUR runs
        only for the skip test of a tight graph."""
        lists, index, report_greedy, oracle_greedy = [], [], [], []
        inner_lists, inner_index, inner_greedy = Graph.adjacency_lists, exact._bit_index, exact.greedy_dsatur

        def counted_lists(self):
            lists.append(self)
            return inner_lists(self)

        def counted_index(adj):
            index.append(adj)
            return inner_index(adj)

        def counted_greedy(calls):
            def wrapper(*args):
                calls.append(args)
                return inner_greedy(*args)

            return wrapper

        monkeypatch.setattr(Graph, "adjacency_lists", counted_lists)
        monkeypatch.setattr(exact, "_bit_index", counted_index)
        monkeypatch.setattr(bounds, "greedy_dsatur", counted_greedy(report_greedy))
        monkeypatch.setattr(exact, "greedy_dsatur", counted_greedy(oracle_greedy))
        report = chromatic_lower_bound(g, BoundConfig(restarts=2, iterations=60, exact_limit=exact_limit), "g")
        if exact_limit:
            assert (len(lists), len(index), len(oracle_greedy), len(report_greedy)) == (1, 1, 1, 0)
            assert report.exact_chi == exact_chi(g).chi
        else:
            skip_test = 1 if tight else 0  # greedy DSATUR builds its own lists and index
            assert (len(lists), len(index), len(oracle_greedy), len(report_greedy)) == (
                skip_test, skip_test, 0, skip_test)

    @pytest.mark.parametrize("g", [complete(5), cycle(6)], ids=["K5", "C6"])
    def test_tight_skip_reads_the_oracle(self, g, solver_calls, monkeypatch):
        """The skip test reads the exact oracle's chi where the report runs it: with greedy
        DSATUR one color above chi, K5 and C6 still skip the search, but not without the oracle."""
        def wasteful_dsatur(g, index=None):
            greedy = exact.greedy_dsatur(g, index)
            return graphs.Coloring((greedy.num_colors,) + greedy.colors[1:], greedy.num_colors + 1)

        monkeypatch.setattr(bounds, "greedy_dsatur", wasteful_dsatur)
        config = BoundConfig(restarts=2, iterations=60)
        report = chromatic_lower_bound(g, config, "g")
        assert solver_calls == {"eigvalsh": 1, "eigh": 0, "adjacency_matrix": 0}
        assert report.tau_optimized == report.tau_ones
        assert report.exact_chi == report.lower
        chromatic_lower_bound(g, BoundConfig(restarts=2, iterations=60, exact_limit=0), "g")
        assert solver_calls["eigvalsh"] > 2  # without the oracle the search ran: more than one solve

    @pytest.mark.parametrize("allow_complex", [False, True])
    def test_oracle_leaves_the_bounds(self, corpus, allow_complex, monkeypatch):
        """On the corpus, a report with the exact oracle gives the same bounds and certificates,
        bit for bit, as one without it: greedy DSATUR uses chi colors on every corpus graph."""
        monkeypatch.setattr(bounds, "fmt12", lambda x: x)  # keep the certificates unrounded
        kwargs = dict(restarts=2, iterations=60, seed=7, allow_complex=allow_complex)
        for name, g in corpus:
            with_oracle, without = (
                chromatic_lower_bound(g, BoundConfig(exact_limit=limit, **kwargs), name) for limit in (30, 0)
            )
            assert with_oracle.exact_chi is not None and without.exact_chi is None, name
            for report in (with_oracle, without):
                report.exact_chi, report.notes = None, []
            assert with_oracle == without, name

    def test_exact_alone_solves_nothing(self, solver_calls):
        report = chromatic_lower_bound(petersen(), BoundConfig(methods=()), "petersen")
        assert solver_calls == {"eigvalsh": 0, "eigh": 0, "adjacency_matrix": 0}
        assert report.lower == 1 and report.exact_chi == 3

    @pytest.mark.parametrize("exact_limit, chi, notes", [
        (30, 3, []), (0, None, ["n > exact limit 0: exact chi skipped"]),
    ])
    def test_exact_limit_alone_gates_the_oracle(self, exact_limit, chi, notes):
        """The oracle runs exactly where n <= exact_limit, whichever methods the report asks for."""
        config = BoundConfig(methods=("hoffman",), exact_limit=exact_limit)
        doc = chromatic_lower_bound(petersen(), config, "petersen").to_document()
        assert (doc["exactChi"], doc["notes"]) == (chi, notes)

    def test_report_matches_public_functions(self, corpus):
        config = BoundConfig(methods=("wilf", "hoffman", "tau-ones", "barnes"))
        for name, g in corpus:
            report = chromatic_lower_bound(g, config, name)
            assert report.wilf == wilf_upper_bound(g), name
            if g.num_edges == 0:
                continue
            assert report.hoffman == hoffman_bound(g), name
            assert report.tau_ones == tau_bound(g, ones_weight(g)), name
            value, d = barnes_bound(g)
            assert report.barnes == value, name
            assert report.certificates["barnesD"] == [linalg.fmt12(x) for x in d], name

    @pytest.mark.parametrize("allow_complex", [False, True])
    def test_search_matches_optimize_weight(self, corpus, allow_complex, monkeypatch):
        """The report's search and optimize_weight give the same edge values and tau, bit for bit."""
        monkeypatch.setattr(bounds, "fmt12", lambda x: x)  # keep the certificate unrounded
        kwargs = dict(restarts=2, iterations=60, seed=7, allow_complex=allow_complex)
        config = BoundConfig(methods=("tau-opt",), **kwargs)
        for name, g in corpus:
            if g.num_edges == 0:
                continue
            report = chromatic_lower_bound(g, config, name)
            z, tau = optimize_weight(g, **kwargs)
            entries = report.certificates["optimizedWeight"]
            assert [re for _u, _v, re, _im in entries] == z.real.tolist(), name
            assert [im for _u, _v, _re, im in entries] == z.imag.tolist(), name
            assert report.tau_optimized == tau + 1.0, name

    def test_all_bounds_below_wilf(self, corpus):
        config = BoundConfig(restarts=1, iterations=20)
        for name, g in corpus[:8]:
            report = chromatic_lower_bound(g, config, name)
            for b in report.lower_bounds():
                assert b <= report.wilf + 1e-6
