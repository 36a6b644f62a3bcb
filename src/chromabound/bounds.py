"""Chromatic-number bounds from spectra of weighted adjacency matrices.

Lower bounds: Hoffman (largest over smallest eigenvalue), Barnes
(diagonal-scaled adjacency), and the majorization bound tau + 1 computed
from any Hermitian edge weighting. The weight search is a random-restart
pattern search; the all-ones weighting is always one of the starts, so
the result never regresses below the Hoffman-style baseline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import linalg
from .exact import DEFAULT_BUDGET, exact_chi
from .graphs import Graph, adjacency_matrix, is_connected
from .linalg import fmt12
from .majorization import minimal_tau


class DegenerateGraphError(ValueError):
    """Bound undefined: no edges, or the weighting vanishes on every edge."""


class DisconnectedGraphError(ValueError):
    """The Barnes bound requires a connected graph."""


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Hermitian edge weighting; canonical form is zero off the edge set."""

    matrix: np.ndarray
    origin: str = "user"

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.hermitize(self.matrix))


def canonicalize(g: Graph, w: WeightMatrix) -> WeightMatrix:
    """Zero all entries off the edge set; reject weightings that vanish there."""
    if w.matrix.shape != (g.n, g.n):
        raise ValueError(f"weight shape {w.matrix.shape} != ({g.n}, {g.n})")
    mask = adjacency_matrix(g)
    canon = w.matrix * mask
    if g.num_edges and np.linalg.norm(canon) == 0.0:
        raise DegenerateGraphError("weight matrix vanishes on every edge")
    return WeightMatrix(canon, w.origin)


def ones_weight(n: int) -> WeightMatrix:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return WeightMatrix(np.ones((n, n)), "ones")


def barnes_weight(d) -> WeightMatrix:
    """Weights 1/(sqrt(d_k) sqrt(d_l)), so that W*A = D^{-1/2} A D^{-1/2}."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("all diagonal entries must be positive")
    inv_root = 1.0 / np.sqrt(d)
    return WeightMatrix(np.outer(inv_root, inv_root), "barnes")


def weighted_adjacency(g: Graph, w: WeightMatrix) -> np.ndarray:
    """M = W * A (entrywise); traceless Hermitian supported on the edge set."""
    return linalg.hadamard_product(canonicalize(g, w).matrix, adjacency_matrix(g))


def _adjacency_spectrum(g: Graph) -> np.ndarray:
    if g.num_edges == 0:
        raise DegenerateGraphError("graph has no edges")
    return linalg.spectrum(adjacency_matrix(g))


def hoffman_bound(g: Graph) -> float:
    """lambda_1 / |lambda_n| + 1."""
    lam = _adjacency_spectrum(g)
    return float(lam[0] / abs(lam[-1]) + 1.0)


def wilf_upper_bound(g: Graph) -> float:
    """lambda_1 + 1."""
    if g.num_edges == 0:
        return 1.0
    lam = _adjacency_spectrum(g)
    return float(lam[0] + 1.0)


def tau_bound(g: Graph, w: WeightMatrix, tol=1e-9) -> float:
    """tau_W + 1 for M = W * A; never exceeds the chromatic number."""
    m = weighted_adjacency(g, w)
    fro = np.linalg.norm(m)
    if fro == 0.0:
        raise DegenerateGraphError("weighted adjacency matrix is zero")
    return float(minimal_tau(linalg.spectrum(m / fro), tol) + 1.0)


# ---------------------------------------------------------------------------
# Weight optimization (derivative-free)

INITIAL_STEP = 0.25
MIN_STEP = 1e-4


def _build_weighted(g_edges, n, radii, phases):
    m = np.zeros((n, n), dtype=complex if phases is not None else float)
    for idx, (u, v) in enumerate(g_edges):
        w = radii[idx] * (np.exp(1j * phases[idx]) if phases is not None else 1.0)
        m[u, v] = w
        m[v, u] = np.conj(w)
    return m


def _normalize_radii(x, num_edges):
    scale = np.linalg.norm(x[:num_edges]) * math.sqrt(2.0)
    if scale > 0.0:
        x = x.copy()
        x[:num_edges] /= scale
    return x


def _tau_of_params(g_edges, n, x, num_edges, complex_phases, tol):
    radii = x[:num_edges]
    phases = x[num_edges:] if complex_phases else None
    m = _build_weighted(g_edges, n, radii, phases)
    fro = np.linalg.norm(m)
    if fro < 1e-12:
        return None
    return minimal_tau(linalg.spectrum(m / fro), tol)


def _pattern_search(g_edges, n, x0, budget, complex_phases, tol):
    """Coordinate pattern search; halve the step on a sweep without progress."""
    num_edges = len(g_edges)
    x = _normalize_radii(np.asarray(x0, dtype=float), num_edges)
    best = _tau_of_params(g_edges, n, x, num_edges, complex_phases, tol)
    evals = 1
    step = INITIAL_STEP
    while step >= MIN_STEP and evals < budget:
        improved = False
        for i in range(len(x)):
            if evals >= budget:
                break
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                cand = x.copy()
                cand[i] += sign * step
                val = _tau_of_params(g_edges, n, cand, num_edges, complex_phases, tol)
                evals += 1
                if val is not None and (best is None or val > best + 1e-12):
                    x = _normalize_radii(cand, num_edges)
                    best = val
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return x, best, evals


def optimize_weight(
    g: Graph,
    restarts=8,
    iterations=200,
    seed=0,
    allow_complex=False,
    tol=1e-9,
) -> Tuple[WeightMatrix, float]:
    """Heuristically maximize tau_W over Hermitian edge weightings.

    Restart 0 starts from the all-ones weighting, so the returned tau is
    at least the ones baseline; remaining restarts draw per-edge weights
    from uniform[0.5, 1.5] (and phases from uniform[0, 2pi) when complex
    weights are allowed), each seeded as seed + restart index.
    `iterations` caps objective evaluations per restart.
    """
    if g.num_edges == 0:
        raise DegenerateGraphError("graph has no edges")
    edges = sorted(g.edges)
    num_edges = len(edges)
    dim = num_edges * (2 if allow_complex else 1)

    best_x = None
    best_tau = None
    for r_idx in range(max(1, restarts)):
        x0 = np.zeros(dim)
        if r_idx == 0:
            x0[:num_edges] = 1.0
        else:
            rng = random.Random(seed + r_idx)
            x0[:num_edges] = [rng.uniform(0.5, 1.5) for _ in range(num_edges)]
            if allow_complex:
                x0[num_edges:] = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(num_edges)]
        x, tau, _evals = _pattern_search(edges, g.n, x0, iterations, allow_complex, tol)
        if tau is not None and (best_tau is None or tau > best_tau + 1e-15):
            best_tau = tau
            best_x = x
    assert best_tau is not None
    radii = best_x[:num_edges]
    phases = best_x[num_edges:] if allow_complex else None
    m = _build_weighted(edges, g.n, radii, phases)
    m /= np.linalg.norm(m)
    w = WeightMatrix(m, f"optimized(seed={seed}, restarts={restarts}, iterations={iterations})")
    return w, float(best_tau)


# ---------------------------------------------------------------------------
# Barnes bound (Theorem of the diagonal-scaled adjacency matrix)

PSD_TOL = -1e-8
SHRINK = 0.1


def _barnes_value(a, d):
    inv_root = 1.0 / np.sqrt(d)
    scaled = a * np.outer(inv_root, inv_root)
    return float(linalg.spectrum(scaled)[0] + 1.0)


def barnes_bound(
    g: Graph,
    strategy="hoffman_diag",
    iters=20,
) -> Tuple[float, np.ndarray]:
    """Largest eigenvalue of D^{-1/2} A D^{-1/2} plus one, and the D used.

    `hoffman_diag` sets D = |lambda_n| I (reproduces the Hoffman bound
    exactly); `coordinate_descent` greedily shrinks individual diagonal
    entries while keeping A + D positive semidefinite. The true
    semidefinite program is out of scope; this is a documented heuristic.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("Barnes bound requires a connected graph")
    if g.num_edges == 0:
        raise DegenerateGraphError("graph has no edges")
    a = adjacency_matrix(g)
    lam = linalg.spectrum(a)
    d = np.full(g.n, abs(lam[-1]))
    if strategy == "hoffman_diag":
        return _barnes_value(a, d), d
    if strategy != "coordinate_descent":
        raise ValueError(f"unknown strategy {strategy!r}")
    best = _barnes_value(a, d)
    for _sweep in range(iters):
        changed = False
        for i in range(g.n):
            trial = d.copy()
            trial[i] *= 1.0 - SHRINK
            if linalg.min_eigenvalue(a + np.diag(trial)) < PSD_TOL:
                continue
            value = _barnes_value(a, trial)
            if value >= best - 1e-12:
                d = trial
                best = max(best, value)
                changed = True
        if not changed:
            break
    return best, d


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class BoundConfig:
    restarts: int = 8
    iterations: int = 200
    seed: int = 0
    allow_complex: bool = False
    exact_limit: int = 30
    budget: int = DEFAULT_BUDGET
    tol: float = 1e-9
    methods: Tuple[str, ...] = ("wilf", "hoffman", "tau-ones", "barnes", "tau-opt", "exact")


@dataclass
class BoundReport:
    graph_id: str
    n: int
    m: int
    seed: int
    hoffman: Optional[float] = None
    wilf: Optional[float] = None
    tau_ones: Optional[float] = None
    tau_optimized: Optional[float] = None
    barnes: Optional[float] = None
    exact_chi: Optional[int] = None
    lower: int = 1
    notes: List[str] = field(default_factory=list)
    certificates: dict = field(default_factory=dict)

    def lower_bounds(self):
        return [
            b
            for b in (self.hoffman, self.tau_ones, self.tau_optimized, self.barnes)
            if b is not None
        ]

    def to_document(self) -> dict:
        """Stable field order and 12-significant-digit floats."""
        return {
            "graphId": self.graph_id,
            "n": self.n,
            "m": self.m,
            "hoffman": fmt12(self.hoffman),
            "wilf": fmt12(self.wilf),
            "tauOnes": fmt12(self.tau_ones),
            "tauOptimized": fmt12(self.tau_optimized),
            "barnes": fmt12(self.barnes),
            "exactChi": self.exact_chi,
            "lower": self.lower,
            "seed": self.seed,
            "notes": list(self.notes),
            "certificates": self.certificates,
        }


def _ceil_with_slack(x, slack=1e-6):
    return int(math.ceil(x - slack))


def chromatic_lower_bound(g: Graph, config: Optional[BoundConfig] = None, graph_id="graph") -> BoundReport:
    """Run every requested bound and aggregate into a BoundReport."""
    config = config or BoundConfig()
    report = BoundReport(graph_id=graph_id, n=g.n, m=g.num_edges, seed=config.seed)
    methods = set(config.methods)
    edgeless = g.num_edges == 0

    if "wilf" in methods:
        report.wilf = wilf_upper_bound(g)
    if edgeless and methods & {"hoffman", "tau-ones", "tau-opt", "barnes"}:
        report.notes.append("edgeless: spectral lower bounds undefined, reporting 1")
    if not edgeless:
        if "hoffman" in methods:
            report.hoffman = hoffman_bound(g)
        if "tau-ones" in methods:
            report.tau_ones = tau_bound(g, ones_weight(g.n), config.tol)
        if "barnes" in methods:
            if is_connected(g):
                value, d = barnes_bound(g, strategy="hoffman_diag")
                report.barnes = value
                report.certificates["barnesD"] = [fmt12(x) for x in d]
            else:
                report.notes.append("disconnected: Barnes bound skipped")
        if "tau-opt" in methods:
            w, tau = optimize_weight(
                g,
                restarts=config.restarts,
                iterations=config.iterations,
                seed=config.seed,
                allow_complex=config.allow_complex,
                tol=config.tol,
            )
            report.tau_optimized = tau + 1.0
            entries = []
            for u, v in sorted(g.edges):
                z = w.matrix[u, v]
                entries.append([u, v, fmt12(z.real), fmt12(z.imag)])
            report.certificates["optimizedWeight"] = entries
    if "exact" in methods:
        if g.n <= config.exact_limit:
            result = exact_chi(g, config.budget)
            if result.timed_out:
                report.notes.append(
                    f"exact oracle timed out after {result.nodes_explored} nodes "
                    f"(best known {result.chi})"
                )
            else:
                report.exact_chi = result.chi
        else:
            report.notes.append(f"n > exact limit {config.exact_limit}: exact chi skipped")

    lowers = report.lower_bounds()
    report.lower = _ceil_with_slack(max(lowers)) if lowers else 1
    return report
