"""Chromatic-number bounds from spectra of weighted adjacency matrices.

Every lower bound reads the spectrum of a Hadamard-weighted adjacency
matrix M = W * A. Hoffman and tau-ones use the all-ones W, Barnes uses
W = D^{-1/2} 1 D^{-1/2} with D = |lambda_n| I, and tau_W + 1 takes any
Hermitian W. Weights on the edge list become M in one builder
(`_edge_matrix`), and M becomes tau in one evaluator (`_tau`), shared by
`tau_bound` and the weight search. The weight search is a random-restart
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
from .exact import exact_chi
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
    canon = linalg.hadamard_product(w.matrix, adjacency_matrix(g))
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
    return canonicalize(g, w).matrix


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


def _tau(m, tol):
    """tau of the spectrum of M / ||M||_F, or None when M = 0."""
    fro = np.linalg.norm(m)
    if fro == 0.0:
        return None
    return minimal_tau(linalg.spectrum(m / fro), tol)


def tau_bound(g: Graph, w: WeightMatrix, tol=1e-9) -> float:
    """tau_W + 1 for M = W * A; never exceeds the chromatic number."""
    tau = _tau(weighted_adjacency(g, w), tol)
    if tau is None:
        raise DegenerateGraphError("weighted adjacency matrix is zero")
    return float(tau + 1.0)


# ---------------------------------------------------------------------------
# Weight optimization (derivative-free)

INITIAL_STEP = 0.25
MIN_STEP = 1e-4


def _edge_index(g: Graph):
    """Endpoint arrays (us < vs) in sorted(g.edges) order, the certificate order."""
    us, vs = np.array(sorted(g.edges), dtype=np.intp).reshape(-1, 2).T
    return us, vs


def _edge_matrix(n, index, x, complex_phases):
    """Hermitian M with r_e (or r_e exp(i phi_e)) on each edge, x = (r, phi)."""
    us, vs = index
    num_edges = len(us)
    w = x[:num_edges]
    if complex_phases:
        w = w * np.exp(1j * x[num_edges:])
    m = np.zeros((n, n), dtype=w.dtype)
    m[us, vs] = w
    m[vs, us] = np.conj(w)
    return m


def _normalize_radii(x, num_edges):
    scale = np.linalg.norm(x[:num_edges]) * math.sqrt(2.0)
    if scale > 0.0:
        x = x.copy()
        x[:num_edges] /= scale
    return x


def _pattern_search(objective, x0, num_edges, budget):
    """Coordinate pattern search; halve the step on a sweep without progress."""
    x = _normalize_radii(np.asarray(x0, dtype=float), num_edges)
    best = objective(x)
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
                val = objective(cand)
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
    index = _edge_index(g)
    num_edges = g.num_edges
    dim = num_edges * (2 if allow_complex else 1)

    def objective(x):
        return _tau(_edge_matrix(g.n, index, x, allow_complex), tol)

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
        x, tau, _evals = _pattern_search(objective, x0, num_edges, iterations)
        if tau is not None and (best_tau is None or tau > best_tau + 1e-15):
            best_tau = tau
            best_x = x
    assert best_tau is not None
    m = _edge_matrix(g.n, index, best_x, allow_complex)
    m /= np.linalg.norm(m)
    w = WeightMatrix(m, f"optimized(seed={seed}, restarts={restarts}, iterations={iterations})")
    return w, float(best_tau)


# ---------------------------------------------------------------------------
# Barnes bound (Theorem of the diagonal-scaled adjacency matrix)


def barnes_bound(g: Graph) -> Tuple[float, np.ndarray]:
    """Largest eigenvalue of D^{-1/2} A D^{-1/2} plus one, and the D used.

    D = |lambda_n| I, the smallest multiple of I with A + D positive
    semidefinite, so the value equals the Hoffman bound. The matrix is
    weighted_adjacency(g, barnes_weight(d)). Searching other feasible D
    gains nothing over tau: A + D >= 0 gives lambda_min >= -1 for the
    scaled matrix, so its Barnes value is at most tau_W + 1 for
    W = barnes_weight(d).
    """
    if not is_connected(g):
        raise DisconnectedGraphError("Barnes bound requires a connected graph")
    if g.num_edges == 0:
        raise DegenerateGraphError("graph has no edges")
    d = np.full(g.n, abs(linalg.spectrum(adjacency_matrix(g))[-1]))
    m = weighted_adjacency(g, barnes_weight(d))
    return float(linalg.spectrum(m)[0] + 1.0), d


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class BoundConfig:
    restarts: int = 8
    iterations: int = 200
    seed: int = 0
    allow_complex: bool = False
    exact_limit: int = 30
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
                value, d = barnes_bound(g)
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
            us, vs = _edge_index(g)
            z = w.matrix[us, vs]
            report.certificates["optimizedWeight"] = [
                [u, v, fmt12(re), fmt12(im)]
                for u, v, re, im in zip(us.tolist(), vs.tolist(), z.real, z.imag)
            ]
    if "exact" in methods:
        if g.n <= config.exact_limit:
            result = exact_chi(g)
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
