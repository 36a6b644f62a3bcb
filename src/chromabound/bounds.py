"""Chromatic-number bounds from spectra of weighted adjacency matrices.

Every lower bound reads the spectrum of a Hadamard-weighted adjacency
matrix M = W * A. Hoffman and tau-ones use the all-ones W, Barnes uses
W = D^{-1/2} 1 D^{-1/2} with D = |lambda_n| I, and tau_W + 1 takes any
Hermitian W. Every M is built by `_edge_matrix` from its values on the
edge list, and M becomes tau in one evaluator (`_tau`). A report reads
Wilf, Hoffman, Barnes and tau-ones from one spectrum of A. tau is
homogeneous in M, so it takes no tolerance here: `minimal_tau` applies
its own fixed relative one. The weight search is a gradient ascent on the
smoothed lambda_1 / |lambda_n|, real or complex, from the all-ones
incumbent, so the result never regresses below the Hoffman-style baseline.
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
    """Hermitian weighting; only its entries on the edge set enter M = W * A."""

    matrix: np.ndarray
    origin: str = "user"

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.hermitize(self.matrix))


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


def _edge_index(g: Graph):
    """Endpoint arrays (us < vs) in sorted(g.edges) order, the certificate order."""
    us, vs = np.array(sorted(g.edges), dtype=np.intp).reshape(-1, 2).T
    return us, vs


def _edge_matrix(n, index, z):
    """Hermitian M: z_e at (u_e, v_e), conj(z_e) at (v_e, u_e), zero elsewhere."""
    us, vs = index
    m = np.zeros((n, n), dtype=np.result_type(z, float))
    m[us, vs] = z
    m[vs, us] = np.conj(z)
    return m


def weighted_adjacency(g: Graph, w: WeightMatrix) -> np.ndarray:
    """M = W * A (entrywise): W on the edge set, zero elsewhere; real if W is real there."""
    if w.matrix.shape != (g.n, g.n):
        raise ValueError(f"weight shape {w.matrix.shape} != ({g.n}, {g.n})")
    index = _edge_index(g)
    z = w.matrix[index]
    if not np.any(z.imag):
        z = z.real
    if g.num_edges and not np.any(z):
        raise DegenerateGraphError("weight matrix vanishes on every edge")
    return _edge_matrix(g.n, index, z)


def _adjacency_bounds(g: Graph):
    """Wilf, Hoffman (= Barnes at D = |lambda_n| I), |lambda_n| and spec(A), one eigensolve."""
    if g.num_edges == 0:
        raise DegenerateGraphError("graph has no edges")
    lam = linalg.spectrum(adjacency_matrix(g))
    lam_n = abs(lam[-1])
    return float(lam[0] + 1.0), float(lam[0] / lam_n + 1.0), lam_n, lam


def hoffman_bound(g: Graph) -> float:
    """lambda_1 / |lambda_n| + 1."""
    return _adjacency_bounds(g)[1]


def wilf_upper_bound(g: Graph) -> float:
    """lambda_1 + 1."""
    if g.num_edges == 0:
        return 1.0
    return _adjacency_bounds(g)[0]


def barnes_bound(g: Graph) -> Tuple[float, np.ndarray]:
    """Largest eigenvalue of D^{-1/2} A D^{-1/2} plus one, and the D used.

    D = |lambda_n| I, the smallest multiple of I with A + D positive
    semidefinite, so the matrix is weighted_adjacency(g, barnes_weight(d))
    = A / |lambda_n| and the value is the Hoffman bound, read from the same
    spectrum of A. Other feasible D gain nothing over tau: A + D >= 0 gives
    lambda_min >= -1 for the scaled matrix, so its Barnes value is at most
    tau_W + 1 for W = barnes_weight(d).
    """
    if not is_connected(g):
        raise DisconnectedGraphError("Barnes bound requires a connected graph")
    _wilf, hoffman, lam_n, _lam = _adjacency_bounds(g)
    return hoffman, np.full(g.n, lam_n)


def _tau(m):
    """tau of the spectrum of M / ||M||_F, for a nonzero edge-supported M.

    No caller passes M = 0: `weighted_adjacency` rejects a W that vanishes
    on every edge, and the weight search keeps ||M||_F = 1.
    """
    return minimal_tau(linalg.spectrum(m / np.linalg.norm(m)))


def tau_bound(g: Graph, w: WeightMatrix) -> float:
    """tau_W + 1 for M = W * A; never exceeds the chromatic number.

    Raises DegenerateGraphError for an edgeless graph, or for a W that
    vanishes on every edge.
    """
    if g.num_edges == 0:
        raise DegenerateGraphError("graph has no edges")
    return float(_tau(weighted_adjacency(g, w)) + 1.0)


# ---------------------------------------------------------------------------
# Defaults shared by optimize_weight, BoundConfig and the CLI flags

METHODS = ("wilf", "hoffman", "tau-ones", "barnes", "tau-opt", "exact")
DEFAULT_RESTARTS, DEFAULT_ITERATIONS, DEFAULT_SEED = 8, 200, 0
DEFAULT_EXACT_LIMIT = 30  # the exact oracle runs on graphs with at most this many vertices


# ---------------------------------------------------------------------------
# Weight optimization (gradient ascent on the smoothed Hoffman ratio)

STEP, MIN_STEP = 0.1, 1e-4  # step along the sphere ||M||_F = 1; a smaller one ends the ascent
MU, MIN_MU = 0.05, 0.02  # log-sum-exp width of the smoothing, and its floor


def _smoothed_ratio(lam, mu):
    """lambda_1 / -lambda_n of an ascending spectrum, both smoothed by log-sum-exp of
    width mu, and the ratio's derivatives c_k in the eigenvalues lam_k."""
    top_w = np.exp((lam - lam[-1]) / mu)
    bot_w = np.exp((lam[0] - lam) / mu)
    top = lam[-1] + mu * math.log(top_w.sum())
    bot = lam[0] - mu * math.log(bot_w.sum())
    ratio = top / -bot
    return ratio, (top_w / top_w.sum() + ratio * bot_w / bot_w.sum()) / -bot


def _edge_gradient(v, c, index):
    """sum_k c_k dlambda_k / dz_uv = 2 sum_k c_k v_k[u] conj(v_k[v]) (Lewis & Overton 1996);
    its real and imaginary parts are the derivatives along Re z_uv and Im z_uv."""
    us, vs = index
    return 2.0 * ((v * c)[us] * v[vs].conj()).sum(axis=1)


def _ascend(n, index, z, budget):
    """Ascent from edge values z in at most `budget` eigensolves.

    Returns the normalized start and its spectrum, then the last z and its spectrum.
    Candidates are judged on eigenvalues; only an accepted one pays for the eigenvectors of
    its gradient, which is tangent to the sphere ||M||_F = 1 (the ratio is 0-homogeneous).
    Success (the start is one) grows the step 1.5-fold, failure halves the step and mu, and
    a zero gradient or a step below MIN_STEP stops early.
    """
    step, mu, ratio = STEP, MU, -math.inf
    cand, solves = z, 0
    while solves < budget:
        cand = cand / (np.linalg.norm(cand) * math.sqrt(2.0))
        m = _edge_matrix(n, index, cand)
        cand_lam = np.linalg.eigvalsh(m)
        solves += 1
        cand_ratio, c = _smoothed_ratio(cand_lam, mu)
        if cand_ratio > ratio:
            z, lam, ratio = cand, cand_lam, cand_ratio
            if solves == 1:
                start = z, lam
            if solves == budget:
                break
            grad = _edge_gradient(np.linalg.eigh(m)[1], c, index)
            solves += 1
            norm = np.linalg.norm(grad)
            step *= 1.5
        else:
            step /= 2.0
            if mu > MIN_MU:  # at the floor the smoothed ratio of lam stays as it is
                mu = max(mu / 2.0, MIN_MU)
                ratio = _smoothed_ratio(lam, mu)[0]
        if step < MIN_STEP or norm == 0.0:
            break
        cand = z + (step / norm) * grad
    return start, (z, lam)


def optimize_weight(
    g: Graph, restarts=DEFAULT_RESTARTS, iterations=DEFAULT_ITERATIONS, seed=DEFAULT_SEED, allow_complex=False
) -> Tuple[WeightMatrix, float]:
    """Heuristically maximize tau_W over Hermitian edge weightings.

    Each restart runs `_ascend`, which climbs a lower bound on tau, and is scored by tau.
    The all-ones weighting is the incumbent and restart 0's start, so the result is at
    least the ones baseline; restart r > 0 draws per-edge weights from uniform[0.5, 1.5]
    (times phases from uniform[0, 2pi) for complex weights), seeded as seed + r.
    `iterations` caps eigensolves per restart.
    """
    if g.num_edges == 0:
        raise DegenerateGraphError("graph has no edges")
    index = _edge_index(g)
    for r_idx in range(max(1, restarts)):
        z = np.ones(g.num_edges)
        if r_idx > 0:
            rng = random.Random(seed + r_idx)
            z = np.array([rng.uniform(0.5, 1.5) for _ in range(g.num_edges)])
            if allow_complex:
                z = z * np.exp(1j * np.array([rng.uniform(0.0, 2.0 * math.pi) for _ in range(g.num_edges)]))
        start, (z, lam) = _ascend(g.n, index, z, max(1, iterations))
        if r_idx == 0:  # restart 0 starts at all-ones, the incumbent
            best_z, best_tau = start[0], minimal_tau(start[1])
        tau = minimal_tau(lam)
        if tau > best_tau + 1e-15:
            best_tau, best_z = tau, z
    m = _edge_matrix(g.n, index, best_z)  # ||M||_F = 1
    w = WeightMatrix(m, f"optimized(seed={seed}, restarts={restarts}, iterations={iterations})")
    return w, float(_tau(m))


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class BoundConfig:
    restarts: int = DEFAULT_RESTARTS
    iterations: int = DEFAULT_ITERATIONS
    seed: int = DEFAULT_SEED
    allow_complex: bool = False
    exact_limit: int = DEFAULT_EXACT_LIMIT
    methods: Tuple[str, ...] = METHODS


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

    if g.num_edges == 0:
        if "wilf" in methods:
            report.wilf = wilf_upper_bound(g)
        if methods & {"hoffman", "tau-ones", "tau-opt", "barnes"}:
            report.notes.append("edgeless: spectral lower bounds undefined, reporting 1")
    else:
        if methods & {"wilf", "hoffman", "tau-ones", "barnes"}:
            wilf, hoffman, lam_n, lam = _adjacency_bounds(g)
        if "wilf" in methods:
            report.wilf = wilf
        if "hoffman" in methods:
            report.hoffman = hoffman
        if "tau-ones" in methods:
            report.tau_ones = minimal_tau(lam) + 1.0
        if "barnes" in methods:
            if is_connected(g):
                report.barnes = hoffman
                report.certificates["barnesD"] = [fmt12(lam_n)] * g.n
            else:
                report.notes.append("disconnected: Barnes bound skipped")
        if "tau-opt" in methods:
            w, tau = optimize_weight(
                g,
                restarts=config.restarts,
                iterations=config.iterations,
                seed=config.seed,
                allow_complex=config.allow_complex,
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
