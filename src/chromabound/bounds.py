"""Chromatic-number bounds from spectra of weighted adjacency matrices.

Every lower bound reads the spectrum of a Hadamard-weighted adjacency
matrix M = W * A, which reads W only on the edges, so a weighting is its
edge values z: one real or complex number per edge, in the order of
(g.us, g.vs) and of the optimizedWeight certificate. A dense Hermitian W
enters as W[g.us, g.vs]. Hoffman and tau-ones use the all-ones z, Barnes
1/sqrt(d_u d_v) for D = |lambda_n| I, and tau_W + 1 any z. Barnes is
reported on every graph with an edge, connected or not, since
A + |lambda_n| I >= 0 and Hoffman's bound hold on all of them. Every M is
built by `_EdgeMatrices` from z, and `_EdgeMatrices.evaluate`, which
scales it to ||M||_F = 1, solves it through `linalg.eigensolve`, the
package's one eigensolver. A report evaluates the all-ones edge vector
once (`_ones_start`) and takes its tau once, and that spectrum feeds
Wilf, Hoffman, Barnes, tau-ones and the weight search: M = A / sqrt(2m),
so spec(A) is spec(M) * sqrt(2m), and the ratios are scale-free. tau is
homogeneous in M, so it takes no tolerance here: `minimal_tau` applies
its own fixed relative one. The weight search is a gradient ascent on
the smoothed lambda_1 / |lambda_n|, real or complex, from the all-ones
incumbent, so the result never regresses below the Hoffman-style
baseline, and it returns the edge values and the tau it scored;
`_ascend` describes its buffers and its stop at a stationary start.
The search is skipped where the all-ones tau + 1 already equals the color
count q of a proper coloring: tau_W + 1 <= chi <= q for every W, so no
weighting can do better. The coloring is the exact oracle's where the
report runs it, which it then does first, and greedy DSATUR's otherwise
(this covers K_n and every bipartite graph with an edge).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import linalg
from .exact import exact_chi, greedy_dsatur
from .graphs import Graph, _count
from .linalg import fmt12
from .majorization import minimal_tau


class DegenerateGraphError(ValueError):
    """Bound undefined: no edges, or the weighting vanishes on every edge."""


def ones_weight(g: Graph) -> np.ndarray:
    """The all-ones weighting: M = A."""
    return np.ones(g.num_edges)


def barnes_weight(g: Graph, d) -> np.ndarray:
    """Weights 1/(sqrt(d_u) sqrt(d_v)) on the edges (u, v), so that M = D^{-1/2} A D^{-1/2}."""
    d = np.asarray(d, dtype=float)
    if d.shape != (g.n,):
        raise ValueError(f"diagonal shape {d.shape} != ({g.n},)")
    if not np.all(np.isfinite(d) & (d > 0.0)):
        raise ValueError("all diagonal entries must be positive and finite")
    inv_root = 1.0 / np.sqrt(d)
    return inv_root[g.us] * inv_root[g.vs]


class _EdgeMatrices:
    """Edge values z -> Hermitian M: z_e at (u_e, v_e), conj(z_e) at (v_e, u_e), zero elsewhere.

    Writes go through the flat positions u*n + v and v*n + u into one n x n buffer per
    dtype, which every later call of that dtype overwrites on the same edges, so its other
    entries stay zero. A matrix is valid until the next call of its dtype.
    """

    def __init__(self, g: Graph):
        self.n = n = g.n
        self.upper, self.lower = g.us * n + g.vs, g.vs * n + g.us
        self._flat = {}

    def matrix(self, z):
        flat = self._flat.get(z.dtype)
        if flat is None:
            flat = self._flat[z.dtype] = np.zeros(self.n * self.n, dtype=np.result_type(z, float))
        flat[self.upper] = z
        flat[self.lower] = z.conj() if z.dtype.kind == "c" else z
        return flat.reshape(self.n, self.n)

    def evaluate(self, z):
        """Edge values z scaled to ||M||_F = 1, that M, and its ascending spectrum: one
        eigensolve. z must not vanish on every edge; no caller passes such a z."""
        z = z / (_norm(z) * math.sqrt(2.0))
        m = self.matrix(z)
        return z, m, linalg.eigensolve(m)


def _norm(z):
    """||z||_2 of a vector, formed as numpy.linalg.norm forms it, without its wrapper."""
    if z.dtype.kind == "c":
        re, im = z.real, z.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(z.dot(z))


def _edge_values(g: Graph, z):
    """The edge matrices of g and the weighting z checked: one finite value per edge, not
    all zero, as float64, or as complex128 if some imaginary part is not zero."""
    z = np.asarray(z)
    if z.shape != (g.num_edges,):
        raise ValueError(f"weighting shape {z.shape} != ({g.num_edges},): one value per edge")
    if z.dtype.kind not in "biufc" or not np.all(np.isfinite(z)):
        raise ValueError("weighting values must be finite numbers")
    z = z.astype(complex) if np.any(z.imag) else z.real.astype(float)
    if g.num_edges and not np.any(z):
        raise DegenerateGraphError("weighting vanishes on every edge")
    return _EdgeMatrices(g), z


def weighted_adjacency(g: Graph, z) -> np.ndarray:
    """M = W * A for the weighting z: z_e at (u_e, v_e), conj(z_e) at (v_e, u_e), zero
    off the edges; real if z is real."""
    edges, z = _edge_values(g, z)
    return edges.matrix(z)


def _ones_start(g: Graph):
    """The edge matrices of g and the `evaluate` triple of the all-ones edge values.

    That one eigensolve feeds Wilf, Hoffman, Barnes, tau-ones, the tight-skip test and
    restart 0 of the weight search.
    """
    if g.num_edges == 0:
        raise DegenerateGraphError("graph has no edges")
    edges = _EdgeMatrices(g)
    return edges, edges.evaluate(np.ones(g.num_edges))


def _adjacency_bounds(start):
    """Wilf, Hoffman (= Barnes at D = |lambda_n| I) and |lambda_n| of A from the all-ones
    triple: its M is z_0 A entrywise, so spec(A) = spec(M) / z_0, and Hoffman's ratio is
    read from spec(M) as it is."""
    z, _m, lam = start
    return float(lam[-1] / z[0] + 1.0), float(lam[-1] / -lam[0] + 1.0), float(-lam[0] / z[0])


def hoffman_bound(g: Graph) -> float:
    """lambda_1 / |lambda_n| + 1."""
    return _adjacency_bounds(_ones_start(g)[1])[1]


def wilf_upper_bound(g: Graph) -> float:
    """lambda_1 + 1."""
    if g.num_edges == 0:
        return 1.0
    return _adjacency_bounds(_ones_start(g)[1])[0]


def barnes_bound(g: Graph) -> Tuple[float, np.ndarray]:
    """Largest eigenvalue of D^{-1/2} A D^{-1/2} plus one, and the D used.

    D = |lambda_n| I, the smallest multiple of I with A + D positive
    semidefinite, so the matrix is weighted_adjacency(g, barnes_weight(g, d))
    = A / |lambda_n| and the value is the Hoffman bound, read from the same
    spectrum of A. Other feasible D gain nothing over tau: A + D >= 0 gives
    lambda_min >= -1 for the scaled matrix, so its Barnes value is at most
    tau_W + 1 for W = barnes_weight(g, d). Defined on every graph with an edge,
    connected or not: A + |lambda_n| I >= 0 and Hoffman's bound hold there.
    An edgeless graph raises DegenerateGraphError.
    """
    _wilf, hoffman, lam_n = _adjacency_bounds(_ones_start(g)[1])
    return hoffman, np.full(g.n, lam_n)


def tau_bound(g: Graph, z) -> float:
    """tau_W + 1 for M = W * A, W given by its edge values z; never exceeds the chromatic
    number. Raises DegenerateGraphError for an edgeless graph or a z that vanishes on
    every edge."""
    if g.num_edges == 0:
        raise DegenerateGraphError("graph has no edges")
    edges, z = _edge_values(g, z)
    return float(minimal_tau(edges.evaluate(z)[2]) + 1.0)


# ---------------------------------------------------------------------------
# Defaults shared by optimize_weight, BoundConfig and the CLI flags

METHODS = ("wilf", "hoffman", "tau-ones", "barnes", "tau-opt", "exact")
DEFAULT_RESTARTS, DEFAULT_ITERATIONS, DEFAULT_SEED = 8, 200, 0
DEFAULT_EXACT_LIMIT = 30  # the exact oracle runs on graphs with at most this many vertices


# ---------------------------------------------------------------------------
# Weight optimization (gradient ascent on the smoothed Hoffman ratio)

STEP, MIN_STEP = 0.1, 1e-4  # step along the sphere ||M||_F = 1; a smaller one ends the ascent
MU, MIN_MU = 0.05, 0.02  # log-sum-exp width of the smoothing, and its floor


# A restart returns its start if its first gradient has no direction: its tangent part is at
# most STATIONARY_RTOL * |grad| (at most 7e-13 at the all-ones start of C5-C11 odd, Petersen
# and mycielski1, at least 0.47 at every other corpus start), or |grad| <= n * EPS * sum |c_k|,
# the rounding level of entries that are sums of n products of magnitude <= |c_k| (Higham's
# gamma_n): 0.12-1.3 EPS * sum |c_k| on C101-C801 from any start, and at least 1.4e12 times
# that at every non-tight corpus start (seeds 1-14, real and complex).
STATIONARY_RTOL = 1e-8
EPS = np.finfo(float).eps


def _smoothing_buffer(n):
    """The buffer `_smoothed_ratio` writes its weights into, for spectra of length n: a 2 x n
    array and its two rows."""
    w = np.empty((2, n))
    return w, w[0], w[1]


def _smoothed_ratio(lam, mu, buf):
    """lambda_1 / -lambda_n of an ascending spectrum, both smoothed by log-sum-exp of
    width mu, and the terms `_ratio_derivatives` forms its derivatives from.

    The weights exp((lam - lambda_1) / mu) and exp((lambda_n - lam) / mu) are the rows of
    the `_smoothing_buffer` buf and share one exp and one sum; the terms hold those rows,
    valid until the buffer's next use."""
    w, top_w, bot_w = buf
    lo, hi = float(lam[0]), float(lam[-1])
    np.subtract(lam, hi, top_w)
    np.subtract(lo, lam, bot_w)
    np.divide(w, mu, w)
    np.exp(w, w)
    top_s, bot_s = np.add.reduce(w, 1).tolist()
    top = hi + mu * math.log(top_s)
    bot = lo - mu * math.log(bot_s)
    ratio = top / -bot
    return ratio, (top_w, top_s, bot_w, bot_s, bot)


def _ratio_derivatives(ratio, terms):
    """The smoothed ratio's derivatives c_k in the eigenvalues lam_k, formed in the
    buffer of `terms`, which they overwrite."""
    top_w, top_s, bot_w, bot_s, bot = terms
    np.divide(top_w, top_s, out=top_w)
    np.multiply(bot_w, ratio, out=bot_w)
    np.divide(bot_w, bot_s, out=bot_w)
    np.add(top_w, bot_w, out=top_w)
    return np.divide(top_w, -bot, out=top_w)


def _edge_gradient(v, c, upper, vc, prod):
    """sum_k c_k dlambda_k / dz_uv = 2 sum_k c_k v_k[u] conj(v_k[v]) (Lewis & Overton 1996),
    read at the flat positions upper = u*n + v; its real and imaginary parts are the
    derivatives along Re z_uv and Im z_uv. v * c and its product with v^H are formed in the
    n x n buffers vc and prod."""
    vh = v.conj().T if v.dtype.kind == "c" else v.T
    np.multiply(v, c, out=vc)
    np.matmul(vc, vh, out=prod)
    return 2.0 * prod.take(upper)


def _tangent_norm(grad, z):
    """The norm of grad's part orthogonal to z in the real inner product Re <grad, z>: the
    part a step keeps after renormalization."""
    if z.dtype.kind == "c":
        dot = grad.real.dot(z.real) + grad.imag.dot(z.imag)
    else:
        dot = grad.dot(z)
    return _norm(grad - (dot / _norm(z) ** 2) * z)


def _ascend(edges, start, budget):
    """Ascent from an `_EdgeMatrices.evaluate` triple in at most `budget` eigensolves, the
    start's included.

    Returns the last accepted z and its spectrum. Every candidate's M is written into the
    one buffer of `edges` for its dtype and judged on eigenvalues; only an accepted one
    pays for the derivatives c_k and the eigenvectors of its gradient, and only if a step
    can still follow it. The smoothed ratio is not 0-homogeneous (mu is absolute), so the
    gradient has a part along z, which the renormalization of the next candidate
    discards. If the first gradient is along z to rounding, or is rounding (STATIONARY_RTOL),
    no step has a direction to follow, so the restart returns the start. Success (the start
    is one) grows the step 1.5-fold, failure halves the step and mu, and a step below
    MIN_STEP stops early. The smoothing weights and the gradient's n x n products live in
    buffers allocated once per call.
    """
    step, mu, ratio = STEP, MU, -math.inf
    cand, m, cand_lam = start
    buf = _smoothing_buffer(len(cand_lam))
    vc, prod = np.empty((2,) + m.shape, m.dtype)  # eigh returns vectors of m's dtype, C-ordered
    solves = 1
    while True:
        cand_ratio, terms = _smoothed_ratio(cand_lam, mu, buf)
        if cand_ratio > ratio:
            z, lam, ratio = cand, cand_lam, cand_ratio
            if solves >= budget - 1:  # no candidate could follow a gradient solved now
                break
            c = _ratio_derivatives(ratio, terms)
            grad = _edge_gradient(linalg.eigensolve(m, vectors=True)[1], c, edges.upper, vc, prod)
            solves += 1
            norm = _norm(grad)
            if solves == 2 and (norm <= len(lam) * EPS * c.sum()  # every c_k > 0
                                or _tangent_norm(grad, z) <= STATIONARY_RTOL * norm):
                break  # the first gradient: the start is stationary
            step *= 1.5
        else:
            step /= 2.0
            if mu > MIN_MU:  # at the floor the smoothed ratio of lam stays as it is
                mu = max(mu / 2.0, MIN_MU)
                ratio = _smoothed_ratio(lam, mu, buf)[0]
        if solves >= budget or step < MIN_STEP:
            break
        cand, m, cand_lam = edges.evaluate(z + (step / norm) * grad)
        solves += 1
    return z, lam


# tau + 1 within TIGHT_RTOL * q of an integer q counts as q. Relative, because the rounding
# of tau grows with n: all-ones tau + 1 is 1.6e-8 below 2048 on K2048 but 3.5e-13 from 2 on
# C2048, while the odd cycle C2047 is 1.2e-6 above 2.
TIGHT_RTOL = 1e-9


def _near_integer(x):
    """The integer q with |x - q| <= TIGHT_RTOL * q, or None."""
    q = round(x)
    return q if abs(x - q) <= TIGHT_RTOL * q else None


def optimize_weight(
    g: Graph, restarts=DEFAULT_RESTARTS, iterations=DEFAULT_ITERATIONS, seed=DEFAULT_SEED, allow_complex=False
) -> Tuple[np.ndarray, float]:
    """Heuristically maximize tau_W over Hermitian edge weightings: the winner's edge values
    z, scaled to ||M||_F = 1, and its tau.

    The all-ones weighting is evaluated first. If its tau + 1 is within TIGHT_RTOL * q of an
    integer q and greedy DSATUR colors g with at most q colors, it is returned at once:
    every weighting has tau_W + 1 <= chi <= q, so the skipped search could have gained at
    most TIGHT_RTOL * q in tau. Greedy DSATUR runs only when that integer test passes.

    Otherwise each restart runs `_ascend`, which climbs a lower bound on tau, and is scored
    by tau. The all-ones weighting is the incumbent and restart 0's start, so the result is
    at least the ones baseline; restart r > 0 draws per-edge weights from uniform[0.5, 1.5]
    (times phases from uniform[0, 2pi) for complex weights), seeded as seed + r.
    `iterations` caps eigensolves per restart. The returned tau is the winner's score.
    Arguments that `BoundConfig` refuses raise its ValueError.
    """
    config = BoundConfig(restarts=restarts, iterations=iterations, seed=seed, allow_complex=allow_complex)
    edges, start = _ones_start(g)
    return _weight_search(g, edges, start, minimal_tau(start[2]), config)


def _weight_search(g, edges, start, start_tau, config, num_colors=None):
    """`optimize_weight` with the `BoundConfig` config, from the all-ones triple `start` of
    `_ones_start` and its tau: the winning edge values (||M||_F = 1) and the tau they scored.

    num_colors, if given, is the color count of a proper coloring of g, the exact oracle's;
    the skip test reads it in place of greedy DSATUR's, which uses no fewer colors."""
    best_z, best_tau = start[0], start_tau
    q = _near_integer(best_tau + 1.0)
    if q is not None and (greedy_dsatur(g).num_colors if num_colors is None else num_colors) <= q:
        return best_z, best_tau
    for r_idx in range(config.restarts):
        if r_idx > 0:
            rng = random.Random(config.seed + r_idx)
            z = np.array([rng.uniform(0.5, 1.5) for _ in range(g.num_edges)])
            if config.allow_complex:
                z = z * np.exp(1j * np.array([rng.uniform(0.0, 2.0 * math.pi) for _ in range(g.num_edges)]))
            start = edges.evaluate(z)
        z, lam = _ascend(edges, start, config.iterations)
        tau = minimal_tau(lam)
        if tau > best_tau + 1e-15:
            best_tau, best_z = tau, z
    return best_z, best_tau


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

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown method {unknown[0]!r}; known methods: {', '.join(METHODS)}")
        for name, least in (("restarts", 1), ("iterations", 1), ("seed", 0), ("exact_limit", 0)):
            setattr(self, name, _count(getattr(self, name), name, least))


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


def _ceil_with_slack(x):
    return int(math.ceil(x - 1e-6))


def chromatic_lower_bound(g: Graph, config: Optional[BoundConfig] = None, graph_id="graph") -> BoundReport:
    """Run every requested bound and aggregate into a BoundReport. The exact oracle, where
    it is asked for and n <= exact_limit, runs first, so the weight search's skip test can
    read its chi."""
    config = config or BoundConfig()
    report = BoundReport(graph_id=graph_id, n=g.n, m=g.num_edges, seed=config.seed)
    methods = set(config.methods)
    oracle = exact_chi(g) if "exact" in methods and g.n <= config.exact_limit else None

    if g.num_edges == 0:
        if "wilf" in methods:
            report.wilf = wilf_upper_bound(g)
        if methods & {"hoffman", "tau-ones", "tau-opt", "barnes"}:
            report.notes.append("edgeless: spectral lower bounds undefined, reporting 1")
    elif methods & {"wilf", "hoffman", "tau-ones", "barnes", "tau-opt"}:
        edges, start = _ones_start(g)
        wilf, hoffman, lam_n = _adjacency_bounds(start)
        if "wilf" in methods:
            report.wilf = wilf
        if "hoffman" in methods:
            report.hoffman = hoffman
        if methods & {"tau-ones", "tau-opt"}:
            tau_ones = minimal_tau(start[2])
        if "tau-ones" in methods:
            report.tau_ones = tau_ones + 1.0
        if "barnes" in methods:
            report.barnes = hoffman
            report.certificates["barnesD"] = [fmt12(lam_n)] * g.n
        if "tau-opt" in methods:
            z, tau = _weight_search(g, edges, start, tau_ones, config, None if oracle is None else oracle.chi)
            report.tau_optimized = tau + 1.0
            report.certificates["optimizedWeight"] = [
                [u, v, fmt12(re), fmt12(im)]
                for u, v, re, im in zip(g.us.tolist(), g.vs.tolist(), z.real.tolist(), z.imag.tolist())
            ]
    if "exact" in methods:
        if oracle is None:
            report.notes.append(f"n > exact limit {config.exact_limit}: exact chi skipped")
        elif oracle.timed_out:
            report.notes.append(
                f"exact oracle timed out after {oracle.nodes_explored} nodes (best known {oracle.chi})"
            )
        else:
            report.exact_chi = oracle.chi

    lowers = report.lower_bounds()
    report.lower = _ceil_with_slack(max(lowers)) if lowers else 1
    return report
