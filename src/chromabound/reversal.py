"""Sign-reversal maps: weighted unitary families that negate a matrix.

Two constructions are provided: the coloring-derived map (cost one less
than the number of colors, built from powers of a root-of-unity diagonal)
and the group map over the Weyl-Heisenberg family (cost n^2 - 1). The
spectral lower bound on any map's cost is the minimal-tau value.

Targets must be traceless by the rule minimal_tau applies to a spectrum,
|tr T| <= TAU_RTOL * ||T||_F, and a map verifies when its residual is
within tol * ||T||_F. Both rules are relative to the target's own norm,
so they give the same verdict for T and c * T at every scale c > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import linalg
from .graphs import Coloring, Graph, is_proper
from .linalg import fmt12
from .majorization import TAU_RTOL, minimal_tau


@dataclass(frozen=True, eq=False)
class SignReversalMap:
    """Terms (r_j, U_j) with r_j > 0 and U_j unitary."""

    n: int
    terms: Tuple[Tuple[float, np.ndarray], ...]

    def __post_init__(self):
        checked = []
        for r, u in self.terms:
            r = float(r)
            if r <= 0.0:
                raise ValueError(f"term weight must be positive, got {r}")
            u = linalg.check_unitary(u)
            if u.shape != (self.n, self.n):
                raise ValueError(f"unitary shape {u.shape} != ({self.n}, {self.n})")
            checked.append((r, u))
        object.__setattr__(self, "terms", tuple(checked))


def reversal_cost(m: SignReversalMap) -> float:
    return float(sum(r for r, _ in m.terms))


def apply_reversal(m: SignReversalMap, target) -> np.ndarray:
    """Sum of r_j U_j^H target U_j over the map's terms."""
    target = np.asarray(target, dtype=complex)
    if target.shape != (m.n, m.n):
        raise ValueError(f"target shape {target.shape} != ({m.n}, {m.n})")
    out = np.zeros_like(target)
    for r, u in m.terms:
        out += r * (u.conj().T @ target @ u)
    return out


@dataclass(frozen=True)
class ReversalCheck:
    ok: bool
    residual: float


def verify_reversal(m: SignReversalMap, target, tol=1e-9) -> ReversalCheck:
    """Residual ||apply(m, target) + target||_F against tol * ||target||_F.

    The target must be traceless: |tr T| <= TAU_RTOL * ||T||_F.
    """
    target = np.asarray(target, dtype=complex)
    scale = np.linalg.norm(target)
    trace = np.trace(target)
    if abs(trace) > TAU_RTOL * scale:
        raise ValueError(f"target is not traceless (trace {trace:.3e})")
    residual = float(np.linalg.norm(apply_reversal(m, target) + target))
    return ReversalCheck(bool(residual <= tol * scale), residual)


def reversal_from_coloring(g: Graph, coloring: Coloring) -> SignReversalMap:
    """Map of cost (num_colors - 1) negating any edge-supported Hermitian.

    Terms are powers D^j (j = 1..q-1) of D = diag(omega^{c_k}) with omega
    a primitive q-th root of unity; works for every weight matrix because
    the conjugation sum vanishes entrywise on non-edges and cancels on
    edges by root-of-unity orthogonality.
    """
    if len(coloring.colors) != g.n:
        raise ValueError(f"coloring length {len(coloring.colors)} != n = {g.n}")
    if not is_proper(g, coloring.colors):
        raise ValueError("coloring is not proper for this graph")
    q = coloring.num_colors
    if q < 2:
        if g.num_edges:
            raise ValueError("graphs with edges need at least 2 colors")
        raise ValueError("sign reversal from a 1-coloring is empty")
    omega = np.exp(2j * np.pi / q)
    d = omega ** np.asarray(coloring.colors)
    terms = tuple((1.0, np.diag(d**j)) for j in range(1, q))
    return SignReversalMap(g.n, terms)


def weyl_heisenberg_family(n) -> List[np.ndarray]:
    """The n^2 unitaries X^a Z^b (cyclic shift and modulation), identity first."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    omega = np.exp(2j * np.pi / n)
    shift = np.zeros((n, n), dtype=complex)
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
    clock = np.diag(omega ** np.arange(n))
    out = []
    xa = np.eye(n, dtype=complex)
    for _a in range(n):
        zb = np.eye(n, dtype=complex)
        for _b in range(n):
            out.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return out


def schur_average(m) -> np.ndarray:
    """Average of U^H m U over the Weyl-Heisenberg family: (tr m / n) I."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    acc = np.zeros_like(m)
    for u in weyl_heisenberg_family(n):
        acc += u.conj().T @ m @ u
    return acc / (n * n)


def group_sign_reversal(n) -> SignReversalMap:
    """Unit-weight terms over the n^2 - 1 non-identity family members.

    Negates every traceless Hermitian matrix; cost n^2 - 1.
    """
    if n < 2:
        raise ValueError("group reversal needs dimension >= 2")
    family = weyl_heisenberg_family(n)
    return SignReversalMap(n, tuple((1.0, u) for u in family[1:]))


def cost_lower_bound(target) -> float:
    """Spectral lower bound on the cost of any sign-reversal map for target."""
    return minimal_tau(linalg.spectrum(target))


def serialize_map(m: SignReversalMap) -> dict:
    """JSON-ready document: weights and row-major [re, im] unitary entries."""
    terms = []
    for r, u in m.terms:
        rows = [[[fmt12(z.real), fmt12(z.imag)] for z in row] for row in u]
        terms.append({"r": fmt12(r), "U": rows})
    return {"n": m.n, "terms": terms}


def deserialize_map(doc: dict) -> SignReversalMap:
    n = int(doc["n"])
    terms = []
    for t in doc["terms"]:
        u = np.array([[complex(re, im) for re, im in row] for row in t["U"]])
        terms.append((float(t["r"]), u))
    return SignReversalMap(n, tuple(terms))
