"""Sign-reversal maps: weighted unitary families that negate a matrix.

Every unitary is monomial, U = P diag(d): column k is d[k] times basis
vector perm[k], with |d[k]| = 1. A term is stored as (r, perm, d), never
as an n x n matrix, so (U^H T U)_ij = conj(d_i) T[perm_i, perm_j] d_j
costs O(n^2). The coloring-derived map (cost one less than the number
of colors) takes powers of a root-of-unity diagonal, and the group map
(cost n^2 - 1) the Weyl-Heisenberg family X^a Z^b, each a shifted
diagonal. The spectral lower bound on any map's cost is minimal tau.

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
    """Terms (r_j, perm_j, d_j) with r_j > 0 and unitary U_j = P_j diag(d_j)."""

    n: int
    terms: Tuple[Tuple[float, np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(_check_term(self.n, *t) for t in self.terms))


def _check_term(n, r, perm, d):
    """A positive weight, a permutation of range(n) and n phases of modulus 1."""
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"term weight must be positive, got {r}")
    perm = np.asarray(perm)
    if perm.shape != (n,) or perm.dtype.kind not in "iu" or np.any(np.sort(perm) != np.arange(n)):
        raise ValueError(f"perm of shape {perm.shape} is not a permutation of range({n})")
    d = np.asarray(d, dtype=complex)
    if d.shape != (n,):
        raise ValueError(f"phase vector shape {d.shape} != ({n},)")
    dev = np.max(np.abs(np.abs(d) - 1.0), initial=0.0)
    if not dev <= linalg.UNITARY_TOL:  # also rejects NaN
        raise ValueError(f"term is not unitary (max ||d_k| - 1| = {dev:.3e})")
    return r, perm, d


def reversal_cost(m: SignReversalMap) -> float:
    return float(sum(r for r, _, _ in m.terms))


def apply_reversal(m: SignReversalMap, target) -> np.ndarray:
    """Sum of r_j U_j^H target U_j over the map's terms.

    Each term is formed in one reused n x n buffer and added into the result; a term
    with the identity permutation reads the target without gathering it.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (m.n, m.n):
        raise ValueError(f"target shape {target.shape} != ({m.n}, {m.n})")
    out, term = np.zeros_like(target), np.empty_like(target)
    identity = np.arange(m.n)
    for r, perm, d in m.terms:
        moved = target if np.array_equal(perm, identity) else target[np.ix_(perm, perm)]
        np.multiply((r * d.conj())[:, None], moved, out=term)
        np.multiply(term, d, out=term)
        out += term
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
    out = apply_reversal(m, target)
    out += target
    residual = float(np.linalg.norm(out))
    return ReversalCheck(bool(residual <= tol * scale), residual)


def reversal_from_coloring(g: Graph, coloring: Coloring) -> SignReversalMap:
    """Map of cost (num_colors - 1) negating any edge-supported Hermitian.

    Terms are powers D^j (j = 1..q-1) of D = diag(omega^{c_k}) with omega
    a primitive q-th root of unity; works for every weight matrix because
    the conjugation sum vanishes entrywise on non-edges and cancels on
    edges by root-of-unity orthogonality. Term j's phase at vertex k is
    taken from its exact angle, exp(2 pi i ((c_k j) mod q) / q), so it has
    modulus 1 to rounding at every q.
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
    colors, identity = np.asarray(coloring.colors), np.arange(g.n)
    return SignReversalMap(
        g.n, tuple((1.0, identity, np.exp(2j * np.pi * (colors * j % q) / q)) for j in range(1, q))
    )


def weyl_heisenberg_family(n) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The n^2 unitaries X^a Z^b as (perm, d), identity first: ((k + a) mod n, omega^{b k})."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    k = np.arange(n)
    return [((k + a) % n, np.exp(2j * np.pi * (b * k % n) / n)) for a in range(n) for b in range(n)]


def schur_average(m) -> np.ndarray:
    """Average of U^H m U over the Weyl-Heisenberg family: (tr m / n) I."""
    n = np.shape(m)[0]
    family = weyl_heisenberg_family(n)
    return apply_reversal(SignReversalMap(n, tuple((1.0 / n**2, p, d) for p, d in family)), m)


def group_sign_reversal(n) -> SignReversalMap:
    """Unit-weight terms over the n^2 - 1 non-identity family members.

    Negates every traceless Hermitian matrix; cost n^2 - 1.
    """
    if n < 2:
        raise ValueError("group reversal needs dimension >= 2")
    family = weyl_heisenberg_family(n)
    return SignReversalMap(n, tuple((1.0, perm, d) for perm, d in family[1:]))


def cost_lower_bound(target) -> float:
    """Spectral lower bound on the cost of any sign-reversal map for target."""
    return minimal_tau(linalg.spectrum(target))


def serialize_map(m: SignReversalMap) -> dict:
    """JSON-ready document: per term its weight, permutation and [re, im] phases."""
    terms = [
        {"r": fmt12(r), "perm": perm.tolist(), "d": [[fmt12(z.real), fmt12(z.imag)] for z in d]}
        for r, perm, d in m.terms
    ]
    return {"n": m.n, "terms": terms}


def deserialize_map(doc: dict) -> SignReversalMap:
    """Read serialize_map's document; one that is not a map raises ValueError."""
    try:
        n = int(doc["n"])
        terms = tuple(
            (float(t["r"]), t["perm"], [complex(re, im) for re, im in t["d"]]) for t in doc["terms"]
        )
    except KeyError as exc:
        raise ValueError(f"map document has no {exc.args[0]!r} field") from None
    return SignReversalMap(n, terms)
