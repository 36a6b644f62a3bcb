"""Simple undirected graphs: DIMACS I/O and deterministic generators. `generate` builds
any kind in `GENERATORS` and refuses more than `MAX_VERTICES` vertices before building."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

# Vertex limit for every graph the CLI loads or generates. bound, compare and
# reverse build dense n x n matrices (64 MiB each when complex at this n), and
# chi's DSATUR works on n-bit integers (at this n on G(n, 0.01), greedy DSATUR
# takes 0.03 s and the default budget of 10^6 nodes about 6 s). reverse also
# refuses a q-coloring map with (q - 1) n^2 > MAX_VERTICES^2: applying each of
# its q - 1 phase-vector unitaries touches all n^2 target entries.
MAX_VERTICES = 2048


class DimacsError(ValueError):
    """Raised on malformed DIMACS .col input; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _normalize_edge(u, v):
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Edges are stored as a frozenset of sorted pairs; no self-loops,
    no duplicates, all endpoints in range.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        edges = frozenset(_normalize_edge(u, v) for u, v in self.edges)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range [0, {self.n})")
        object.__setattr__(self, "edges", edges)

    @property
    def num_edges(self):
        return len(self.edges)

    def has_edge(self, u, v):
        return _normalize_edge(u, v) in self.edges

    def adjacency_lists(self):
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        return adj

    def degree(self, v):
        return sum(1 for e in self.edges if v in e)


@dataclass(frozen=True)
class Coloring:
    """Vertex coloring with colors in [0, num_colors).

    Producers are expected to guarantee properness; `is_proper` checks it.
    """

    colors: tuple
    num_colors: int

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))
        if self.num_colors < 1:
            raise ValueError("num_colors must be positive")
        for c in self.colors:
            if not (0 <= c < self.num_colors):
                raise ValueError(f"color {c} outside [0, {self.num_colors})")


def parse_dimacs(text) -> Graph:
    """Parse DIMACS .col text (bytes or str) into a Graph.

    Vertices are 1-indexed in the file and 0-indexed in the result.
    Duplicate edge lines collapse; `e u v` equals `e v u`. The edge
    count on the `p` line is advisory (mismatch is not an error).
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    n = None
    declared_m = None
    edges = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise DimacsError("duplicate p line", line_no)
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError(f"malformed p line: {line!r}", line_no)
            try:
                n = int(fields[2])
                declared_m = int(fields[3])
            except ValueError:
                raise DimacsError(f"non-integer counts in p line: {line!r}", line_no)
            if n < 1:
                raise DimacsError(f"vertex count must be >= 1, got {n}", line_no)
        elif fields[0] == "e":
            if n is None:
                raise DimacsError("e line before p line", line_no)
            if len(fields) != 3:
                raise DimacsError(f"malformed e line: {line!r}", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(f"non-integer vertex in e line: {line!r}", line_no)
            if u == v:
                raise DimacsError(f"self-loop edge {u} {v}", line_no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"vertex index {max(u, v)} outside [1, {n}]", line_no)
            edges.add(_normalize_edge(u - 1, v - 1))
        else:
            raise DimacsError(f"unrecognized line: {line!r}", line_no)
    if n is None:
        raise DimacsError("missing p line")
    # declared_m is advisory: real .col files routinely get it wrong
    del declared_m
    return Graph(n, frozenset(edges))


def emit_dimacs(g: Graph, comment=None) -> str:
    """Serialize a Graph to DIMACS .col text (1-indexed)."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p edge {g.n} {g.num_edges}")
    for u, v in sorted(g.edges):
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators


def complete(n) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, frozenset(combinations(range(n), 2)))


def cycle(n) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, frozenset(_normalize_edge(i, (i + 1) % n) for i in range(n)))


def star(n) -> Graph:
    """Star K_{1,n-1}: vertex 0 adjacent to all others."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Graph(n, frozenset((0, i) for i in range(1, n)))


def kneser(n, k) -> Graph:
    """Kneser graph: k-subsets of [n], adjacent iff disjoint."""
    if k < 1 or 2 * k > n:
        raise ValueError(f"kneser needs 1 <= k <= n/2, got n={n}, k={k}")
    subsets = [frozenset(s) for s in combinations(range(n), k)]
    edges = set()
    for i, j in combinations(range(len(subsets)), 2):
        if not (subsets[i] & subsets[j]):
            edges.add((i, j))
    return Graph(len(subsets), frozenset(edges))


def petersen() -> Graph:
    return kneser(5, 2)


def mycielski(base: Graph) -> Graph:
    """Mycielski construction: chi increases by one, clique number preserved."""
    n = base.n
    edges = set(base.edges)
    for u, v in base.edges:
        edges.add(_normalize_edge(u, n + v))
        edges.add(_normalize_edge(v, n + u))
    apex = 2 * n
    for i in range(n):
        edges.add((n + i, apex))
    return Graph(2 * n + 1, frozenset(edges))


def erdos_renyi(n, p, seed) -> Graph:
    """G(n, p) with edges drawn in fixed pair order from random.Random(seed)."""
    if n < 1:
        raise ValueError("erdos_renyi needs n >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < p)
    return Graph(n, edges)


def mycielski_tower(levels) -> Graph:
    """Mycielski's construction `levels` times over K2: chi = levels + 2, 3 * 2^levels - 1 vertices."""
    if levels < 1:
        raise ValueError(f"mycielski tower needs levels >= 1, got {levels}")
    g = complete(2)
    for _ in range(levels):
        g = mycielski(g)
    return g


def _kneser_count(n, k):
    if not 1 <= k <= n // 2:  # kneser() rejects (n, k)
        return 0, False
    if n > MAX_VERTICES:  # C(n, k) >= n, and too costly to compute at large n
        return n, True
    return math.comb(n, k), False


def _integer(value):
    """int(value) without rounding: 3, "3", 3.0 and "1e3" pass; 3.7, "2.9", inf and nan raise."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    n = int(value)
    if n != value:
        raise ValueError(value)
    return n


# kind -> ((parameter, type), ...), vertex count from the parameters, builder. The count is
# (vertices, is a lower bound); a lower bound stands in where the exact count is too large.
GENERATORS = {
    "complete": ((("n", _integer),), lambda n: (n, False), complete),
    "cycle": ((("n", _integer),), lambda n: (n, False), cycle),
    "star": ((("n", _integer),), lambda n: (n, False), star),
    "petersen": ((), lambda: (10, False), petersen),
    "kneser": ((("n", _integer), ("k", _integer)), _kneser_count, kneser),
    # level 11 already has 6143 vertices
    "mycielski": ((("levels", _integer),), lambda lv: (3 * 2 ** min(lv, 11) - 1, lv > 11), mycielski_tower),
    "erdos-renyi": (
        (("n", _integer), ("p", float), ("seed", _integer)), lambda n, p, seed: (n, False), erdos_renyi
    ),
}


def generator_usage(kind) -> str:
    """`kind param ...`, e.g. `kneser n k`."""
    return " ".join([kind] + [name for name, _ in GENERATORS[kind][0]])


def generate(kind, *params) -> Graph:
    """Build a GENERATORS kind from its parameters, given as values or strings; the vertex
    count is checked against MAX_VERTICES before anything is built."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown graph kind {kind!r}; known kinds: {', '.join(GENERATORS)}")
    spec, count, build = GENERATORS[kind]
    if len(params) != len(spec):
        raise ValueError(f"{kind} takes {len(spec)} parameter(s): {generator_usage(kind)}")
    values = []
    for (name, type_), value in zip(spec, params):
        try:
            values.append(type_(value))
        except (TypeError, ValueError, OverflowError):
            what = "an integer" if type_ is _integer else "a number"
            raise ValueError(f"{kind}: parameter {name} must be {what}, got {value!r}") from None
    n, at_least = count(*values)
    if n > MAX_VERTICES:
        desc, bound = f"{kind}({', '.join(map(str, params))})", "at least " if at_least else ""
        raise ValueError(f"{desc}: {bound}{n} vertices exceed the limit of {MAX_VERTICES}")
    return build(*values)


# ---------------------------------------------------------------------------
# Basic queries


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Real symmetric 0/1 adjacency matrix with zero diagonal."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def is_proper(g: Graph, colors) -> bool:
    """True iff every edge is bichromatic under the given color vector."""
    colors = list(colors)
    if len(colors) != g.n:
        raise ValueError(f"color vector length {len(colors)} != n = {g.n}")
    return all(colors[u] != colors[v] for u, v in g.edges)


def is_connected(g: Graph) -> bool:
    adj = g.adjacency_lists()
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == g.n


def default_corpus():
    """The named test corpus: (name, Graph) pairs, deterministic order.

    Completes K2..K8, cycles C3..C12, two stars, Petersen, the Mycielski
    tower over K2 up to 23 vertices, and ten seeded G(n, 0.4) instances.
    """
    out = []
    for n in range(2, 9):
        out.append((f"K{n}", complete(n)))
    for n in range(3, 13):
        out.append((f"C{n}", cycle(n)))
    out.append(("star5", star(5)))
    out.append(("star9", star(9)))
    out.append(("petersen", petersen()))
    for level in range(1, 4):  # n = 5, 11, 23
        out.append((f"mycielski{level}", mycielski_tower(level)))
    gnp_sizes = [8, 9, 10, 11, 12, 13, 14, 15, 16, 12]
    for i, n in enumerate(gnp_sizes):
        out.append((f"gnp{n}_s{i}", erdos_renyi(n, 0.4, seed=100 + i)))
    return out
