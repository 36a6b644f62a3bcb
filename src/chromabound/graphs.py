"""Simple undirected graphs: DIMACS I/O and deterministic generators. `generate` builds
any kind in `GENERATORS` and refuses more than `MAX_VERTICES` vertices before building.

A `Graph` stores its edges once, as endpoint arrays us < vs in ascending (u, v) order,
and every module reads them there: the edge matrices of `bounds`, certificates, DIMACS
output, the adjacency matrix and lists, and the properness check.

Every count and seed a caller passes in (a Graph's n, a Coloring's num_colors, the
generators' parameters, `BoundConfig`'s counts, `exact_chi`'s budget, a map's
dimension, and the sizes and seeds of `linalg`'s random builders) is read by `_count`:
an integer, Python's or numpy's but not a bool, of at least the least value, stored as
a Python int, or ValueError naming it."""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# Vertex limit for every graph the CLI loads or generates. bound, compare and
# reverse build dense n x n matrices (64 MiB each when complex at this n), and
# chi's DSATUR works on n-bit integers (at this n on G(n, 0.01), greedy DSATUR
# takes 0.03 s and the default budget of 10^6 nodes about 6 s). reverse also
# refuses a q-coloring map with (q - 1) n^2 > MAX_VERTICES^2: applying each of
# its q - 1 phase-vector unitaries touches all n^2 target entries. A coloring
# file's labels are compacted to 0..q-1 first, so q <= n <= MAX_VERTICES.
MAX_VERTICES = 2048


class DimacsError(ValueError):
    """Raised on malformed DIMACS .col input; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _count(value, what, least):
    """value as a Python int, if it is an integer (anything with __index__ but a bool) of at
    least `least`; else ValueError naming `what`."""
    if not isinstance(value, (bool, np.bool_)) and hasattr(type(value), "__index__"):
        count = operator.index(value)
        if count >= least:
            return count
    raise ValueError(f"{what}: expected an integer >= {least}, got {value!r}")


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    The graph owns its edge list, stored once as two read-only intp arrays
    `us` < `vs`, one entry per edge, in ascending (u, v) order. Certificates,
    DIMACS output and every query read the edges in that order. `Graph(n,
    edges)` accepts any iterable of vertex pairs, in either orientation and
    with repeats, and rejects self-loops, endpoints outside [0, n), and an n
    or an endpoint that is not an integer (Python's, numpy's, or anything
    with __index__): 1.5, 1.0 and "1" are refused, never truncated or parsed.
    `edges` is the same list as a frozenset of (u, v) tuples, built on
    first use; two graphs are equal when n and the arrays are.
    """

    def __init__(self, n, edges=()):
        n = _count(n, "vertex count", 1)
        limit = math.isqrt(np.iinfo(np.intp).max)  # edges are keyed lo * n + hi in intp
        if n > limit:
            raise ValueError(f"vertex count {n} exceeds {limit}, the limit for intp edge keys")
        if not isinstance(edges, (list, tuple, np.ndarray)):
            edges = list(edges)
        pairs = np.array(edges).reshape(len(edges), 2)
        if pairs.dtype.kind not in "iu":  # floats, strings, objects, or no edges at all
            for x in (x for pair in edges for x in pair):
                try:
                    operator.index(x)
                except TypeError:
                    raise ValueError(f"edge endpoint {x!r} is not an integer") from None
        pairs = pairs.astype(np.intp, copy=False)
        lo, hi = np.sort(pairs, axis=1).T
        loops = np.flatnonzero(lo == hi)
        if len(loops):
            raise ValueError(f"self-loop at vertex {lo[loops[0]]}")
        outside = np.flatnonzero((lo < 0) | (hi >= n))
        if len(outside):
            k = outside[0]
            raise ValueError(f"edge ({lo[k]}, {hi[k]}) out of range [0, {n})")
        # sort, then keep each key unlike the one before: np.unique hashes from numpy 2.3 on,
        # and on a million edges takes 0.8 s against 0.02 s for this
        keys = np.sort(lo * n + hi)
        self.n = n
        self.us, self.vs = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        self.us.flags.writeable = self.vs.flags.writeable = False

    @functools.cached_property
    def edges(self):
        return frozenset(zip(self.us.tolist(), self.vs.tolist()))

    @property
    def num_edges(self):
        return len(self.us)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.us, other.us) and np.array_equal(self.vs, other.vs)

    def __hash__(self):
        return hash((self.n, self.us.tobytes(), self.vs.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, num_edges={self.num_edges})"

    def adjacency_lists(self):
        """Each vertex's neighbours, ascending. In (u, v) order a vertex's lower neighbours
        come, ascending, as the u of the edges ending at it, before its higher ones, as the
        v of the edges starting at it, so one stable sort by vertex lists them in order."""
        at = np.concatenate((self.vs, self.us))
        nbrs = np.concatenate((self.us, self.vs))[np.argsort(at, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(at, minlength=self.n)).tolist()
        return [nbrs[a:b] for a, b in zip([0] + ends, ends)]


@dataclass(frozen=True)
class Coloring:
    """Vertex coloring with colors in [0, num_colors).

    Producers are expected to guarantee properness; `is_proper` checks it. Colors and
    num_colors must be integers, as a Graph's vertices must: 0.5 and 2.5 are refused.
    """

    colors: tuple
    num_colors: int

    def __post_init__(self):
        object.__setattr__(self, "num_colors", _count(self.num_colors, "num_colors", 1))
        colors = tuple(self.colors)
        try:
            object.__setattr__(self, "colors", tuple(map(operator.index, colors)))
        except TypeError:
            bad = next(c for c in colors if not hasattr(type(c), "__index__"))
            raise ValueError(f"color {bad!r} is not an integer") from None
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
    edges = []
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
            edges.append((u - 1, v - 1))
        else:
            raise DimacsError(f"unrecognized line: {line!r}", line_no)
    if n is None:
        raise DimacsError("missing p line")
    # declared_m is advisory: real .col files routinely get it wrong
    del declared_m
    return Graph(n, edges)


def emit_dimacs(g: Graph, comment=None) -> str:
    """Serialize a Graph to DIMACS .col text (1-indexed)."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p edge {g.n} {g.num_edges}")
    lines += [f"e {u} {v}" for u, v in zip((g.us + 1).tolist(), (g.vs + 1).tolist())]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators


def complete(n) -> Graph:
    n = _count(n, "complete n", 1)
    return Graph(n, list(combinations(range(n), 2)))


def cycle(n) -> Graph:
    n = _count(n, "cycle n", 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n) -> Graph:
    """Star K_{1,n-1}: vertex 0 adjacent to all others."""
    n = _count(n, "star n", 2)
    return Graph(n, [(0, i) for i in range(1, n)])


def kneser(n, k) -> Graph:
    """Kneser graph: k-subsets of [n], adjacent iff disjoint."""
    n, k = _count(n, "kneser n", 2), _count(k, "kneser k", 1)
    if 2 * k > n:
        raise ValueError(f"kneser needs 1 <= k <= n/2, got n={n}, k={k}")
    subsets = [frozenset(s) for s in combinations(range(n), k)]
    pairs = combinations(range(len(subsets)), 2)
    return Graph(len(subsets), [(i, j) for i, j in pairs if not (subsets[i] & subsets[j])])


def petersen() -> Graph:
    return kneser(5, 2)


def mycielski(base: Graph) -> Graph:
    """Mycielski construction: chi increases by one, clique number preserved."""
    n, us, vs = base.n, base.us, base.vs
    # the copy n + v of v is adjacent to v's neighbours, and the apex 2n to every copy
    pairs = (us, vs), (us, n + vs), (vs, n + us), (np.arange(n, 2 * n), np.full(n, 2 * n))
    return Graph(2 * n + 1, np.hstack(pairs).T)


def erdos_renyi(n, p, seed) -> Graph:
    """G(n, p) with edges drawn in fixed pair order from random.Random(seed), seed >= 0."""
    n, seed = _count(n, "erdos-renyi n", 1), _count(seed, "erdos-renyi seed", 0)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def mycielski_tower(levels) -> Graph:
    """Mycielski's construction `levels` times over K2: chi = levels + 2, 3 * 2^levels - 1 vertices."""
    levels = _count(levels, "mycielski levels", 1)
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
    a[g.us, g.vs] = a[g.vs, g.us] = 1.0
    return a


def is_proper(g: Graph, colors) -> bool:
    """True iff every edge is bichromatic under the given color vector."""
    colors = np.asarray(colors)
    if len(colors) != g.n:
        raise ValueError(f"color vector length {len(colors)} != n = {g.n}")
    return not np.any(colors[g.us] == colors[g.vs])


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
