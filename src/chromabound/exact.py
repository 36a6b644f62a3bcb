"""Exact chromatic number via DSATUR branch and bound.

Ground-truth oracle for the soundness tests: greedy DSATUR supplies the
upper bound, a greedy clique the lower bound, and branch and bound over
saturation-ordered vertices closes the gap. Fully deterministic (all
tie-breaks by lowest vertex index).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Coloring, Graph, is_proper

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class ColoringResult:
    chi: int
    witness: Coloring
    nodes_explored: int
    timed_out: bool


def greedy_dsatur(g: Graph) -> Coloring:
    """Proper coloring by descending saturation; ties by degree then index."""
    n = g.n
    adj = [set(nbrs) for nbrs in g.adjacency_lists()]
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    for _ in range(n):
        best = -1
        for v in range(n):
            if colors[v] >= 0:
                continue
            if best < 0:
                best = v
                continue
            sat_v, sat_b = len(neighbor_colors[v]), len(neighbor_colors[best])
            key_v = (sat_v, len(adj[v]), -v)
            key_b = (sat_b, len(adj[best]), -best)
            if key_v > key_b:
                best = v
        c = 0
        while c in neighbor_colors[best]:
            c += 1
        colors[best] = c
        for u in adj[best]:
            neighbor_colors[u].add(c)
    num = max(colors) + 1 if n else 1
    return Coloring(tuple(colors), num)


def greedy_clique(g: Graph) -> list:
    """Greedy max clique (degree order); lower bound seed for the search."""
    adj = [set(nbrs) for nbrs in g.adjacency_lists()]
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    clique = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


class _Budget:
    __slots__ = ("nodes", "limit", "exhausted")

    def __init__(self, limit):
        self.nodes = 0
        self.limit = limit
        self.exhausted = False

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            self.exhausted = True
        return self.exhausted


def exact_chi(g: Graph, budget=DEFAULT_BUDGET) -> ColoringResult:
    """Exact chromatic number unless the node budget runs out."""
    n = g.n
    adj = [set(nbrs) for nbrs in g.adjacency_lists()]
    seed = greedy_dsatur(g)
    best_colors = list(seed.colors)
    best_k = seed.num_colors
    lower = max(1, len(greedy_clique(g)))
    counter = _Budget(budget)

    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]

    # the DSATUR key (saturation, degree, -index) as one integer, compared
    # faster than a tuple: saturation * n^2 + rank[v], with rank[v] < n^2
    rank = [len(adj[v]) * n + n - 1 - v for v in range(n)]
    sat_weight = n * n

    def pick_vertex():
        best = -1
        key_best = -1
        for v in range(n):
            if colors[v] < 0:
                key = len(neighbor_colors[v]) * sat_weight + rank[v]
                if key > key_best:
                    best, key_best = v, key
        return best

    def search():
        """Depth-first branch and bound with an explicit stack.

        Each open node keeps [vertex, colors used above it, color limit,
        next color to try, vertices touched by the current color]; the stack
        depth is the number of colored vertices, so no recursion limit caps n.
        """
        nonlocal best_k, best_colors
        stack = []
        used = 0
        while True:
            # visit a node: len(stack) vertices are colored with `used` colors
            if not counter.tick() and used < best_k:
                if len(stack) == n:
                    best_k = used
                    best_colors = colors.copy()
                else:
                    stack.append([pick_vertex(), used, min(used + 1, best_k - 1), 0, None])
            # move to the next child of the deepest open node
            while stack:
                node = stack[-1]
                v, node_used, limit, c, touched = node
                if touched is not None:
                    for u in touched:
                        neighbor_colors[u].discard(colors[v])
                    colors[v] = -1
                    if best_k <= lower or counter.exhausted:
                        stack.pop()
                        continue
                while c < limit and c in neighbor_colors[v]:
                    c += 1
                if c >= limit:
                    stack.pop()
                    continue
                colors[v] = c
                touched = [u for u in adj[v] if c not in neighbor_colors[u]]
                for u in touched:
                    neighbor_colors[u].add(c)
                node[3] = c + 1
                node[4] = touched
                used = max(node_used, c + 1)
                break
            else:
                return

    if best_k > lower:
        search()

    witness = Coloring(tuple(best_colors), best_k)
    assert is_proper(g, witness.colors)
    timed_out = counter.exhausted and best_k > lower
    return ColoringResult(best_k, witness, counter.nodes, timed_out)
