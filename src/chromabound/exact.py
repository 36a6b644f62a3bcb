"""Exact chromatic number via DSATUR branch and bound, the soundness tests' oracle.

Greedy DSATUR gives the upper bound, a greedy clique the lower one, and branch and bound
over saturation-ordered vertices closes the gap; every pick takes the uncolored vertex of
highest saturation, ties by highest degree then lowest index. The state is bit-parallel
(San Segundo 2012, *A new DSATUR-based algorithm for exact vertex coloring*): each vertex
set is one int over the bit positions of `_bit_index`, built once per call, and lives in
the locals of one loop, `_dsatur`, whose first descent is greedy DSATUR.

Only `exact_chi` splits a search: with a budget above PARALLEL_AFTER and more than one
CPU, it runs `_dsatur` for PARALLEL_AFTER nodes and, if that is cut short, passes the stack
it stopped at to `split.search_rest`, which proves the rest on every CPU: the subtrees below
a split depth go to forked workers, one per CPU in os.sched_getaffinity(0) and at most
MAX_WORKERS, and `_dsatur`, over the depths above, takes their results in its own order.
A subtree's result depends only on its stack prefix, best_k, lower and the budget left, and
one is used only where those match, so `exact_chi` returns the one-process result node for
node: the same chi, witness, node count and timeout. With one CPU (`taskset -c 0`) or
without os.fork the search stays in one process. Best of 3, shared 2-CPU Xeon, Python 3.11,
10^6-node budget: Mycielski level 4 (448,615 nodes) takes 0.47 s in one process (960k
nodes/s) and 0.24 s on two CPUs (1.87M nodes/s); G(60, 0.5) (266k-274k nodes) 0.38-0.39 s
(700k nodes/s) and 0.20-0.21 s (1.30M nodes/s); G(2048, 0.01) 1.8 s either way (560k
nodes/s), since its budget runs out inside the subtree it is in when it splits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .graphs import Coloring, Graph, _count, is_proper

DEFAULT_BUDGET = 10**6
PARALLEL_AFTER = 20_000  # nodes a search from the root runs alone before it splits
MAX_WORKERS = 4


@dataclass(frozen=True)
class ColoringResult:
    chi: int
    witness: Coloring
    nodes_explored: int
    timed_out: bool


def _bit_index(adj):
    """(order, nbr, plane count): vertex order[p] at bit position p, ascending by (degree,
    -index) so the highest position wins ties, nbr[p] its neighbour mask, planes for any degree."""
    order = sorted(range(len(adj)), key=lambda v: (len(adj[v]), -v))
    pos = sorted(range(len(adj)), key=order.__getitem__)  # the inverse: order[pos[v]] == v
    return order, [sum(1 << pos[u] for u in adj[v]) for v in order], max(map(len, adj)).bit_length()


def _dsatur(index, best_k, lower, budget, path=None, base=0, handoff=-1, hand_off=None):
    """DSATUR branch and bound below best_k colors: (best_k, colors or None, nodes, exhausted, stack).

    has[c] masks the positions with a neighbour colored c; saturation is bit-sliced, planes[k]
    masking the positions whose count has bit k set. The stack is five lists by depth: the
    position colored there, the colors used above it, its color limit, one past its color and
    the positions that color saturated. A new node takes its least free color below the limit
    at once; one with none is counted but never pushed. The search stops at a coloring with at
    most `lower` colors or after `budget` nodes; colors is the best found, by vertex, or None.

    path, if given, is a stack to start from (three sequences by depth: position, color
    limit, one past its color); the search visits the node below it first and
    never backtracks above depth `base`, so base == len(path) searches that node's subtree
    alone; the stack lists hold the depths from `base` on. A node at depth `handoff` is not
    searched here: hand_off(its stack, as a path, best_k, budget left) returns its subtree's
    result with `exhausted` meaning cut by the budget, and the search moves on as if it had
    searched the subtree itself. stack is the stack it stopped at, from depth `base` on, as
    a path: a search from the root cut by the budget goes on from there, node for node.
    """
    order, nbr, num_planes = index
    n = len(order)
    has = [0] * n  # a proper coloring never needs more than n colors
    planes = [0] * num_planes
    uncolored = (1 << n) - 1
    # the stack holds the depths from `base` on; the positions and colors above it are fixed
    size = n - base
    at_pos, at_used, at_limit, at_next, at_touched = [0] * size, [0] * size, [0] * size, [0] * size, [0] * size
    path = path or ((), (), ())
    fixed_pos, fixed_next = list(path[0][:base]), list(path[2][:base])
    nodes = depth = used = 0
    for d, (p, limit, c) in enumerate(zip(*path)):
        h = has[c - 1]
        has[c - 1] = merged = h | nbr[p]
        touched = merged ^ h
        if d >= base:
            at_pos[depth], at_used[depth], at_limit[depth], at_next[depth] = p, used, limit, c
            at_touched[depth] = touched
            depth += 1
        k = 0
        while touched:
            plane = planes[k]
            planes[k] = plane ^ touched
            touched &= plane
            k += 1
        uncolored ^= 1 << p
        used = c if c > used else used
    # a node expands only while fewer than best_k colors are in use, so no saturation
    # reaches best_k and the pick can skip the planes above `top`
    top = min((best_k - 1).bit_length(), num_planes) - 1
    stop = size if handoff < 0 else handoff  # the depth whose nodes are not expanded here
    best_colors, exhausted = None, False
    while nodes != budget:
        # visit a node: `depth` positions are colored with `used` colors
        nodes += 1
        if depth < stop:
            if used < best_k:
                # the uncolored position of highest saturation, then highest position
                cand = uncolored
                k = top
                while k >= 0:
                    narrowed = cand & planes[k]
                    if narrowed:
                        cand = narrowed
                    k -= 1
                p = cand.bit_length() - 1
                bit = 1 << p
                limit = used + 1 if used + 1 < best_k else best_k - 1
                c = 0
                while c < limit and has[c] & bit:
                    c += 1
                if c < limit:
                    # color c: add one to every counter it newly reaches
                    h = has[c]
                    has[c] = merged = h | nbr[p]
                    touched = merged ^ h
                    at_touched[depth] = touched
                    k = 0
                    while touched:
                        plane = planes[k]
                        planes[k] = plane ^ touched
                        touched &= plane
                        k += 1
                    uncolored ^= bit
                    at_pos[depth] = p
                    at_used[depth] = used
                    at_limit[depth] = limit
                    at_next[depth] = c + 1
                    depth += 1
                    if c == used:
                        used += 1
                    continue
        elif depth == handoff:
            prefix = tuple(tuple(t[:depth]) for t in (at_pos, at_limit, at_next))
            sub_k, colors, sub_nodes, cut = hand_off(prefix, best_k, budget - nodes + 1)
            nodes += sub_nodes - 1
            if colors is not None:
                best_k, best_colors = sub_k, colors
                top = min((best_k - 1).bit_length(), num_planes) - 1
                if best_k <= lower:
                    break
            if cut:
                exhausted = True
                break
        elif used < best_k:
            best_k = used
            top = min((best_k - 1).bit_length(), num_planes) - 1
            placed = zip([order[p] for p in fixed_pos + at_pos], fixed_next + at_next)
            best_colors = tuple(c - 1 for _v, c in sorted(placed))
            if best_k <= lower:
                break
        # move to the next child of the deepest node on the stack
        while depth:
            d = depth - 1
            # uncolor: subtract one from every counter its color raised
            c = at_next[d]
            touched = at_touched[d]
            has[c - 1] ^= touched
            k = 0
            while touched:
                plane = planes[k] ^ touched
                planes[k] = plane
                touched &= plane  # borrow where the bit was 0 and now is 1
                k += 1
            p = at_pos[d]
            bit = 1 << p
            uncolored |= bit
            limit = at_limit[d]
            while c < limit and has[c] & bit:
                c += 1
            if c == limit:
                depth = d
                continue
            # color c, as at a new node
            h = has[c]
            has[c] = merged = h | nbr[p]
            touched = merged ^ h
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
    else:
        exhausted = True
    return best_k, best_colors, nodes, exhausted, tuple(t[:depth] for t in (at_pos, at_limit, at_next))


def _worker_count():
    """Worker processes for a long search: one per CPU this process may run on, at most
    MAX_WORKERS; 1, meaning none, where os.fork or CPU affinity is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), MAX_WORKERS)


def greedy_dsatur(g: Graph, index=None) -> Coloring:
    """Proper coloring by descending saturation, ties by degree then index: the search's
    first descent, which never backtracks (n + 1 nodes). index, if given, is
    _bit_index(g.adjacency_lists()), so a caller that already has it does not rebuild it."""
    if index is None:
        index = _bit_index(g.adjacency_lists())
    n = len(index[0])
    num_colors, colors, _nodes, _exhausted, _stack = _dsatur(index, n + 1, n + 1, n + 1)
    return Coloring(colors, num_colors)


def greedy_clique(g: Graph, index=None) -> list:
    """Greedy max clique, vertices by descending degree then index, found by a walk down the
    neighbour masks: take the highest position left, keep its neighbours. index as in
    greedy_dsatur."""
    order, nbr, _num_planes = _bit_index(g.adjacency_lists()) if index is None else index
    clique = []
    cand = (1 << len(order)) - 1
    while cand:
        p = cand.bit_length() - 1
        clique.append(order[p])
        cand &= nbr[p]
    return clique


def exact_chi(g: Graph, budget=DEFAULT_BUDGET) -> ColoringResult:
    """Exact chromatic number unless the node budget, an integer of at least 1, runs out:
    greedy DSATUR, the greedy clique and `_dsatur`, run again from the root below greedy,
    read one `_bit_index`. At most `budget` nodes are explored, those past PARALLEL_AFTER by
    `split.search_rest` where there are workers. chi is the color count of the witness, a
    proper coloring, also when the budget runs out."""
    budget = _count(budget, "node budget", 1)
    index = _bit_index(g.adjacency_lists())
    seed = greedy_dsatur(g, index)
    best_colors, best_k = seed.colors, seed.num_colors
    lower = max(1, len(greedy_clique(g, index)))
    nodes, exhausted = 0, False
    if best_k > lower:
        workers = _worker_count() if budget > PARALLEL_AFTER else 1
        alone = PARALLEL_AFTER if workers > 1 else budget  # the nodes searched before a split
        best_k, colors, nodes, exhausted, stack = _dsatur(index, best_k, lower, alone)
        if exhausted and alone < budget:
            from .split import search_rest  # imported by the first search that runs this long

            best_k, rest, more, exhausted = search_rest(index, best_k, lower, budget - nodes, stack, workers)
            nodes += more
            colors = colors if rest is None else rest
        if colors is not None:
            best_colors = colors
    if not is_proper(g, best_colors):
        raise RuntimeError(f"exact oracle produced an improper {best_k}-coloring")
    return ColoringResult(best_k, Coloring(best_colors, best_k), nodes, exhausted and best_k > lower)
