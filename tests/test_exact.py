import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound import exact
from chromabound.exact import exact_chi, greedy_clique, greedy_dsatur
from chromabound.graphs import (
    Coloring,
    Graph,
    complete,
    cycle,
    default_corpus,
    erdos_renyi,
    is_proper,
    mycielski,
    petersen,
)


def _colorings_up_to_renaming(n, k):
    """Every coloring of vertices 0..n-1 with colors < k, once per renaming of
    the colors: vertex v's color is at most one more than every color before it."""
    colors = []

    def extend(top):
        if len(colors) == n:
            yield tuple(colors)
            return
        for c in range(min(top + 2, k)):
            colors.append(c)
            yield from extend(max(top, c))
            colors.pop()

    yield from extend(-1)


def brute_force_chi(g):
    """Independent oracle: enumerate all colorings with k colors, k = 1..n."""
    for k in range(1, g.n + 1):
        for assignment in _colorings_up_to_renaming(g.n, k):
            if is_proper(g, assignment):
                return k
    raise AssertionError("unreachable")


# Reference search: the set-based DSATUR that the bitset index replaced. It
# scans every uncolored vertex at each pick and keeps one set of neighbour
# colors per vertex; its budget counts only the nodes it explores. The bitset
# search must visit the same nodes in the same order.


def reference_greedy_dsatur(g):
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
    return Coloring(tuple(colors), max(colors) + 1)


def reference_greedy_clique(g):
    """The set-based greedy clique the mask walk replaced: vertices by descending degree,
    then ascending index, each kept if it is adjacent to every vertex kept before it."""
    adj = [set(nbrs) for nbrs in g.adjacency_lists()]
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    clique = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


class _ReferenceBudget:
    def __init__(self, limit):
        self.nodes = 0
        self.limit = limit
        self.exhausted = False

    def tick(self):
        if self.nodes == self.limit:
            self.exhausted = True
        else:
            self.nodes += 1
        return self.exhausted


def reference_exact_chi(g, budget):
    """(chi, witness colors, nodes explored, timed out) of the set-based search."""
    n = g.n
    adj = [set(nbrs) for nbrs in g.adjacency_lists()]
    seed = reference_greedy_dsatur(g)
    best_colors = list(seed.colors)
    best_k = seed.num_colors
    lower = max(1, len(reference_greedy_clique(g)))
    counter = _ReferenceBudget(budget)
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    rank = [len(adj[v]) * n + n - 1 - v for v in range(n)]

    def pick_vertex():
        best = -1
        key_best = -1
        for v in range(n):
            if colors[v] < 0:
                key = len(neighbor_colors[v]) * n * n + rank[v]
                if key > key_best:
                    best, key_best = v, key
        return best

    def search():
        nonlocal best_k, best_colors
        stack = []
        used = 0
        while True:
            if not counter.tick() and used < best_k:
                if len(stack) == n:
                    best_k = used
                    best_colors = colors.copy()
                else:
                    stack.append([pick_vertex(), used, min(used + 1, best_k - 1), 0, None])
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
    return best_k, tuple(best_colors), counter.nodes, counter.exhausted and best_k > lower


def _mycielski_tower(levels):
    g = complete(2)
    for _ in range(levels):
        g = mycielski(g)
    return g


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))


def _exact_hard_shapes():
    """perfbench's exact-hard graphs, relabelled as its workload relabels them."""
    rng = random.Random(7)
    named = [_mycielski_tower(4), erdos_renyi(60, 0.5, 0), erdos_renyi(60, 0.5, 2)]
    return [_relabel(g, rng) for g in named]


REFERENCE_INPUTS = {
    "corpus": lambda: [g for _name, g in default_corpus()],
    "gnp-grid": lambda: [
        erdos_renyi(n, p, seed) for n in (20, 30, 40) for p in (0.3, 0.5, 0.7) for seed in range(4)
    ],
    "mycielski4": lambda: [_mycielski_tower(4)],
    "C1201": lambda: [cycle(1201)],
    # wider than one 64-bit word
    "wide": lambda: [erdos_renyi(150, 0.05, seed) for seed in range(4)]
    + [erdos_renyi(300, 0.02, 0)],
}


@pytest.mark.parametrize("inputs", sorted(REFERENCE_INPUTS))
def test_greedy_matches_reference(inputs):
    for g in REFERENCE_INPUTS[inputs]():
        assert greedy_dsatur(g) == reference_greedy_dsatur(g)


@pytest.mark.parametrize("budget", [50, 1000, 10**6])
@pytest.mark.parametrize("inputs", sorted(REFERENCE_INPUTS))
def test_search_matches_reference(inputs, budget):
    for g in REFERENCE_INPUTS[inputs]():
        result = exact_chi(g, budget)
        got = (result.chi, result.witness.colors, result.nodes_explored, result.timed_out)
        assert got == reference_exact_chi(g, budget)
        assert result.witness.num_colors == result.chi


@pytest.mark.parametrize("inputs", sorted(REFERENCE_INPUTS))
def test_clique_matches_reference(inputs):
    for g in REFERENCE_INPUTS[inputs]():
        assert greedy_clique(g) == reference_greedy_clique(g)


@pytest.mark.parametrize("budget", [20_000, 100_000])
def test_search_matches_reference_on_exact_hard(budget):
    """Long searches on the benchmark's shapes, relabelled: both budgets run out mid-search
    on all three graphs, after many nodes whose vertex has no free color below the limit."""
    for g in _exact_hard_shapes():
        result = exact_chi(g, budget)
        got = (result.chi, result.witness.colors, result.nodes_explored, result.timed_out)
        assert got == reference_exact_chi(g, budget)


class TestDsatur:
    def test_k4(self):
        assert greedy_dsatur(complete(4)).num_colors == 4

    def test_edgeless(self):
        assert greedy_dsatur(Graph(5)).num_colors == 1

    def test_c5(self):
        coloring = greedy_dsatur(cycle(5))
        assert coloring.num_colors == 3
        assert is_proper(cycle(5), coloring.colors)

    def test_always_proper(self):
        for seed in range(10):
            g = erdos_renyi(10, 0.5, seed)
            coloring = greedy_dsatur(g)
            assert is_proper(g, coloring.colors)

    def test_deterministic(self):
        g = erdos_renyi(12, 0.4, 3)
        assert greedy_dsatur(g).colors == greedy_dsatur(g).colors


class TestGreedyClique:
    def test_complete(self):
        assert len(greedy_clique(complete(6))) == 6

    def test_cycle(self):
        assert len(greedy_clique(cycle(6))) == 2


class TestExactChi:
    def test_petersen(self):
        result = exact_chi(petersen())
        assert result.chi == 3
        assert not result.timed_out
        assert is_proper(petersen(), result.witness.colors)
        assert result.witness.num_colors == 3

    def test_k5(self):
        assert exact_chi(complete(5)).chi == 5

    def test_cycles(self):
        for k in range(2, 6):
            assert exact_chi(cycle(2 * k)).chi == 2
            assert exact_chi(cycle(2 * k + 1)).chi == 3

    def test_long_odd_cycle(self):
        # the search goes one level deeper per colored vertex: 1201 levels here
        result = exact_chi(cycle(1201))
        assert (result.chi, result.timed_out) == (3, False)
        assert is_proper(cycle(1201), result.witness.colors)

    def test_completes(self):
        for n in range(1, 8):
            assert exact_chi(complete(n)).chi == n

    def test_edgeless(self):
        result = exact_chi(Graph(4))
        assert result.chi == 1

    def test_matches_brute_force(self):
        for seed in range(8):
            g = erdos_renyi(7, 0.5, 200 + seed)
            assert exact_chi(g).chi == brute_force_chi(g)

    def test_mycielski_increments_chi(self):
        g = complete(2)
        expected = 2
        for _ in range(3):  # up to n = 23
            g = mycielski(g)
            expected += 1
            result = exact_chi(g)
            assert not result.timed_out
            assert result.chi == expected

    @pytest.mark.parametrize("budget", [0, -1])
    def test_rejects_budget_below_one(self, budget):
        """A budget below 1 is refused, not read as no limit at all."""
        with pytest.raises(ValueError, match=f"node budget must be >= 1, got {budget}"):
            exact_chi(mycielski(mycielski(complete(2))), budget=budget)

    def test_budget_exhaustion(self):
        g = mycielski(mycielski(complete(2)))  # needs search beyond the clique bound
        result = exact_chi(g, budget=10)
        assert result.timed_out
        assert is_proper(g, result.witness.colors)

    @pytest.mark.parametrize("budget, timed_out", [(10, True), (26, True), (27, False)])
    def test_budget_counts_explored_nodes(self, budget, timed_out):
        # the Groetzsch graph: greedy DSATUR already finds chi = 4, and proving
        # it optimal takes a search of exactly 27 nodes
        result = exact_chi(mycielski(mycielski(complete(2))), budget=budget)
        assert (result.chi, result.nodes_explored, result.timed_out) == (4, budget, timed_out)

    def test_witness_uses_exactly_chi_colors(self, corpus):
        for _name, g in corpus:
            if g.n > 16:
                continue
            result = exact_chi(g)
            assert not result.timed_out
            colors = result.witness.colors
            assert is_proper(g, colors)
            assert max(colors) + 1 == result.chi

    def test_adjacency_lists_built_once(self, monkeypatch):
        """Greedy DSATUR, the greedy clique and the search share one set of lists."""
        calls = []
        inner = Graph.adjacency_lists

        def counted(self):
            calls.append(self)
            return inner(self)

        monkeypatch.setattr(Graph, "adjacency_lists", counted)
        g = petersen()
        result = exact_chi(g)
        assert len(calls) == 1
        assert result.chi == 3 and result.nodes_explored > 0  # the search ran

    def test_index_built_once(self, monkeypatch):
        """Greedy DSATUR, the greedy clique and the search read one relabelled index."""
        calls = []
        inner = exact._bit_index

        def counted(adj):
            calls.append(adj)
            return inner(adj)

        monkeypatch.setattr(exact, "_bit_index", counted)
        result = exact_chi(petersen())
        assert len(calls) == 1
        assert result.chi == 3 and result.nodes_explored > 0  # the search ran

    @pytest.mark.parametrize("g", [petersen(), cycle(5)], ids=["petersen", "C5"])
    def test_improper_witness_raises(self, g, monkeypatch):
        """The witness check is an explicit error, kept under python -O: a search that
        returns one color for every vertex is refused."""
        monkeypatch.setattr(exact, "_dsatur", lambda index, best_k, lower, budget: (1, (0,) * g.n, 1, False))
        with pytest.raises(RuntimeError, match="improper 1-coloring"):
            exact_chi(g)

    def test_deterministic(self):
        g = erdos_renyi(12, 0.5, 4)
        r1 = exact_chi(g)
        r2 = exact_chi(g)
        assert r1.chi == r2.chi
        assert r1.witness.colors == r2.witness.colors
        assert r1.nodes_explored == r2.nodes_explored


@pytest.mark.parametrize("n", [4, 5, 6])
def test_wheel_graphs(n):
    # wheel on n+1 vertices: chi is 3 for even rim, 4 for odd rim
    rim = cycle(n)
    edges = set(rim.edges) | {(i, n) for i in range(n)}
    g = Graph(n + 1, frozenset(edges))
    assert exact_chi(g).chi == (3 if n % 2 == 0 else 4)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, frozenset(edges))


@given(_small_graphs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_matches_brute_force_on_small_graphs(g):
    result = exact_chi(g)
    assert not result.timed_out
    assert result.chi == brute_force_chi(g)
    assert is_proper(g, result.witness.colors)
    assert max(result.witness.colors) + 1 == result.chi
