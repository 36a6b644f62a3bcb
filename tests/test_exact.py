import collections
import errno
import functools
import os
import random
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound import exact, split
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
# search must visit the same nodes in the same order. A budget only cuts the
# search short, so one reference search gives the outcome at several budgets.


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
    """Node counter for ascending budgets: where it would refuse the next node at a budget,
    it takes snapshot() as that budget's outcome, and only the last budget stops the search."""

    def __init__(self, budgets, snapshot):
        self.nodes = 0
        self.limits = sorted(budgets, reverse=True)
        self.outcomes = {}
        self.snapshot = snapshot
        self.exhausted = False

    def tick(self):
        while self.limits and self.nodes == self.limits[-1]:
            self.outcomes[self.limits.pop()] = self.snapshot()
        if self.limits:
            self.nodes += 1
        else:
            self.exhausted = True
        return self.exhausted


def reference_exact_chi(g, budgets):
    """(chi, witness colors, nodes explored, timed out) of the set-based search at each of
    the budgets, in their order, from one search."""
    n = g.n
    adj = [set(nbrs) for nbrs in g.adjacency_lists()]
    seed = reference_greedy_dsatur(g)
    best_colors = list(seed.colors)
    best_k = seed.num_colors
    lower = max(1, len(reference_greedy_clique(g)))
    counter = _ReferenceBudget(
        budgets, lambda: (best_k, tuple(best_colors), counter.nodes, best_k > lower)
    )
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
    # a budget the search did not reach: it ended within that budget
    outcome = (best_k, tuple(best_colors), counter.nodes, False)
    return [counter.outcomes.get(budget, outcome) for budget in budgets]


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


SEARCH_BUDGETS = (50, 1000, 10**6)
EXACT_HARD_BUDGETS = (20_000, 100_000)


@functools.cache
def _reference_outcomes(build, budgets):
    """Per graph of build(), a dict from each of the budgets to the reference outcome: one
    reference search per graph serves every budget of a test."""
    return [dict(zip(budgets, reference_exact_chi(g, budgets))) for g in build()]


@pytest.mark.parametrize("budget", SEARCH_BUDGETS)
@pytest.mark.parametrize("inputs", sorted(REFERENCE_INPUTS))
def test_search_matches_reference(inputs, budget):
    build = REFERENCE_INPUTS[inputs]
    for g, reference in zip(build(), _reference_outcomes(build, SEARCH_BUDGETS)):
        result = exact_chi(g, budget)
        got = (result.chi, result.witness.colors, result.nodes_explored, result.timed_out)
        assert got == reference[budget]
        assert result.witness.num_colors == result.chi


@pytest.mark.parametrize("inputs", sorted(REFERENCE_INPUTS))
def test_clique_matches_reference(inputs):
    for g in REFERENCE_INPUTS[inputs]():
        assert greedy_clique(g) == reference_greedy_clique(g)


@pytest.mark.parametrize("budget", EXACT_HARD_BUDGETS)
def test_search_matches_reference_on_exact_hard(budget):
    """Long searches on the benchmark's shapes, relabelled: both budgets run out mid-search
    on all three graphs, after many nodes whose vertex has no free color below the limit."""
    references = _reference_outcomes(_exact_hard_shapes, EXACT_HARD_BUDGETS)
    for g, reference in zip(_exact_hard_shapes(), references):
        result = exact_chi(g, budget)
        got = (result.chi, result.witness.colors, result.nodes_explored, result.timed_out)
        assert got == reference[budget]


def _outcome(result):
    return result.chi, result.witness.colors, result.nodes_explored, result.timed_out


def _with_clique(g, q):
    """g with vertices 0..q-1 joined into a clique."""
    return Graph(g.n, g.edges | {(u, v) for u in range(q) for v in range(u + 1, q)})


def _expire(_signum, _frame):
    raise TimeoutError("the search did not finish within 60 s")


@pytest.fixture
def hand_offs(monkeypatch):
    """Searches split after 1,000 nodes and fail after 60 s rather than hang; sets the worker
    count; counts the crews forked, the pieces cut by the budget and the pieces that stop
    the search at the clique bound; checks that the test leaves no file descriptor open."""
    fds = os.listdir("/proc/self/fd")
    monkeypatch.setattr(exact, "PARALLEL_AFTER", 1_000)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(60)
    events = collections.Counter()
    start, take = split._Crew.start, split._Crew.take

    def counted_start(self, *args):
        events["crews"] += 1
        return start(self, *args)

    def counted_take(self, *args):
        k, colors, nodes, cut = result = take(self, *args)
        events["cut"] += cut
        events["lower"] += colors is not None and k <= self.lower
        return result

    monkeypatch.setattr(split._Crew, "start", counted_start)
    monkeypatch.setattr(split._Crew, "take", counted_take)

    def workers(count):
        monkeypatch.setattr(exact, "_worker_count", lambda: count)
        return events

    try:
        yield workers
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert os.listdir("/proc/self/fd") == fds


@pytest.mark.parametrize("workers, budget", [(2, 30_000), (2, 100_000), (4, 30_000)])
def test_workers_match_one_process_on_exact_hard(hand_offs, workers, budget):
    """Workers give the one-process result node for node where the budget ends inside a
    piece a worker searched, and where best_k improves after the split (G(60, 0.5)), which
    plans the rest again; four workers is more than the CPUs of a small machine."""
    graphs = _exact_hard_shapes()
    hand_offs(1)
    alone = [_outcome(exact_chi(g, budget)) for g in graphs]
    events = hand_offs(workers)
    assert [_outcome(exact_chi(g, budget)) for g in graphs] == alone
    assert all(timed_out for *_rest, timed_out in alone)
    assert events["cut"] == 3
    assert events["crews"] >= 5


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("seed, nodes", [(0, 4_572), (9, 7_054)])
def test_workers_match_one_process_at_lower(hand_offs, workers, seed, nodes):
    """G(60, 0.5) with a planted 11-clique: greedy DSATUR needs 12 or 13 colors, and a piece
    searched by a worker finds an 11-coloring, which stops the search at the clique bound."""
    g = _with_clique(erdos_renyi(60, 0.5, seed), 11)
    hand_offs(1)
    alone = _outcome(exact_chi(g))
    events = hand_offs(workers)
    assert _outcome(exact_chi(g)) == alone
    assert (alone[0], alone[2], alone[3]) == (11, nodes, False)
    assert events["lower"] == 1


def test_split_boundary(hand_offs):
    """A search splits only with more than PARALLEL_AFTER nodes of budget: at exactly that
    many no crew starts, and one or two nodes more give the one-process result too."""
    graphs = _exact_hard_shapes()
    for budget, crews in ((1_000, 0), (1_001, 3), (1_002, 3)):
        hand_offs(1)
        alone = [_outcome(exact_chi(g, budget)) for g in graphs]
        events = hand_offs(2)
        events.clear()
        assert [_outcome(exact_chi(g, budget)) for g in graphs] == alone
        assert [nodes for _chi, _colors, nodes, _timed_out in alone] == [budget] * 3
        assert events["crews"] == crews


@pytest.mark.parametrize("plan_nodes", [1, 20])
def test_planning_budget(hand_offs, monkeypatch, plan_nodes):
    """Planning that runs out of PLAN_NODES keeps the deepest plan it finished: at 20 nodes
    the Mycielski graph's plan for depth 5 is cut and depth 4's is used. With no plan, as at
    1 node, the rest is searched in this process. Either way the result is one process's."""
    graphs = _exact_hard_shapes()
    hand_offs(1)
    alone = [_outcome(exact_chi(g, 30_000)) for g in graphs]
    monkeypatch.setattr(split, "PLAN_NODES", plan_nodes)
    plan, cuts = split._plan, []

    def counted_plan(*args):
        pieces, planned, cut = result = plan(*args)
        cuts.append(cut)
        return result

    monkeypatch.setattr(split, "_plan", counted_plan)
    events = hand_offs(2)
    assert [_outcome(exact_chi(g, 30_000)) for g in graphs] == alone
    assert any(cuts) == (events["crews"] > 0) == (plan_nodes == 20)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_the_search(hand_offs):
    events = hand_offs(2)
    g = _exact_hard_shapes()[1]
    for budget in (30_000, 10**6):
        exact_chi(g, budget)
        _assert_no_children()
    assert events["crews"] >= 2


def test_no_worker_outlives_a_failed_search(hand_offs, monkeypatch):
    """The search raises at its third hand-off, while the workers search ahead."""
    hand_offs(2)
    take = split._Crew.take
    calls = []

    def failing(self, *args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("stopped mid-search")
        return take(self, *args)

    monkeypatch.setattr(split._Crew, "take", failing)
    with pytest.raises(RuntimeError, match="stopped mid-search"):
        exact_chi(_exact_hard_shapes()[0])
    _assert_no_children()


@pytest.mark.parametrize("forks", [0, 1])
def test_search_goes_on_when_fork_fails(hand_offs, monkeypatch, forks):
    """A fork refused for lack of processes leaves fewer workers, or none, and the same result."""
    g = _exact_hard_shapes()[1]
    hand_offs(1)
    alone = _outcome(exact_chi(g, 100_000))
    events = hand_offs(2)
    fork, calls = os.fork, []

    def limited():
        tried = calls.count(events["crews"])  # forks tried by this crew
        calls.append(events["crews"])
        if tried >= forks:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", limited)
    assert _outcome(exact_chi(g, 100_000)) == alone
    assert events["crews"] >= 2 and len(calls) == (forks + 1) * events["crews"]
    _assert_no_children()


@pytest.mark.parametrize("pipes", [0, 1])
def test_search_goes_on_when_pipe_fails(hand_offs, monkeypatch, pipes):
    """A pipe refused for lack of file descriptors, the task pipe or the result pipe, leaves
    no workers and the same result; the fixture checks that the pipe opened before it is closed."""
    g = _exact_hard_shapes()[1]
    hand_offs(1)
    alone = _outcome(exact_chi(g, 100_000))
    events = hand_offs(2)
    pipe, calls = os.pipe, []

    def limited():
        tried = calls.count(events["crews"])  # pipes tried by this crew
        calls.append(events["crews"])
        if tried >= pipes:
            raise OSError(errno.EMFILE, "Too many open files")
        return pipe()

    monkeypatch.setattr(os, "pipe", limited)
    assert _outcome(exact_chi(g, 100_000)) == alone
    assert events["crews"] >= 2 and len(calls) == (pipes + 1) * events["crews"]
    _assert_no_children()


def test_worker_exit_without_report_fails_the_search(hand_offs, monkeypatch):
    """A worker that dies on a piece leaves the search unable to take it: it raises, and the
    other workers are reaped."""
    hand_offs(2)
    search, parent = split._Crew._search, os.getpid()

    def dying(self, j, *args):
        if j == 1 and os.getpid() != parent:
            os._exit(1)
        return search(self, j, *args)

    monkeypatch.setattr(split._Crew, "_search", dying)
    with pytest.raises(RuntimeError, match="a search worker exited without reporting its piece"):
        exact_chi(_exact_hard_shapes()[1], 100_000)
    _assert_no_children()


def test_pipe_writes_are_atomic():
    """A worker's result record, and the task pipe's piece numbers, which the parent writes
    whole before any worker reads, each fit one atomic pipe write."""
    assert split._RESULT.size <= select.PIPE_BUF
    assert 4 * split.MAX_PIECES <= select.PIPE_BUF


def test_split_loads_only_when_a_search_splits():
    """`import chromabound` and a short search leave the worker machinery unloaded."""
    code = (
        "import sys, chromabound; from chromabound.graphs import petersen; "
        "chromabound.exact_chi(petersen()); print('chromabound.split' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(exact.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("cpus, workers", [({0}, 1), ({0, 1}, 2), (set(range(16)), exact.MAX_WORKERS)])
def test_worker_count_follows_affinity(monkeypatch, cpus, workers):
    """One worker per CPU the process may run on, so `taskset -c 0` searches in one process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert exact._worker_count() == workers
    monkeypatch.delattr(os, "fork")
    assert exact._worker_count() == 1


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
        with pytest.raises(ValueError, match=f"node budget: expected an integer >= 1, got {budget}"):
            exact_chi(mycielski(mycielski(complete(2))), budget=budget)

    @pytest.mark.parametrize("budget", [1000.5, 1e6, "5"])
    def test_rejects_non_integer_budget(self, budget):
        """A fractional budget is never met by the node count, so 1000.5 ran the whole search."""
        with pytest.raises(ValueError, match=f"node budget: expected an integer >= 1, got {budget!r}"):
            exact_chi(erdos_renyi(60, 0.5, 10), budget=budget)

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
        monkeypatch.setattr(exact, "_dsatur", lambda index, best_k, lower, budget: (1, (0,) * g.n, 1, False, ()))
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
