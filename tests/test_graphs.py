import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound.graphs import (
    Coloring,
    DimacsError,
    Graph,
    adjacency_matrix,
    complete,
    cycle,
    default_corpus,
    emit_dimacs,
    erdos_renyi,
    generate,
    is_proper,
    kneser,
    mycielski,
    mycielski_tower,
    parse_dimacs,
    petersen,
    star,
)
from chromabound import linalg
from chromabound.bounds import BoundConfig
from chromabound.exact import exact_chi
from chromabound.reversal import SignReversalMap, group_sign_reversal, weyl_heisenberg_family


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, frozenset({(0, 3)}))

    @pytest.mark.parametrize(
        "n, edges, message",
        [(3, [(0, 1.5)], "endpoint 1.5 "), (3, [(0.9, 2)], "endpoint 0.9 "), (3, [("1", "2")], "endpoint '1' "),
         (3, [(0, 1), (1, 2.0)], "endpoint 2.0 "), (3, np.array([[0.0, 1.0]]), "endpoint np.float64\\(0.0\\)"),
         (2.5, [(0, 1)], "vertex count: expected an integer >= 1, got 2.5"), ("3", [], "got '3'")],
    )
    def test_rejects_non_integral_vertices(self, n, edges, message):
        """An endpoint or n that is not an integer is refused, never truncated or parsed."""
        with pytest.raises(ValueError, match=message):
            Graph(n, edges)

    def test_accepts_integer_types(self):
        g = Graph(3, [(0, 1), (1, 2)])
        for n, edges in [(np.int64(3), [(np.int32(0), 1), (np.int64(2), np.uint8(1))]),
                         (3, np.array([[0, 1], [1, 2]])), (3, np.array([[0, 1], [2, 1]], dtype=np.uint16))]:
            assert Graph(n, edges) == g
            assert type(Graph(n, edges).n) is int
        for edges in ([], (), np.zeros((0, 2), dtype=np.intp)):
            empty = Graph(3, edges)
            assert empty.num_edges == 0 and empty.us.dtype == np.intp

    def test_edge_arrays_are_read_only(self):
        g = cycle(5)
        assert g.us.dtype == g.vs.dtype == np.intp
        for arr in (g.us, g.vs):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        assert g == cycle(5)

    def test_rejects_n_whose_edge_keys_overflow(self):
        """Edges are keyed lo * n + hi in intp: above isqrt(intp max) vertices a key could wrap
        and corrupt the edge, so such an n is refused, naming the limit."""
        n = math.isqrt(np.iinfo(np.intp).max)
        with pytest.raises(ValueError, match=f"vertex count {10**12} exceeds {n}, the limit"):
            Graph(10**12, [(10**12 - 2, 10**12 - 1), (3, 5)])
        g = Graph(n, [(n - 2, n - 1), (3, 5)])
        assert (g.us.tolist(), g.vs.tolist()) == ([3, n - 2], [5, n - 1])

    def test_edges_normalized(self):
        g = Graph(3, frozenset({(2, 0)}))
        assert g.edges == {(0, 2)}
        assert (g.us.tolist(), g.vs.tolist()) == ([0], [2])
        assert g == Graph(3, [(0, 2), (2, 0)])
        assert g.num_edges == 1


class TestParseDimacs:
    def test_triangle(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3")
        assert g.n == 3
        assert g.edges == complete(3).edges

    def test_duplicate_edges_collapse(self):
        g = parse_dimacs("p edge 2 1\ne 1 2\ne 2 1")
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsError, match="line 2.*self-loop"):
            parse_dimacs("p edge 2 1\ne 1 1")

    def test_missing_p_line(self):
        with pytest.raises(DimacsError, match="missing p line"):
            parse_dimacs("c nothing here")

    def test_vertex_out_of_range(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p edge 2 1\ne 1 3")

    def test_malformed_line(self):
        with pytest.raises(DimacsError, match="unrecognized"):
            parse_dimacs("p edge 2 1\nx 1 2")

    @pytest.mark.parametrize("text", ["p edge 2049 1\nx junk\n", "p edge 5000000000 1\ne 4000000000 4000000001\n"],
                             ids=["2049", "5e9"])
    def test_vertex_limit_refused_at_p_line(self, text):
        """The vertex limit is read off the p line: no later line, malformed or not, is read."""
        n = text.split()[2]
        with pytest.raises(DimacsError, match=f"^line 1: {n} vertices exceed the limit of 2048$"):
            parse_dimacs(text)

    def test_vertex_limit_admits_its_own_count(self):
        g = parse_dimacs("p edge 2048 1\ne 2047 2048\n")
        assert (g.n, g.us.tolist(), g.vs.tolist()) == (2048, [2046], [2047])

    def test_comments_and_bytes(self):
        g = parse_dimacs(b"c a comment\np edge 2 1\ne 1 2\n")
        assert g.num_edges == 1

    def test_edge_count_mismatch_is_not_an_error(self):
        g = parse_dimacs("p edge 3 99\ne 1 2")
        assert g.num_edges == 1

    def test_round_trip(self):
        g = petersen()
        assert parse_dimacs(emit_dimacs(g)).edges == g.edges

    @pytest.mark.parametrize("form", [str, str.encode, lambda t: io.BytesIO(t.encode())], ids=["str", "bytes", "file"])
    def test_line_ends(self, form):
        r"""\n, \r\n and a lone \r end a line in every input form, and mixed ends count one
        line each; the line numbers of a refusal count them the same way."""
        text = "c K3\rp edge 3 3\r\ne 1 2\ne 2 3\re 1 3\r\n"
        assert parse_dimacs(form(text)) == complete(3)
        with pytest.raises(DimacsError, match="^line 7: unrecognized line: 'x'$"):  # line 6 is empty
            parse_dimacs(form(text + "\rx"))

    @pytest.mark.parametrize("end", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                             ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"])
    def test_other_line_breaks_end_no_line(self, end):
        r"""str.splitlines also broke lines at these; now they are whitespace (str) or
        undecodable bytes (bytes) within one line, in every input form."""
        text = f"p edge 2 1{end}e 1 2\n"
        for source in (text, text.encode("utf-8"), io.BytesIO(text.encode("utf-8"))):
            with pytest.raises(DimacsError, match="^line 1: malformed p line: "):
                parse_dimacs(source)

    def test_undecodable_bytes_are_replaced(self):
        """A Latin-1 comment in bytes or a binary file reads as the ASCII one does."""
        data = b"c caf\xe9 \xff\np edge 3 2\ne 1 2\ne 2 3\n"
        assert parse_dimacs(data) == parse_dimacs(io.BytesIO(data)) == Graph(3, [(0, 1), (1, 2)])

    def test_file_is_left_open(self):
        for data in (b"p edge 2 1\ne 1 2\n", b"x\n"):
            f = io.BytesIO(data)
            with contextlib.suppress(DimacsError):
                parse_dimacs(f)
            assert not f.closed

    def test_oversized_file_is_read_no_further_than_its_p_line(self, tmp_path):
        """2,000,000 edge lines under a p line that declares 100,000 vertices (12 MB): the
        refusal comes at line 1 with at most 64 KiB read, and the caller's file stays open."""
        path = tmp_path / "huge.col"
        path.write_text("p edge 100000 2000000\n" + "e 1 2\n" * 2000000)
        with open(path, "rb") as f:
            with pytest.raises(DimacsError, match="^line 1: 100000 vertices exceed the limit of 2048$"):
                parse_dimacs(f)
            assert not f.closed
            assert f.raw.tell() <= 64 * 1024


# Each refusal of graphs' readers and builders: (call, message). DIMACS messages carry the
# offending line's number.
REFUSALS = [
    (lambda: parse_dimacs("p edge 3\n"), "line 1: malformed p line: 'p edge 3'"),
    (lambda: parse_dimacs("c x\np col 3 1\n"), "line 2: malformed p line: 'p col 3 1'"),
    (lambda: parse_dimacs("c x\n\np edge three 1\n"), "line 3: non-integer counts in p line: 'p edge three 1'"),
    (lambda: parse_dimacs("p edge 3 1.5\n"), "line 1: non-integer counts in p line: 'p edge 3 1.5'"),
    (lambda: parse_dimacs("p edge 0 0\n"), "line 1: vertex count must be >= 1, got 0"),
    (lambda: parse_dimacs("p edge 3 1\ne 1 2 3\n"), "line 2: malformed e line: 'e 1 2 3'"),
    (lambda: parse_dimacs("p edge 3 1\ne 1\n"), "line 2: malformed e line: 'e 1'"),
    (lambda: parse_dimacs("p edge 3 1\nc\ne 1 x\n"), "line 3: non-integer vertex in e line: 'e 1 x'"),
    (lambda: parse_dimacs("p edge 3 1\np edge 3 1\n"), "line 2: duplicate p line"),
    (lambda: parse_dimacs("e 1 2\np edge 3 1\n"), "line 1: e line before p line"),
    (lambda: generate("complete"), "complete takes 1 parameter(s): complete n"),
    (lambda: generate("petersen", 3), "petersen takes 0 parameter(s): petersen"),
    (lambda: generate("kneser", 5, 2, 1), "kneser takes 2 parameter(s): kneser n k"),
    (lambda: generate("erdos-renyi", 10, 1.5, 0), "edge probability must be in [0, 1], got 1.5"),
    (lambda: generate("erdos-renyi", 10, "-0.1", 0), "edge probability must be in [0, 1], got -0.1"),
    (lambda: generate("kneser", 5, 3), "kneser needs 1 <= k <= n/2, got n=5, k=3"),
]


@pytest.mark.parametrize("call, message", REFUSALS, ids=[message for _, message in REFUSALS])
def test_refusal_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestGenerators:
    def test_complete_edge_count(self):
        for n in range(1, 8):
            assert complete(n).num_edges == n * (n - 1) // 2

    def test_cycle_is_2_regular(self):
        g = cycle(5)
        assert g.num_edges == 5
        assert all(len(nbrs) == 2 for nbrs in g.adjacency_lists())

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_star(self):
        g = star(6)
        assert g.adjacency_lists() == [[1, 2, 3, 4, 5]] + [[0]] * 5

    def test_petersen_is_kneser_5_2(self):
        g = petersen()
        assert g.n == 10
        assert g.num_edges == 15
        assert all(len(nbrs) == 3 for nbrs in g.adjacency_lists())

    def test_kneser_params(self):
        with pytest.raises(ValueError):
            kneser(4, 3)

    def test_mycielski_sizes(self):
        # n' = 2n + 1, m' = 3m + n
        base = cycle(5)
        g = mycielski(base)
        assert g.n == 11
        assert g.num_edges == 3 * 5 + 5

    def test_erdos_renyi_reproducible(self):
        a = erdos_renyi(12, 0.4, seed=9)
        b = erdos_renyi(12, 0.4, seed=9)
        c = erdos_renyi(12, 0.4, seed=10)
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_mycielski_tower(self):
        # level L: 3 * 2^L - 1 vertices, Mycielski's construction applied L times to K2
        assert mycielski_tower(2) == mycielski(mycielski(complete(2)))
        assert [mycielski_tower(level).n for level in (1, 2, 3)] == [5, 11, 23]
        with pytest.raises(ValueError):
            mycielski_tower(0)

    def test_generate_rejects_oversized_before_building(self):
        with pytest.raises(ValueError, match="at least 6143 vertices exceed the limit of 2048"):
            generate("mycielski", 40)

    @pytest.mark.parametrize(
        "params, message",
        [
            (("complete", 3.7), "complete: parameter n must be an integer, got 3.7"),
            (("erdos-renyi", 10, 0.5, 2.9), "erdos-renyi: parameter seed must be an integer, got 2.9"),
            (("kneser", "5", "2.5"), "kneser: parameter k must be an integer, got '2.5'"),
            (("mycielski", float("inf")), "mycielski: parameter levels must be an integer, got inf"),
            (("erdos-renyi", 10, "half", 1), "erdos-renyi: parameter p must be a number, got 'half'"),
        ],
    )
    def test_generate_rejects_non_integral(self, params, message):
        with pytest.raises(ValueError) as info:
            generate(*params)
        assert str(info.value) == message

    def test_generate_accepts_integral_values(self):
        assert generate("complete", "1e1") == generate("complete", 10.0) == complete(10)
        assert generate("erdos-renyi", "12", "0.5", 3.0) == erdos_renyi(12, 0.5, 3)

    def test_generate_dispatch(self):
        assert generate("complete", 3).num_edges == 3
        with pytest.raises(ValueError):
            generate("torus")


class TestColoring:
    def test_integer_like_colors_accepted(self):
        coloring = Coloring([np.int64(1), 0, True], np.int32(2))
        assert coloring.colors == (1, 0, 1) and coloring.num_colors == 2
        assert all(type(c) is int for c in (*coloring.colors, coloring.num_colors))

    @pytest.mark.parametrize("num_colors", [2.5, 2.0, "2"])
    def test_non_integer_num_colors_rejected(self, num_colors):
        with pytest.raises(ValueError, match="num_colors: expected an integer >= 1"):
            Coloring((0, 1), num_colors)

    @pytest.mark.parametrize("color", [0.5, 1.0, "1", None])
    def test_non_integer_color_rejected(self, color):
        """Refused, never truncated: int(0.5) would make it color 0."""
        with pytest.raises(ValueError, match=f"color {color!r} is not an integer"):
            Coloring((0, color), 2)

    @pytest.mark.parametrize("colors, num_colors, message", [
        ((0, 2), 2, r"color 2 outside \[0, 2\)"),
        ((0, -1), 2, r"color -1 outside"),
        ((), 0, "num_colors: expected an integer >= 1, got 0"),
    ])
    def test_out_of_range_rejected(self, colors, num_colors, message):
        with pytest.raises(ValueError, match=message):
            Coloring(colors, num_colors)


# Every count and seed a caller passes in: the name its ValueError gives it, its least value,
# and a call that reads the value back, or reads a count that the value determines.
COUNTS = [
    ("vertex count", 1, lambda v: Graph(v).n),
    ("num_colors", 1, lambda v: Coloring((), v).num_colors),
    ("complete n", 1, lambda v: complete(v).n),
    ("cycle n", 3, lambda v: cycle(v).n),
    ("star n", 2, lambda v: star(v).n),
    ("kneser n", 2, lambda v: kneser(v, 1).n),
    ("kneser k", 1, lambda v: kneser(4, v).n),
    ("mycielski levels", 1, lambda v: mycielski_tower(v).n),
    ("erdos-renyi n", 1, lambda v: erdos_renyi(v, 0.5, 1).n),
    ("erdos-renyi seed", 0, lambda v: erdos_renyi(12, 0.5, v).num_edges),
    ("restarts", 1, lambda v: BoundConfig(restarts=v).restarts),
    ("iterations", 1, lambda v: BoundConfig(iterations=v).iterations),
    ("seed", 0, lambda v: BoundConfig(seed=v).seed),
    ("exact_limit", 0, lambda v: BoundConfig(exact_limit=v).exact_limit),
    ("node budget", 1, lambda v: exact_chi(cycle(5), budget=v).nodes_explored),
    ("map dimension", 1, lambda v: SignReversalMap(v, ()).n),
    ("dimension", 1, lambda v: len(weyl_heisenberg_family(v))),
    ("dimension", 2, lambda v: group_sign_reversal(v).n),
    # the random builders share their messages with rows above, so they carry their own ids
    pytest.param("edge count", 0, lambda v: len(linalg.random_edge_weights(v, 1)),
                 id="random_edge_weights count >= 0"),
    pytest.param("seed", 0, lambda v: hash(linalg.random_edge_weights(4, v).tobytes()),
                 id="random_edge_weights seed >= 0"),
    pytest.param("dimension", 1, lambda v: len(linalg.random_hermitian(v, 1)), id="random_hermitian n >= 1"),
    pytest.param("seed", 0, lambda v: hash(linalg.random_hermitian(2, v).tobytes()),
                 id="random_hermitian seed >= 0"),
]


@pytest.mark.parametrize("what, least, call", COUNTS,
                         ids=[getattr(row, "id", None) or f"{row[0]} >= {row[1]}" for row in COUNTS])
def test_one_rule_for_every_count(what, least, call):
    """A bool, a float (integral or not), a string and a value below the least are refused,
    each with the same message naming the parameter; a numpy integer is read as a Python int.
    The builders raised TypeError on a float n, and erdos_renyi drew from a float seed."""
    for bad in (True, 2.5, float(least), "3", least - 1):
        with pytest.raises(ValueError, match=f"^{re.escape(what)}: expected an integer >= {least}, got {bad!r}$"):
            call(bad)
    got = call(np.int64(least))
    assert type(got) is int and got == call(least)


class TestQueries:
    def test_adjacency_k2(self):
        assert np.array_equal(adjacency_matrix(complete(2)), [[0, 1], [1, 0]])

    def test_adjacency_empty(self):
        assert np.array_equal(adjacency_matrix(Graph(3)), np.zeros((3, 3)))

    def test_adjacency_c4_circulant(self):
        a = adjacency_matrix(cycle(4))
        assert list(a[0]) == [0, 1, 0, 1]
        assert np.array_equal(a, a.T)

    def test_adjacency_symmetric_zero_diag(self, corpus):
        for _name, g in corpus:
            a = adjacency_matrix(g)
            assert np.array_equal(a, a.T)
            assert not a.diagonal().any()

    def test_is_proper(self):
        k3 = complete(3)
        assert is_proper(k3, (0, 1, 2))
        assert not is_proper(k3, (0, 1, 1))
        assert is_proper(Graph(4), (0, 0, 0, 0))
        with pytest.raises(ValueError):
            is_proper(k3, (0, 1))

    def test_corpus_round_trips(self, corpus):
        for _name, g in corpus:
            assert parse_dimacs(emit_dimacs(g)).edges == g.edges

    def test_corpus_is_deterministic(self):
        first = default_corpus()
        second = default_corpus()
        assert [n for n, _ in first] == [n for n, _ in second]
        assert all(a.edges == b.edges for (_, a), (_, b) in zip(first, second))


@st.composite
def pair_lists(draw):
    """(n, pairs, colors): n <= 12, vertex pairs in either orientation with repeats (possibly
    none), and a color vector with at most 4 colors."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=30)) if n > 1 else []
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    colors = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return n, pairs + [(v, u) for u, v in repeats], colors


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair_lists())
def test_edge_arrays_match_a_set_of_normalized_pairs(case):
    """Every query read from the edge arrays agrees with the same query on a frozenset of
    (min, max) tuples, and the arrays list that set in sorted order."""
    n, pairs, colors = case
    g = Graph(n, pairs)
    ref = frozenset((min(p), max(p)) for p in pairs)
    assert list(zip(g.us.tolist(), g.vs.tolist())) == sorted(ref)
    assert g.edges == ref and g.num_edges == len(ref)
    assert g == Graph(n, frozenset(pairs)) == Graph(n, iter(pairs))
    assert g == Graph(n, np.array(pairs, dtype=int).reshape(-1, 2))
    nbrs = [sorted({b for u, v in ref for a, b in ((u, v), (v, u)) if a == x}) for x in range(n)]
    assert g.adjacency_lists() == nbrs
    a = np.zeros((n, n))
    for u, v in ref:
        a[u, v] = a[v, u] = 1.0
    assert np.array_equal(adjacency_matrix(g), a)
    assert is_proper(g, colors) == all(colors[u] != colors[v] for u, v in ref)
    lines = ["c note", f"p edge {n} {len(ref)}"] + [f"e {u + 1} {v + 1}" for u, v in sorted(ref)]
    assert emit_dimacs(g, comment="note") == "\n".join(lines) + "\n"
