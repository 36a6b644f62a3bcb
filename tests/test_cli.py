import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromabound
from chromabound import graphs, linalg
from chromabound.cli import (
    EXIT_IMPROPER, EXIT_INPUT, EXIT_OK, EXIT_TIMEOUT, CliError, _dump_json, _load_graph, main
)
from chromabound.graphs import complete, cycle, emit_dimacs, erdos_renyi, mycielski, parse_dimacs, petersen


@pytest.fixture
def petersen_col(tmp_path):
    path = tmp_path / "petersen.col"
    path.write_text(emit_dimacs(petersen()))
    return str(path)


@pytest.fixture
def k3_col(tmp_path):
    path = tmp_path / "k3.col"
    path.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    return str(path)


class TestGen:
    def test_petersen(self, tmp_path, capsys):
        out = tmp_path / "p.col"
        assert main(["gen", "petersen", "--out", str(out)]) == EXIT_OK
        g = parse_dimacs(out.read_text())
        assert (g.n, g.num_edges) == (10, 15)

    def test_complete_4_has_six_edges(self, capsys):
        assert main(["gen", "complete", "4"]) == EXIT_OK
        text = capsys.readouterr().out
        assert sum(1 for line in text.splitlines() if line.startswith("e ")) == 6

    def test_cycle_too_small(self, capsys):
        assert main(["gen", "cycle", "2"]) == EXIT_INPUT

    def test_round_trip(self, capsys):
        assert main(["gen", "kneser", "5", "2"]) == EXIT_OK
        g = parse_dimacs(capsys.readouterr().out)
        assert g.num_edges == 15

    def test_bad_kind(self, capsys):
        assert main(["gen", "moebius"]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "params, message",
        [
            (["complete", "3.7"], "complete: parameter n must be an integer, got '3.7'"),
            (["erdos-renyi", "10", "0.5", "2.9"], "erdos-renyi: parameter seed must be an integer, got '2.9'"),
            (["erdos-renyi", "10", "p", "1"], "erdos-renyi: parameter p must be a number, got 'p'"),
        ],
    )
    def test_non_integral_parameter_named(self, params, message, capsys):
        assert main(["gen"] + params) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_negative_seed_refused(self, capsys):
        """random.Random reads a seed as its absolute value, so -1 built seed 1's graph."""
        assert main(["gen", "erdos-renyi", "10", "0.5", "-1"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: erdos-renyi seed: expected an integer >= 0, got -1\n"

    def test_integral_float_literal(self, capsys):
        assert main(["gen", "complete", "1e1"]) == EXIT_OK
        assert parse_dimacs(capsys.readouterr().out) == complete(10)


# One small case per generator kind: gen's parameters and the named builder's graph.
GEN_CASES = {
    "complete": (["5"], lambda: graphs.complete(5)),
    "cycle": (["7"], lambda: graphs.cycle(7)),
    "star": (["6"], lambda: graphs.star(6)),
    "petersen": ([], graphs.petersen),
    "kneser": (["6", "2"], lambda: graphs.kneser(6, 2)),
    "mycielski": (["3"], lambda: dict(graphs.default_corpus())["mycielski3"]),
    "erdos-renyi": (["40", "0.3", "5"], lambda: graphs.erdos_renyi(40, 0.3, 5)),
}


class TestGenMatchesLibrary:
    def test_every_kind_has_a_case(self):
        assert set(GEN_CASES) == set(graphs.GENERATORS)

    @pytest.mark.parametrize("kind", sorted(graphs.GENERATORS))
    def test_gen_equals_generate_and_builder(self, kind, capsys):
        params, builder = GEN_CASES[kind]
        assert main(["gen", kind] + params) == EXIT_OK
        text = capsys.readouterr().out
        assert text.splitlines()[0] == f"c {kind}({', '.join(params)})"
        g = parse_dimacs(text)
        expected = builder()
        assert (g.n, g.edges) == (expected.n, expected.edges)
        assert graphs.generate(kind, *params) == expected

    def test_help_lists_kinds_and_parameters(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--help"])
        out = capsys.readouterr().out
        for usage in ("complete n", "kneser n k", "mycielski levels", "erdos-renyi n p seed"):
            assert usage in out

    def test_unknown_kind_names_known_kinds(self, capsys):
        assert main(["gen", "moebius"]) == EXIT_INPUT
        assert ", ".join(graphs.GENERATORS) in capsys.readouterr().err


class TestUnwritableOutput:
    """Every file the CLI writes goes through one writer: a path under a missing
    directory exits 2 with a message, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "petersen", "--out"],
            ["bound", "{graph}", "--method", "hoffman", "--output"],
            ["compare", "{graph}", "--method", "hoffman", "--output"],
            ["chi", "{graph}", "--output"],
            ["reverse", "{graph}", "--output"],
            ["reverse", "{graph}", "--emit-map"],
        ],
        ids=["gen", "bound", "compare", "chi", "reverse", "emit-map"],
    )
    def test_missing_directory_exits_2(self, argv, petersen_col, tmp_path, capsys):
        target = str(tmp_path / "missing" / "out.txt")
        argv = [a.format(graph=petersen_col) for a in argv] + [target]
        assert main(argv) == EXIT_INPUT
        assert f"cannot write {target}" in capsys.readouterr().err


class TestBound:
    def test_petersen_all(self, petersen_col, capsys):
        assert main(["bound", petersen_col, "--method", "all", "--format", "json",
                     "--restarts", "2", "--iters", "40"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["hoffman"] == pytest.approx(2.5, abs=1e-8)
        assert doc["exactChi"] == 3
        assert doc["lower"] == 3

    def test_single_method(self, k3_col, capsys):
        assert main(["bound", k3_col, "--method", "hoffman", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["hoffman"] == pytest.approx(3.0, abs=1e-8)
        assert doc["tauOnes"] is None

    def test_missing_file(self, capsys):
        assert main(["bound", "/nonexistent.col"]) == EXIT_INPUT

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 2 1\ne 1 1\n")
        assert main(["bound", str(bad)]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "flag, value",
        [("--restarts", "0"), ("--restarts", "-4"), ("--iters", "0"), ("--iters", "x"),
         ("--exact-limit", "-5"), ("--seed", "-3"), ("--restarts", "2.5"), ("--iters", "inf"),
         ("--exact-limit", "2.5"), ("--seed", "inf")],
    )
    def test_out_of_range_flag(self, k3_col, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", k3_col, flag, value])
        assert exc.value.code == EXIT_INPUT
        assert f"argument {flag}" in capsys.readouterr().err

    def test_no_tol_flag(self, k3_col, capsys):
        for command in ("bound", "reverse"):
            with pytest.raises(SystemExit) as exc:
                main([command, k3_col, "--tol", "1e-9"])
            assert exc.value.code == EXIT_INPUT
            assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_latin1_comment(self, tmp_path, capsys):
        """A byte that is not UTF-8 in a comment is read as parse_dimacs reads bytes: replaced.
        read_text refused the file with exit 2."""
        docs = []
        for name, comment in (("ascii", b"c cafe"), ("latin1", b"c caf\xe9")):
            path = tmp_path / f"{name}.col"
            path.write_bytes(comment + b"\n" + emit_dimacs(petersen()).encode())
            assert main(["bound", str(path), "--restarts", "2", "--iters", "20", "--format", "json"]) == EXIT_OK
            docs.append(json.loads(capsys.readouterr().out))
        assert [doc.pop("graphId") for doc in docs] == ["ascii", "latin1"]
        assert docs[0] == docs[1]

    def test_line_ends_give_one_report(self, tmp_path, capsys):
        text = "c petersen\n" + emit_dimacs(petersen())
        outputs = []
        for end in ("\n", "\r\n", "\r"):
            path = tmp_path / f"{len(outputs)}" / "petersen.col"
            path.parent.mkdir()
            path.write_bytes(text.replace("\n", end).encode())
            assert main(["bound", str(path), "--restarts", "2", "--iters", "20", "--format", "json"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_edgeless_exits_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty.col"
        empty.write_text("p edge 4 0\n")
        assert main(["bound", str(empty), "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["hoffman"] is None
        assert any("edgeless" in note for note in doc["notes"])


@pytest.mark.parametrize(
    "command, flag",
    [("bound", "--restarts"), ("bound", "--iters"), ("bound", "--exact-limit"), ("bound", "--seed"),
     ("chi", "--budget"), ("reverse", "--budget"), ("reverse", "--seed")],
)
def test_count_flag_reads_text_as_gen(k3_col, command, flag, capsys):
    """A count flag reads "1e3" as 1000, as `gen` reads its integers; argparse's int refused it."""
    outputs = []
    for value in ("1e3", "1000"):
        assert main([command, k3_col, flag, value, "--format", "json"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


class TestOversized:
    """Inputs whose size would need ~80 GB of dense matrices, or hours of DSATUR or
    generation, exit 2 before anything is built."""

    @pytest.fixture
    def huge_col(self, tmp_path):
        path = tmp_path / "huge.col"
        path.write_text("p edge 100000 1\ne 1 2\n")
        return str(path)

    @pytest.mark.parametrize("command", ["bound", "compare", "reverse", "chi"])
    def test_rejected_before_allocation(self, huge_col, command, capsys):
        assert main([command, huge_col]) == EXIT_INPUT
        assert f"{huge_col}: line 1: 100000 vertices exceed the limit of 2048" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params, count",
        [
            (["complete", "3000"], "3000"),
            (["kneser", "60", "30"], "118264581564861424"),
            (["kneser", "100000", "50000"], "at least 100000"),
            (["mycielski", "10"], "3071"),
            (["mycielski", "40"], "at least 6143"),
            (["erdos-renyi", "100000", "0.5", "1"], "100000"),
        ],
    )
    def test_gen_rejected_before_building(self, params, count, capsys):
        assert main(["gen"] + params) == EXIT_INPUT
        assert f"{count} vertices exceed the limit of 2048" in capsys.readouterr().err

    def test_gen_at_the_limit(self, capsys):
        assert main(["gen", "mycielski", "9"]) == EXIT_OK
        assert parse_dimacs(capsys.readouterr().out).n == 1535

    @pytest.mark.parametrize(
        "n, labels, entries",
        [
            (200, None, 199 * 200 * 200),
            (200, " ".join(str(10**9 * c) for c in range(200)), 199 * 200 * 200),
        ],
        ids=["k200", "huge-label"],
    )
    def test_reverse_map_rejected(self, tmp_path, n, labels, entries, capsys):
        """(q - 1) n^2 unitary entries above 2048^2 are refused before any is built. A coloring
        file's labels count by how many there are, not by their size."""
        path = tmp_path / "g.col"
        path.write_text(emit_dimacs(complete(n)))
        argv = ["reverse", str(path)]
        if labels is not None:
            (tmp_path / "colors.txt").write_text(labels)
            argv += ["--colors", str(tmp_path / "colors.txt")]
        assert main(argv) == EXIT_INPUT
        assert f"{entries} entries, above the limit of {2048**2}" in capsys.readouterr().err

    def test_reverse_term_limit(self, tmp_path, capsys):
        """Coloring-file labels compact to 0..q-1 in label order, so a huge label on K2 still
        makes a 2-coloring: one term, which runs and verifies. A negative label still exits 2."""
        path, labels = tmp_path / "k2.col", tmp_path / "colors.txt"
        path.write_text(emit_dimacs(complete(2)))
        for text in ("0 1000000", "0 2048", "2048 0"):
            labels.write_text(text)
            assert main(["reverse", str(path), "--colors", str(labels), "--format", "json"]) == EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            assert (doc["numColors"], doc["costTarget"], doc["ok"]) == (2, 1, True)
        labels.write_text("-1 0")
        assert main(["reverse", str(path), "--colors", str(labels)]) == EXIT_INPUT
        assert f"coloring file {labels} has a negative label, -1" in capsys.readouterr().err

    def test_reverse_negative_label(self, tmp_path, capsys):
        """A negative label is refused by name, with the file, before any map is built."""
        path, labels = tmp_path / "t.col", tmp_path / "f"
        path.write_text(emit_dimacs(graphs.Graph(3, [(0, 1), (1, 2)])))
        labels.write_text("0 -1 0")
        assert main(["reverse", str(path), "--colors", str(labels)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: coloring file {labels} has a negative label, -1\n"


class TestChi:
    def test_petersen(self, petersen_col, capsys):
        assert main(["chi", petersen_col, "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["chi"] == 3

    def test_k6(self, tmp_path, capsys):
        path = tmp_path / "k6.col"
        path.write_text(emit_dimacs(complete(6)))
        assert main(["chi", str(path), "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["chi"] == 6

    def test_long_odd_cycle(self, tmp_path, capsys):
        path = tmp_path / "c1201.col"
        assert main(["gen", "cycle", "1201", "--out", str(path)]) == EXIT_OK
        assert main(["chi", str(path), "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["chi"], doc["exact"]) == (3, True)

    def test_forced_timeout(self, tmp_path, capsys):
        path = tmp_path / "grotzsch.col"
        path.write_text(emit_dimacs(mycielski(mycielski(complete(2)))))
        assert main(["chi", str(path), "--budget", "10"]) == EXIT_TIMEOUT

    @pytest.mark.parametrize("value", ["0", "-5", "2.5", "inf"])
    def test_out_of_range_budget(self, petersen_col, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chi", petersen_col, "--budget", value])
        assert exc.value.code == EXIT_INPUT
        assert "argument --budget" in capsys.readouterr().err


class TestReverse:
    @pytest.mark.parametrize(
        "flag, value",
        [("--budget", "0"), ("--budget", "-5"), ("--seed", "-1"), ("--budget", "inf"), ("--seed", "2.5")],
    )
    def test_out_of_range_flag(self, k3_col, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reverse", k3_col, flag, value])
        assert exc.value.code == EXIT_INPUT
        assert f"argument {flag}" in capsys.readouterr().err

    def test_k3_exact(self, k3_col, capsys):
        assert main(["reverse", k3_col, "--colors", "exact", "--weight", "ones",
                     "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] == pytest.approx(2.0)
        assert doc["residual"] <= 1e-12
        assert doc["ok"]

    def test_exact_timeout(self, tmp_path, capsys):
        """An exact coloring cut by --budget is no coloring to reverse: exit 4, no report."""
        path = tmp_path / "c5.col"
        path.write_text(emit_dimacs(cycle(5)))
        assert main(["reverse", str(path), "--colors", "exact", "--budget", "1"]) == EXIT_TIMEOUT
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: exact oracle timed out (best known 3)\n")

    def test_petersen_dsatur(self, petersen_col, capsys):
        assert main(["reverse", petersen_col, "--colors", "dsatur", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] == pytest.approx(2.0)  # DSATUR 3-colors Petersen

    def test_improper_coloring_file(self, k3_col, tmp_path, capsys):
        colors = tmp_path / "colors.txt"
        colors.write_text("0 0 1\n")
        assert main(["reverse", k3_col, "--colors", str(colors)]) == EXIT_IMPROPER

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read coloring file {colors}: [Errno 2] No such file or directory: '{colors}'"),
            ("0 1 x\n", "cannot read coloring file {colors}: invalid literal for int() with base 10: 'x'"),
            ("0 1\n", "coloring file has 2 entries, graph has 3 vertices"),
            ("0 1 2 0\n", "coloring file has 4 entries, graph has 3 vertices"),
        ],
        ids=["missing", "non-integer", "short", "long"],
    )
    def test_coloring_file_refused(self, k3_col, tmp_path, text, message, capsys):
        colors = tmp_path / "colors.txt"
        if text is not None:
            colors.write_text(text)
        assert main(["reverse", k3_col, "--colors", str(colors)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {message.format(colors=colors)}\n")

    def test_coloring_file_and_emit_map(self, k3_col, tmp_path, capsys):
        colors = tmp_path / "colors.txt"
        colors.write_text("0 1 2\n")
        map_path = tmp_path / "map.json"
        assert main(["reverse", k3_col, "--colors", str(colors), "--weight", "random",
                     "--seed", "5", "--emit-map", str(map_path), "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"]
        emitted = json.loads(map_path.read_text())
        assert emitted["n"] == 3
        assert len(emitted["terms"]) == 2

    def test_random_weight_draws_edges_only(self, tmp_path, capsys, monkeypatch):
        """--weight random draws one weight per edge; the dense n x n draw it replaced had a
        192.8 MiB traced peak on C2048."""
        monkeypatch.setattr(linalg, "random_hermitian", None)
        col = tmp_path / "c512.col"
        assert main(["gen", "cycle", "512", "--out", str(col)]) == EXIT_OK
        argv = ["reverse", str(col), "--weight", "random", "--seed", "3", "--format", "json"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert json.loads(first)["ok"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_k100_emit_map(self, tmp_path, capsys):
        """Each of K100's 99 terms is written as a permutation and a phase vector of length 100."""
        col, map_path = tmp_path / "k100.col", tmp_path / "map.json"
        assert main(["gen", "complete", "100", "--out", str(col)]) == EXIT_OK
        assert main(["reverse", str(col), "--emit-map", str(map_path), "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"]
        terms = json.loads(map_path.read_text())["terms"]
        assert len(terms) == 99
        for term in terms:
            assert term.keys() == {"r", "perm", "d"}
            assert len(term["perm"]) == 100 and len(term["d"]) == 100


class TestCompare:
    def test_single_file_row(self, k3_col, capsys):
        assert main(["compare", k3_col, "--format", "json", "--restarts", "1",
                     "--iters", "20"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["graphs"] == 1
        assert doc["rows"][0]["exactChi"] == 3

    def test_needs_input(self, capsys):
        assert main(["compare"]) == EXIT_INPUT

    def test_files_and_gen_corpus_are_exclusive(self, k3_col, capsys):
        """The files were silently dropped: the 33 corpus rows, no k3 row, and exit 0."""
        assert main(["compare", k3_col, "--gen-corpus"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "compare takes input files or --gen-corpus, not both" in captured.err

    @pytest.mark.parametrize("complex_weights", [False, True], ids=["real", "complex"])
    def test_corpus_quality_floor(self, complex_weights, capsys):
        """The corpus totals at 2 x 60, seed 7, may not fall below today's: a lower_sum bound of
        2 % would let 113 fall to 111."""
        argv = ["compare", "--gen-corpus", "--seed", "7", "--restarts", "2", "--iters", "60", "--format", "json"]
        assert main(argv + ["--complex-weights"] * complex_weights) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert sum(row["lower"] for row in doc["rows"]) >= 113
        assert doc["summary"]["lowerEqualsChi"] >= 31
        assert doc["summary"]["tauOptImprovements"] >= 12

    def test_gen_corpus_soundness_small_budget(self, capsys):
        assert main(["compare", "--gen-corpus", "--format", "json", "--restarts", "1",
                     "--iters", "10", "--seed", "3"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        tight = 0
        for row in doc["rows"]:
            assert "error" not in row
            chi = row["exactChi"]
            if chi is None:
                continue
            for key in ("hoffman", "tauOnes", "tauOptimized", "barnes"):
                if row[key] is not None:
                    assert row[key] <= chi + 1e-6
            assert row["wilf"] >= chi - 1e-6
            tight += row["lower"] == chi
        assert doc["summary"]["lowerEqualsChi"] == tight
        assert 0 < tight < len(doc["rows"])

    def test_text_table(self, k3_col, capsys):
        assert main(["compare", k3_col, "--restarts", "1", "--iters", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "K3".lower() in out.lower() or "k3" in out
        assert "tau-opt beats" in out
        assert out.splitlines()[-1].endswith("; lower equals exact chi on 1")

    def test_determinism_bytes(self, capsys):
        argv = ["compare", "--gen-corpus", "--format", "json", "--restarts", "1",
                "--iters", "10", "--seed", "7"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second


class TestJsonLayout:
    """Objects put one key per line and arrays of objects one element per line, at two spaces
    per level; every other array is one line."""

    def test_layout(self):
        doc = {"a": 1, "rows": [{"b": [1, 2], "c": {}}, {"d": None}], "e": [[0, 1, 0.5]], "f": [], "g": {"h": "x"}}
        assert _dump_json(doc) == (
            '{\n  "a": 1,\n  "rows": [\n    {\n      "b": [1, 2],\n      "c": {}\n    },\n    {\n'
            '      "d": null\n    }\n  ],\n  "e": [[0, 1, 0.5]],\n  "f": [],\n  "g": {\n    "h": "x"\n  }\n}\n'
        )
        assert json.loads(_dump_json(doc)) == doc

    def test_bound_document(self, petersen_col, capsys):
        argv = ["bound", petersen_col, "--restarts", "2", "--iters", "30", "--seed", "3",
                "--complex-weights", "--format", "json"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        certificates = doc.pop("certificates")
        assert list(certificates) == ["barnesD", "optimizedWeight"]
        assert first.splitlines() == (
            ["{"] + [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in doc.items()]
            + ['  "certificates": {', f'    "barnesD": {json.dumps(certificates["barnesD"])},',
               f'    "optimizedWeight": {json.dumps(certificates["optimizedWeight"])}', "  }", "}"]
        )


def _fresh_process(argv):
    """stdout of `python -m chromabound.cli argv` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(chromabound.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "chromabound.cli", *argv], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


class TestParserReuse:
    """main reuses one parser per process; no call may leave state for the next."""

    def test_plain_bound_after_complex(self, corpus, tmp_path, capsys):
        path = tmp_path / "gnp16_s8.col"
        path.write_text(emit_dimacs(dict(corpus)["gnp16_s8"]))
        argv = ["bound", str(path), "--restarts", "2", "--iters", "30", "--seed", "7", "--format", "json"]
        assert main(argv + ["--complex-weights"]) == EXIT_OK
        complex_doc = json.loads(capsys.readouterr().out)
        assert any(im != 0 for _u, _v, _re, im in complex_doc["certificates"]["optimizedWeight"])
        assert main(argv) == EXIT_OK
        text = capsys.readouterr().out
        assert text == _fresh_process(argv)
        assert all(im == 0 for _u, _v, _re, im in json.loads(text)["certificates"]["optimizedWeight"])

    def test_corpus_after_files(self, k3_col, petersen_col, capsys):
        budget = ["--restarts", "1", "--iters", "10", "--format", "json"]
        assert main(["compare", k3_col, petersen_col] + budget) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 2
        argv = ["compare", "--gen-corpus"] + budget
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == _fresh_process(argv)
        assert main(["compare"]) == EXIT_INPUT
        assert "needs input files" in capsys.readouterr().err

    def test_good_call_after_usage_error(self, k3_col, capsys):
        argv = ["bound", k3_col, "--format", "json"]
        with pytest.raises(SystemExit) as exc:
            main(["bound", k3_col, "--restarts", "0", "--complex-weights"])
        assert exc.value.code == EXIT_INPUT
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == _fresh_process(argv)


# Malformed .col text: valid and corrupted p/e/c lines, stray tokens, huge and
# negative integers, and bytes that are not UTF-8.
_INTEGER = st.one_of(st.integers(-3, 12), st.sampled_from([2**31, 2**64, 10**30, -(10**30)]))
_TOKEN = st.one_of(_INTEGER.map(str), st.sampled_from(["p", "e", "c", "edge", "col", "1.5", "nan", "-"]))
_LINE = st.one_of(
    st.builds("p edge {} {}".format, _INTEGER, _INTEGER),
    st.builds("e {} {}".format, _INTEGER, _INTEGER),
    st.builds("c {}".format, _TOKEN),
    st.lists(_TOKEN, max_size=5).map(" ".join),
).map(str.encode)


@st.composite
def _col_bytes(draw):
    n = draw(st.integers(1, 8))
    edge = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    lines = [f"p edge {n} 0".encode()] + [f"e {u} {v}".encode() for u, v in draw(st.lists(edge, max_size=12))]
    lines += draw(st.lists(st.one_of(_LINE, st.binary(min_size=1, max_size=3)), max_size=3))
    return b"\n".join(draw(st.permutations(lines)))


@given(_col_bytes())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_malformed_col_never_escapes_main(data):
    fast = ["--restarts", "1", "--iters", "5"]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.col")
        Path(path).write_bytes(data)
        for argv in (["bound", path] + fast, ["compare", path] + fast,
                     ["chi", path, "--budget", "2000"], ["reverse", path]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_IMPROPER, EXIT_TIMEOUT), (argv[0], data)


@given(_col_bytes())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_reads_a_file_as_parse_dimacs_reads_its_bytes(data):
    """The CLI hands the open file to parse_dimacs: the same graph as parse_dimacs(data), or
    the same message after the path. It decoded the file as UTF-8 before, and refused a file
    that parse_dimacs reads."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.col")
        Path(path).write_bytes(data)
        try:
            expected = parse_dimacs(data)
        except ValueError as exc:
            with pytest.raises(CliError) as info:
                _load_graph(path)
            assert str(info.value) == f"{path}: {exc}"
        else:
            assert _load_graph(path) == expected
