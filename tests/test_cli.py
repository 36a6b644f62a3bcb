import json

import pytest

from chromabound.cli import EXIT_IMPROPER, EXIT_INPUT, EXIT_OK, EXIT_TIMEOUT, main
from chromabound.graphs import emit_dimacs, erdos_renyi, parse_dimacs, petersen


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
        [("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
         ("--restarts", "0"), ("--restarts", "-4"), ("--iters", "0"), ("--iters", "x")],
    )
    def test_out_of_range_flag(self, k3_col, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", k3_col, flag, value])
        assert exc.value.code == EXIT_INPUT
        assert f"argument {flag}" in capsys.readouterr().err

    def test_edgeless_exits_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty.col"
        empty.write_text("p edge 4 0\n")
        assert main(["bound", str(empty), "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["hoffman"] is None
        assert any("edgeless" in note for note in doc["notes"])


class TestOversized:
    """A valid file whose n would need ~80 GB per dense n x n matrix."""

    @pytest.fixture
    def huge_col(self, tmp_path):
        path = tmp_path / "huge.col"
        path.write_text("p edge 100000 1\ne 1 2\n")
        return str(path)

    @pytest.mark.parametrize("command", ["bound", "compare", "reverse"])
    def test_rejected_before_allocation(self, huge_col, command, capsys):
        assert main([command, huge_col]) == EXIT_INPUT
        assert "100000 vertices exceed" in capsys.readouterr().err


class TestChi:
    def test_petersen(self, petersen_col, capsys):
        assert main(["chi", petersen_col, "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["chi"] == 3

    def test_k6(self, tmp_path, capsys):
        path = tmp_path / "k6.col"
        from chromabound.graphs import complete

        path.write_text(emit_dimacs(complete(6)))
        assert main(["chi", str(path), "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["chi"] == 6

    def test_forced_timeout(self, tmp_path, capsys):
        from chromabound.graphs import complete, mycielski

        path = tmp_path / "grotzsch.col"
        path.write_text(emit_dimacs(mycielski(mycielski(complete(2)))))
        assert main(["chi", str(path), "--budget", "10"]) == EXIT_TIMEOUT


class TestReverse:
    def test_k3_exact(self, k3_col, capsys):
        assert main(["reverse", k3_col, "--colors", "exact", "--weight", "ones",
                     "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] == pytest.approx(2.0)
        assert doc["residual"] <= 1e-12
        assert doc["ok"]

    def test_petersen_dsatur(self, petersen_col, capsys):
        assert main(["reverse", petersen_col, "--colors", "dsatur", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] == pytest.approx(2.0)  # DSATUR 3-colors Petersen

    def test_improper_coloring_file(self, k3_col, tmp_path, capsys):
        colors = tmp_path / "colors.txt"
        colors.write_text("0 0 1\n")
        assert main(["reverse", k3_col, "--colors", str(colors)]) == EXIT_IMPROPER

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


class TestCompare:
    def test_single_file_row(self, k3_col, capsys):
        assert main(["compare", k3_col, "--format", "json", "--restarts", "1",
                     "--iters", "20"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["graphs"] == 1
        assert doc["rows"][0]["exactChi"] == 3

    def test_needs_input(self, capsys):
        assert main(["compare"]) == EXIT_INPUT

    def test_gen_corpus_soundness_small_budget(self, capsys):
        assert main(["compare", "--gen-corpus", "--format", "json", "--restarts", "1",
                     "--iters", "10", "--seed", "3"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        for row in doc["rows"]:
            assert "error" not in row
            chi = row["exactChi"]
            if chi is None:
                continue
            for key in ("hoffman", "tauOnes", "tauOptimized", "barnes"):
                if row[key] is not None:
                    assert row[key] <= chi + 1e-6
            assert row["wilf"] >= chi - 1e-6

    def test_text_table(self, k3_col, capsys):
        assert main(["compare", k3_col, "--restarts", "1", "--iters", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "K3".lower() in out.lower() or "k3" in out
        assert "tau-opt beats" in out

    def test_determinism_bytes(self, capsys):
        argv = ["compare", "--gen-corpus", "--format", "json", "--restarts", "1",
                "--iters", "10", "--seed", "7"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
