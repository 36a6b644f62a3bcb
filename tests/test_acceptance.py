"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
output. Criteria with runtime targets measure wall-clock time.
"""

import json
import time

import numpy as np
import pytest

from chromabound import linalg
from chromabound.bounds import (
    barnes_bound,
    barnes_weight,
    hoffman_bound,
    ones_weight,
    optimize_weight,
    tau_bound,
    weighted_adjacency,
    wilf_upper_bound,
)
from chromabound.cli import main
from chromabound.exact import exact_chi
from chromabound.graphs import adjacency_matrix, complete, cycle, petersen
from chromabound.majorization import majorizes
from chromabound.reversal import (
    cost_lower_bound,
    group_sign_reversal,
    reversal_cost,
    reversal_from_coloring,
    schur_average,
    verify_reversal,
)


def report(line):
    print(f"[PASS] {line}")


@pytest.fixture(scope="module")
def chi_table(corpus):
    """Exact chromatic number and optimal witness per corpus graph."""
    table = {}
    for name, g in corpus:
        result = exact_chi(g)
        assert not result.timed_out, f"oracle timed out on {name}"
        table[name] = (g, result.chi, result.witness)
    return table


def test_criterion_1_hoffman_reproduction():
    t0 = time.monotonic()
    cases = {
        "K3": (complete(3), 3.0),
        "K5": (complete(5), 5.0),
        "C4": (cycle(4), 2.0),
        "Petersen": (petersen(), 2.5),
    }
    for name, (g, expected) in cases.items():
        got = hoffman_bound(g)
        assert got == pytest.approx(expected, abs=1e-8), name
        a = adjacency_matrix(g)
        w, v = linalg.eigh(a)
        assert linalg.eigen_residuals(a, w, v).max() <= 1e-9 * np.linalg.norm(a)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(f"criterion 1: Hoffman values reproduced to 1e-8 ({elapsed:.3f}s)")


def test_criterion_2_tau_dominates_hoffman(corpus):
    t0 = time.monotonic()
    checked = 0
    for name, g in corpus:
        if g.num_edges == 0:
            continue
        assert tau_bound(g, ones_weight(g)) >= hoffman_bound(g) - 1e-8, name
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(f"criterion 2: tau(ones) >= Hoffman on {checked} corpus graphs ({elapsed:.2f}s)")


def test_criterion_3_barnes_reductions(corpus):
    with_edges = 0
    for name, g in corpus:
        if g.num_edges == 0:
            continue
        value, _d = barnes_bound(g)
        assert value == pytest.approx(hoffman_bound(g), abs=1e-8), name
        with_edges += 1
    identity_checks = 0
    rng = np.random.default_rng(0)
    for name, g in corpus:
        if g.num_edges == 0:
            continue
        a = adjacency_matrix(g)
        for _ in range(20):
            d = rng.uniform(0.25, 4.0, size=g.n)
            w = barnes_weight(g, d)
            inv_root = np.diag(1.0 / np.sqrt(d))
            gap = np.abs(weighted_adjacency(g, w) - inv_root @ a @ inv_root).max()
            assert gap <= 1e-12, name
            identity_checks += 1
    report(
        f"criterion 3: Barnes(hoffman diag) = Hoffman on {with_edges} graphs; "
        f"weight identity exact in {identity_checks} random-D cases"
    )


def test_criterion_4_soundness(chi_table):
    t0 = time.monotonic()
    for name, (g, chi, _witness) in chi_table.items():
        wilf = wilf_upper_bound(g)
        assert wilf >= chi - 1e-6, name
        if g.num_edges == 0:
            continue
        lowers = [hoffman_bound(g), tau_bound(g, ones_weight(g)), barnes_bound(g)[0]]
        _w, tau = optimize_weight(g, restarts=8, iterations=200, seed=0)
        lowers.append(tau + 1.0)
        assert max(lowers) <= chi + 1e-6, (name, max(lowers), chi)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        f"criterion 4: all bounds sound against exact chi on {len(chi_table)} graphs "
        f"with default optimizer budget ({elapsed:.1f}s)"
    )


@pytest.fixture(scope="module")
def lemma1_cases(chi_table):
    """(name, target matrix, chi, map) for 10 seeded Hermitian W per graph."""
    cases = []
    for name, (g, chi, witness) in chi_table.items():
        if g.num_edges == 0:
            continue
        rmap = reversal_from_coloring(g, witness)
        for seed in range(10):
            w = linalg.random_hermitian(g.n, seed)
            cases.append((name, weighted_adjacency(g, w[g.us, g.vs]), chi, rmap))
    return cases


def test_criterion_5_lemma1_construction(lemma1_cases):
    for name, target, chi, rmap in lemma1_cases:
        check = verify_reversal(rmap, target)
        assert check.ok, (name, check.residual)
        assert reversal_cost(rmap) == chi - 1, name
    report(f"criterion 5: coloring maps verify with cost chi-1 in {len(lemma1_cases)} cases")


def test_criterion_6_lemma2_consistency(lemma1_cases):
    checked = 0
    for name, target, chi, rmap in lemma1_cases:
        if np.linalg.norm(target) < 1e-12:
            continue
        bound = cost_lower_bound(target)
        assert bound <= chi - 1 + 1e-8, (name, bound, chi)
        assert reversal_cost(rmap) >= bound - 1e-8, name
        group_map = group_sign_reversal(target.shape[0])
        assert reversal_cost(group_map) >= bound - 1e-8, name
        checked += 1
    report(f"criterion 6: cost lower bound consistent in {checked} cases")


def test_criterion_7_ky_fan():
    failures = 0
    for terms in (2, 3):
        for seed in range(100):
            n = 2 + seed % 9
            mats = [linalg.random_hermitian(n, seed * 7 + 1000 * terms + j) for j in range(terms)]
            left = linalg.spectrum(sum(mats))
            right = sum(linalg.spectrum(m) for m in mats)
            if not majorizes(left, right).holds:
                failures += 1
    assert failures == 0
    report("criterion 7: Ky Fan majorization held for 100 pairs and 100 triples")


def test_criterion_8_schur_and_group_reversal():
    for seed in range(50):
        n = 2 + seed % 7
        h = linalg.random_hermitian(n, 5000 + seed)
        avg = schur_average(h)
        target = (np.trace(h) / n) * np.eye(n)
        assert np.linalg.norm(avg - target) <= 1e-10 * np.linalg.norm(h)
    for seed in range(50):
        n = 2 + seed % 7
        h = linalg.random_hermitian(n, 6000 + seed)
        h = h - (np.trace(h) / n) * np.eye(n)
        check = verify_reversal(group_sign_reversal(n), h)
        assert check.ok, check.residual
    report("criterion 8: Schur averaging and group reversal verified on 50+50 seeded matrices")


def test_criterion_9_eigensolver_quality():
    worst = 0.0
    for i in range(200):
        n = 2 + i % 31  # up to 32
        h = linalg.random_hermitian(n, 7000 + i, complex_entries=(i % 2 == 1))
        w, v = linalg.eigh(h)
        fro = np.linalg.norm(h)
        res = linalg.eigen_residuals(h, w, v).max()
        assert res <= 1e-9 * fro
        assert abs(w.sum() - np.trace(h).real) <= 1e-9 * n
        worst = max(worst, res / fro if fro else 0.0)
    report(f"criterion 9: 200 random eigendecompositions, worst relative residual {worst:.2e}")


def test_criterion_10_determinism(capsys):
    argv = ["compare", "--gen-corpus", "--seed", "7", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    json.loads(first)  # well-formed
    report("criterion 10: corpus comparison output is byte-identical across runs")
