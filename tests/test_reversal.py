import json

import numpy as np
import pytest

from chromabound import linalg
from chromabound.bounds import WeightMatrix, ones_weight, weighted_adjacency
from chromabound.exact import exact_chi, greedy_dsatur
from chromabound.graphs import Coloring, complete, cycle, petersen
from chromabound.reversal import (
    SignReversalMap,
    apply_reversal,
    cost_lower_bound,
    deserialize_map,
    group_sign_reversal,
    reversal_cost,
    reversal_from_coloring,
    schur_average,
    serialize_map,
    verify_reversal,
    weyl_heisenberg_family,
)


def traceless(h):
    n = h.shape[0]
    return h - (np.trace(h) / n) * np.eye(n)


def dense(perm, d):
    """The n x n unitary P diag(d) of a (perm, d) term: column k is d[k] e_perm[k]."""
    n = len(perm)
    u = np.zeros((n, n), dtype=complex)
    u[perm, np.arange(n)] = d
    return u


def dense_weyl_heisenberg(n):
    """Reference: X^a Z^b by dense matrix products, a outer, b inner."""
    omega = np.exp(2j * np.pi / n)
    shift = np.zeros((n, n), dtype=complex)
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
    clock = np.diag(omega ** np.arange(n))
    out = []
    xa = np.eye(n, dtype=complex)
    for _a in range(n):
        zb = np.eye(n, dtype=complex)
        for _b in range(n):
            out.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return out


def dense_apply(m, target):
    """Reference: sum of r U^H T U with each term expanded to its dense unitary."""
    return sum(r * (dense(p, d).conj().T @ target @ dense(p, d)) for r, p, d in m.terms)


class TestMapBasics:
    def test_cost_sums_weights(self):
        perm, d = [0, 1], np.ones(2)
        assert reversal_cost(SignReversalMap(2, ((1.0, perm, d),))) == 1.0
        assert reversal_cost(SignReversalMap(2, ((0.5, perm, d), (0.5, perm, d)))) == 1.0

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SignReversalMap(2, ((0.0, [0, 1], np.ones(2)),))

    def test_non_unitary_rejected(self):
        for d in ([2.0, 2.0], [1.0, 1.0 + 1e-9], [1.0, np.nan]):
            with pytest.raises(ValueError, match="not unitary"):
                SignReversalMap(2, ((1.0, [0, 1], d),))

    def test_non_permutation_rejected(self):
        for perm in ([0, 0], [1, 2], [0.0, 1.0], [[0, 1]], [0, 1, 2]):
            with pytest.raises(ValueError, match="not a permutation of range"):
                SignReversalMap(2, ((1.0, perm, np.ones(2)),))

    def test_phase_length_rejected(self):
        with pytest.raises(ValueError, match="phase vector shape"):
            SignReversalMap(2, ((1.0, [0, 1], np.ones(3)),))

    def test_apply_identity_term(self):
        h = linalg.random_hermitian(4, 0)
        m = SignReversalMap(4, ((1.0, np.arange(4), np.ones(4)),))
        assert np.allclose(apply_reversal(m, h), h)

    def test_apply_k2_diagonal(self):
        m = SignReversalMap(2, ((1.0, [0, 1], [1.0, -1.0]),))
        got = apply_reversal(m, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(got, [[0, -1], [-1, 0]])

    def test_matches_dense_reference(self):
        graphs = (complete(2), complete(3), cycle(5), complete(6))
        maps = [reversal_from_coloring(g, exact_chi(g).witness) for g in graphs]
        maps += [group_sign_reversal(n) for n in range(2, 7)]
        mixed = ((0.25, [2, 0, 1], np.exp([0.3j, -1j, 2j])), (0.75, [1, 0, 2], [1j, -1.0, 1.0]))
        maps.append(SignReversalMap(3, mixed))
        for i, m in enumerate(maps):
            h = linalg.random_hermitian(m.n, 300 + i)
            assert np.allclose(apply_reversal(m, h), dense_apply(m, h), atol=1e-12)

    def test_apply_zero_matrix(self):
        m = group_sign_reversal(3)
        assert not apply_reversal(m, np.zeros((3, 3))).any()

    def test_dimension_mismatch(self):
        m = group_sign_reversal(2)
        with pytest.raises(ValueError, match="shape"):
            apply_reversal(m, np.zeros((3, 3)))


class TestVerify:
    def test_k2_coloring_map_exact(self):
        g = complete(2)
        rmap = reversal_from_coloring(g, Coloring((0, 1), 2))
        target = weighted_adjacency(g, ones_weight(2))
        check = verify_reversal(rmap, target)
        assert check.ok
        assert check.residual <= 1e-14

    def test_identity_map_fails(self):
        m = SignReversalMap(3, ((1.0, [0, 1, 2], np.ones(3)),))
        for scale in (1.0, 1e-12):
            h = scale * traceless(linalg.random_hermitian(3, 4))
            check = verify_reversal(m, h)
            assert not check.ok
            assert check.residual == pytest.approx(2 * np.linalg.norm(h))

    def test_zero_target_ok(self):
        m = group_sign_reversal(2)
        assert verify_reversal(m, np.zeros((2, 2))).ok

    def test_non_traceless_rejected(self):
        m = group_sign_reversal(2)
        for target in (np.eye(2), 1e-12 * np.eye(2)):
            with pytest.raises(ValueError, match="traceless"):
                verify_reversal(m, target)


class TestColoringMap:
    def test_k3_two_terms(self):
        g = complete(3)
        rmap = reversal_from_coloring(g, Coloring((0, 1, 2), 3))
        assert len(rmap.terms) == 2
        assert reversal_cost(rmap) == pytest.approx(2.0)
        target = weighted_adjacency(g, ones_weight(3))
        assert verify_reversal(rmap, target).residual <= 1e-12

    def test_petersen_random_weights(self):
        g = petersen()
        chi_result = exact_chi(g)
        rmap = reversal_from_coloring(g, chi_result.witness)
        assert reversal_cost(rmap) == pytest.approx(2.0)
        for seed in range(5):
            w = WeightMatrix(linalg.random_hermitian(10, seed), "random")
            target = weighted_adjacency(g, w)
            check = verify_reversal(rmap, target, tol=1e-9)
            assert check.ok, check.residual

    def test_phases_exact_at_large_q(self):
        """Term j's phase at vertex k is exp(2 pi i ((c_k j) mod q) / q) at every q; the
        powers (omega^c)^j drift off |d| = 1 and fail the unitary check at this q."""
        g, q = complete(2), 2049
        rmap = reversal_from_coloring(g, Coloring((0, q - 1), q))
        assert len(rmap.terms) == q - 1
        for j, (_r, _perm, d) in enumerate(rmap.terms, start=1):
            assert d[0] == 1.0
            assert d[1] == pytest.approx(np.exp(2j * np.pi * ((q - 1) * j % q) / q), abs=1e-14)
            assert np.abs(np.abs(d) - 1.0).max() <= 4 * np.finfo(float).eps
        assert verify_reversal(rmap, weighted_adjacency(g, ones_weight(2))).ok

    def test_improper_coloring_rejected(self):
        with pytest.raises(ValueError, match="not proper"):
            reversal_from_coloring(complete(3), Coloring((0, 0, 1), 2))

    def test_nonminimal_coloring_costs_more(self):
        g = cycle(4)
        dsatur = greedy_dsatur(g)  # 2 colors
        four = Coloring((0, 1, 2, 3), 4)
        assert reversal_cost(reversal_from_coloring(g, dsatur)) == pytest.approx(1.0)
        rmap4 = reversal_from_coloring(g, four)
        assert reversal_cost(rmap4) == pytest.approx(3.0)
        target = weighted_adjacency(g, ones_weight(4))
        assert verify_reversal(rmap4, target).ok


class TestWeylHeisenberg:
    def test_sizes_and_identity_first(self):
        for n in (1, 2, 3, 5):
            family = weyl_heisenberg_family(n)
            assert len(family) == n * n
            perm, d = family[0]
            assert list(perm) == list(range(n))
            assert np.array_equal(d, np.ones(n))

    def test_all_unitary(self):
        for perm, d in weyl_heisenberg_family(4):
            assert sorted(perm) == [0, 1, 2, 3]
            assert np.abs(np.abs(d) - 1.0).max() <= 1e-14
            u = dense(perm, d)
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_n2_is_pauli_family(self):
        family = [dense(perm, d) for perm, d in weyl_heisenberg_family(2)]
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        assert np.allclose(family[1], z)
        assert np.allclose(family[2], x)
        assert np.allclose(family[3], x @ z)

    def test_matches_dense_products(self):
        for n in range(1, 8):
            family = weyl_heisenberg_family(n)
            reference = dense_weyl_heisenberg(n)
            assert len(family) == len(reference)
            for (perm, d), u in zip(family, reference):
                assert np.allclose(dense(perm, d), u, atol=1e-12)


class TestSchurAverage:
    def test_identity_fixed(self):
        assert np.allclose(schur_average(np.eye(3)), np.eye(3))

    def test_traceless_killed(self):
        for seed in range(50):
            n = 2 + seed % 7
            h = traceless(linalg.random_hermitian(n, seed))
            assert np.linalg.norm(schur_average(h)) <= 1e-10 * max(1.0, np.linalg.norm(h))

    def test_trace_six_dim_three(self):
        h = linalg.random_hermitian(3, 8)
        h = traceless(h) + 2.0 * np.eye(3)
        assert np.allclose(schur_average(h), 2.0 * np.eye(3), atol=1e-10)

    def test_idempotent_and_trace_preserving(self):
        h = linalg.random_hermitian(4, 9)
        avg = schur_average(h)
        assert np.allclose(schur_average(avg), avg, atol=1e-10)
        assert np.trace(avg) == pytest.approx(np.trace(h), abs=1e-10)


class TestGroupReversal:
    def test_cost(self):
        assert reversal_cost(group_sign_reversal(2)) == pytest.approx(3.0)
        assert reversal_cost(group_sign_reversal(4)) == pytest.approx(15.0)

    def test_negates_k2_adjacency(self):
        target = np.array([[0.0, 1.0], [1.0, 0.0]])
        check = verify_reversal(group_sign_reversal(2), target)
        assert check.ok
        assert check.residual <= 1e-12

    def test_random_traceless(self):
        for seed in range(10):
            n = 2 + seed % 4
            h = traceless(linalg.random_hermitian(n, 70 + seed))
            assert verify_reversal(group_sign_reversal(n), h, tol=1e-9).ok

    def test_coloring_map_is_cheaper_on_k2(self):
        coloring_cost = reversal_cost(reversal_from_coloring(complete(2), Coloring((0, 1), 2)))
        assert coloring_cost < reversal_cost(group_sign_reversal(2))

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            group_sign_reversal(1)


class TestCostLowerBound:
    def test_k2_symmetric(self):
        from chromabound.graphs import adjacency_matrix

        assert cost_lower_bound(adjacency_matrix(complete(2))) == pytest.approx(1.0)

    def test_k3(self):
        from chromabound.graphs import adjacency_matrix

        assert cost_lower_bound(adjacency_matrix(complete(3))) == pytest.approx(2.0)

    def test_sandwiched_by_chi_minus_one(self):
        g = complete(3)
        for seed in range(10):
            w = WeightMatrix(linalg.random_hermitian(3, seed), "random")
            target = weighted_adjacency(g, w)
            if np.linalg.norm(target) < 1e-9:
                continue
            assert cost_lower_bound(target) <= 2.0 + 1e-8

    def test_scale_invariant(self):
        from chromabound.graphs import adjacency_matrix

        a = adjacency_matrix(petersen())
        for c in (1e-12, 17.0):
            assert cost_lower_bound(c * a) == pytest.approx(cost_lower_bound(a), rel=1e-10)

    def test_any_verifying_map_costs_at_least_bound(self):
        g = petersen()
        target = weighted_adjacency(g, ones_weight(10))
        bound = cost_lower_bound(target)
        coloring_map = reversal_from_coloring(g, exact_chi(g).witness)
        group_map = group_sign_reversal(10)
        # convex mixture of two verifying maps also verifies
        mixture = SignReversalMap(
            10,
            tuple((0.5 * r, p, d) for r, p, d in coloring_map.terms)
            + tuple((0.5 * r, p, d) for r, p, d in group_map.terms),
        )
        for rmap in (coloring_map, group_map, mixture):
            assert verify_reversal(rmap, target, tol=1e-9).ok
            assert reversal_cost(rmap) >= bound - 1e-8


class TestSerialization:
    def test_round_trip(self):
        g = complete(3)
        rmap = reversal_from_coloring(g, Coloring((0, 1, 2), 3))
        doc = serialize_map(rmap)
        back = deserialize_map(doc)
        assert back.n == rmap.n
        assert len(back.terms) == len(rmap.terms)
        assert doc["terms"][0].keys() == {"r", "perm", "d"}
        for (r1, p1, d1), (r2, p2, d2) in zip(rmap.terms, back.terms):
            assert r1 == pytest.approx(r2)
            assert np.array_equal(p1, p2)
            assert np.allclose(d1, d2, atol=1e-10)

    def test_group_map_round_trip(self):
        rmap = group_sign_reversal(3)
        back = deserialize_map(json.loads(json.dumps(serialize_map(rmap))))
        h = traceless(linalg.random_hermitian(3, 11))
        assert verify_reversal(back, h).ok
        for (_, p1, d1), (_, p2, d2) in zip(rmap.terms, back.terms):
            assert np.array_equal(p1, p2)
            assert np.allclose(d1, d2, atol=1e-11)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.pop("r"), "no 'r' field"),
            (lambda t: t.pop("perm"), "no 'perm' field"),
            (lambda t: t.pop("d"), "no 'd' field"),
            (lambda t: t.update(perm=[0, 1]), r"perm of shape \(2,\) is not a permutation"),
            (lambda t: t.update(d=[[1.0, 0.0]] * 4), r"phase vector shape \(4,\)"),
            (lambda t: t.update(perm=[0, 2, 2]), "not a permutation of range"),
            (lambda t: t.update(d=[[1.0, 0.0], [0.0, 1.0], [0.5, 0.0]]), "not unitary"),
        ],
        ids=["missing-r", "missing-perm", "missing-d", "perm-length", "d-length",
             "non-permutation", "non-unit-phase"],
    )
    def test_malformed_document_rejected(self, edit, message):
        doc = serialize_map(reversal_from_coloring(complete(3), Coloring((0, 1, 2), 3)))
        edit(doc["terms"][1])
        with pytest.raises(ValueError, match=message):
            deserialize_map(doc)
