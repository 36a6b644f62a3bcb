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


class TestMapBasics:
    def test_cost_sums_weights(self):
        u = np.eye(2, dtype=complex)
        assert reversal_cost(SignReversalMap(2, ((1.0, u),))) == 1.0
        assert reversal_cost(SignReversalMap(2, ((0.5, u), (0.5, u)))) == 1.0

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SignReversalMap(2, ((0.0, np.eye(2)),))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            SignReversalMap(2, ((1.0, 2.0 * np.eye(2)),))

    def test_apply_identity_term(self):
        h = linalg.random_hermitian(4, 0)
        m = SignReversalMap(4, ((1.0, np.eye(4)),))
        assert np.allclose(apply_reversal(m, h), h)

    def test_apply_k2_diagonal(self):
        m = SignReversalMap(2, ((1.0, np.diag([1.0, -1.0])),))
        got = apply_reversal(m, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(got, [[0, -1], [-1, 0]])

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
        h = traceless(linalg.random_hermitian(3, 4))
        m = SignReversalMap(3, ((1.0, np.eye(3)),))
        check = verify_reversal(m, h)
        assert not check.ok
        assert check.residual == pytest.approx(2 * np.linalg.norm(h))

    def test_zero_target_ok(self):
        m = group_sign_reversal(2)
        assert verify_reversal(m, np.zeros((2, 2))).ok

    def test_non_traceless_rejected(self):
        m = group_sign_reversal(2)
        with pytest.raises(ValueError, match="traceless"):
            verify_reversal(m, np.eye(2))


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
            assert np.allclose(family[0], np.eye(n))

    def test_all_unitary(self):
        for u in weyl_heisenberg_family(4):
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_n2_is_pauli_family(self):
        family = weyl_heisenberg_family(2)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        assert np.allclose(family[1], z)
        assert np.allclose(family[2], x)
        assert np.allclose(family[3], x @ z)


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
            tuple((0.5 * r, u) for r, u in coloring_map.terms)
            + tuple((0.5 * r, u) for r, u in group_map.terms),
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
        for (r1, u1), (r2, u2) in zip(rmap.terms, back.terms):
            assert r1 == pytest.approx(r2)
            assert np.allclose(u1, u2, atol=1e-10)
