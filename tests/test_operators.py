import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import random_herm, random_state_mat
from renyicq.operators import (
    DensityOperator,
    HermitianOperator,
    exp_log_trace,
    partial_trace,
    pinch,
    spectral_clusters,
    support_isometry,
    support_power,
    support_projection,
    tensor,
    trace_distance,
    trace_norm,
)


class TestHermitianOperator:
    def test_symmetrization(self):
        a = HermitianOperator([[1.0, 2.0 + 1e-13j], [2.0, 3.0]])
        assert np.allclose(a.mat, a.mat.conj().T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))

    def test_spectral_reconstruction(self):
        rng = np.random.default_rng(0)
        a = random_herm(rng, 5)
        w, v = a.eig
        assert np.abs((v * w) @ v.conj().T - a.mat).max() < 1e-10


class TestDensityOperator:
    def test_clips_and_renormalizes(self):
        rho = DensityOperator(np.diag([1.0, -5e-11]))
        assert rho.eigenvalues[0] >= 0.0
        assert abs(rho.trace() - 1.0) <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.0, -1e-6]))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            DensityOperator(np.zeros((2, 2)))


class TestSupportPower:
    def test_zero_block_stays_zero(self):
        out = support_power(HermitianOperator(np.diag([4.0, 0.0])), 0.5)
        assert np.allclose(out.mat, np.diag([2.0, 0.0]), atol=1e-12)

    def test_identity_fixed(self):
        out = support_power(HermitianOperator(np.eye(2)), -3.0)
        assert np.allclose(out.mat, np.eye(2), atol=1e-12)

    def test_reciprocal_eigenvalues(self):
        # scalar oracle: reciprocals per eigenvalue
        vals = np.array([0.25, 0.75])
        out = support_power(HermitianOperator(np.diag(vals)), -1.0)
        assert np.allclose(out.mat, np.diag(1.0 / vals), atol=1e-12)

    def test_zero_power_is_projection(self):
        rng = np.random.default_rng(3)
        a = HermitianOperator(random_state_mat(rng, 4, rank=2))
        proj = support_power(a, 0.0)
        assert np.allclose(proj.mat @ proj.mat, proj.mat, atol=1e-10)
        assert abs(proj.trace() - 2.0) < 1e-8

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            support_power(HermitianOperator(np.diag([1.0, -1.0])), 0.5)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), x=st.sampled_from([0.5, -1.0, 2.0, -0.3]),
           rank=st.integers(1, 3))
    def test_power_inverse_property(self, seed, x, rank):
        rng = np.random.default_rng(seed)
        a = HermitianOperator(random_state_mat(rng, 3, rank=rank))
        prod = support_power(a, x).mat @ support_power(a, -x).mat
        assert np.abs(prod - support_projection(a).mat).max() < 1e-9


def test_support_isometry_of_rank_deficient_state():
    rng = np.random.default_rng(40)
    rho = HermitianOperator(random_state_mat(rng, 4, rank=2))
    iso = support_isometry(rho)
    assert iso.shape == (4, 2)
    assert np.abs(iso.conj().T @ iso - np.eye(2)).max() <= 1e-12
    assert np.abs(iso @ iso.conj().T - support_projection(rho).mat).max() <= 1e-12


class TestPinch:
    def test_nondegenerate_kills_offdiagonal(self):
        a = HermitianOperator(np.diag([1.0, 2.0]))
        b = HermitianOperator(np.array([[1.0, 1j], [-1j, 3.0]]))
        assert np.allclose(pinch(a, b).mat, np.diag([1.0, 3.0]), atol=1e-12)

    def test_identity_pinching_is_noop(self):
        rng = np.random.default_rng(5)
        b = random_herm(rng, 3)
        assert np.allclose(pinch(HermitianOperator(np.eye(3)), b).mat, b.mat, atol=1e-12)

    def test_two_blocks(self):
        a = HermitianOperator(np.diag([1.0, 1.0, 2.0]))
        rng = np.random.default_rng(6)
        b = random_herm(rng, 3)
        out = pinch(a, b).mat
        want = b.mat.copy()
        want[:2, 2] = 0.0
        want[2, :2] = 0.0
        assert np.allclose(out, want, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pinch(HermitianOperator(np.eye(2)), HermitianOperator(np.eye(3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_pinching_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a = random_herm(rng, 4)
        x = HermitianOperator(random_state_mat(rng, 4))
        n_clusters = len(spectral_clusters(a))
        gap = n_clusters * pinch(a, x).mat - x.mat
        assert np.linalg.eigvalsh(gap)[0] >= -1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_trace_and_positivity_preserved(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = random_herm(rng, 3)
        x = HermitianOperator(random_state_mat(rng, 3))
        y = pinch(a, x)
        assert abs(y.trace() - x.trace()) < 1e-12
        assert y.eigenvalues[0] >= -1e-12

    def test_degenerate_clustering(self):
        # eigenvalues within the gap threshold share a projection
        a = HermitianOperator(np.diag([1.0, 1.0 + 1e-9, 2.0]))
        assert len(spectral_clusters(a)) == 2


class TestExpLogTrace:
    def test_equal_states(self):
        half = HermitianOperator(np.eye(2) / 2)
        assert exp_log_trace(half, half, 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_commuting_matches_scalar(self):
        # scalar oracle: sum p^a q^(1-a)
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        want = float(np.sum(p ** 2 * q ** -1))
        got = exp_log_trace(
            HermitianOperator(np.diag(p)), HermitianOperator(np.diag(q)), 2.0
        )
        assert got == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(4.0 / 3.0)

    def test_pure_vs_mixed_on_common_support(self):
        # restricting both to span{|0>} gives exp(2*log 1 + (-1) log(1/2)) = 2
        pure = HermitianOperator(np.diag([1.0, 0.0]))
        half = HermitianOperator(np.eye(2) / 2)
        assert exp_log_trace(pure, half, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_supports_give_zero(self):
        a = HermitianOperator(np.diag([1.0, 0.0]))
        b = HermitianOperator(np.diag([0.0, 1.0]))
        assert exp_log_trace(a, b, 0.5) == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    def test_commuting_random(self, alpha):
        rng = np.random.default_rng(11)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        want = float(np.sum(p ** alpha * q ** (1.0 - alpha)))
        got = exp_log_trace(
            HermitianOperator(np.diag(p)), HermitianOperator(np.diag(q)), alpha
        )
        assert abs(got - want) < 1e-10


class TestTensor:
    def test_identity(self):
        out = tensor(HermitianOperator(np.eye(2)), HermitianOperator(np.eye(2)))
        assert np.allclose(out.mat, np.eye(4))

    def test_basis_bookkeeping(self):
        out = tensor(HermitianOperator(np.diag([1.0, 0.0])),
                     HermitianOperator(np.diag([0.0, 1.0])))
        assert np.allclose(out.mat, np.diag([0.0, 1.0, 0.0, 0.0]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_herm(rng, 2), random_herm(rng, 3)
        assert tensor(a, b).trace() == pytest.approx(a.trace() * b.trace(), abs=1e-10)


class TestPartialTrace:
    def test_marginals_of_product(self):
        rng = np.random.default_rng(9)
        a = HermitianOperator(random_state_mat(rng, 2))
        b = HermitianOperator(random_state_mat(rng, 3))
        prod = tensor(a, b)
        assert np.abs(partial_trace(prod, (2, 3), 0).mat - a.mat).max() < 1e-12
        assert np.abs(partial_trace(prod, (2, 3), 1).mat - b.mat).max() < 1e-12

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            partial_trace(HermitianOperator(np.eye(4)), (3, 2), 0)


def test_trace_norm_and_distance():
    a = np.diag([0.5, 0.5]).astype(complex)
    b = np.diag([0.25, 0.75]).astype(complex)
    assert trace_norm(a - b) == pytest.approx(0.5)
    assert trace_distance(HermitianOperator(a), HermitianOperator(b)) == pytest.approx(0.25)
