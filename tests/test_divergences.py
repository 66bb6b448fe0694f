import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from _helpers import classical_q_scalar, random_herm, random_state_mat
from renyicq.channels import parse_preset
from renyicq.divergences import (
    INF_Z,
    SUPPORT_INF,
    RenyiParams,
    SupportViolationInfinity,
    classify_region,
    d_alpha_z,
    d_hat,
    d_max,
    q_alpha_z,
    q_alpha_z_regularized,
    tsallis,
    umegaki,
)
from renyicq.operators import DensityOperator, HermitianOperator, pinch


def state(diag):
    return DensityOperator(np.diag(diag))


HALF = DensityOperator(np.eye(2) / 2)
PURE0 = DensityOperator(np.diag([1.0, 0.0]))
PURE1 = DensityOperator(np.diag([0.0, 1.0]))
P_HALF = state([0.5, 0.5])
Q_SKEW = state([0.25, 0.75])


class TestRenyiParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RenyiParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            RenyiParams(2.0, 0.0)

    def test_factories(self):
        assert RenyiParams.sandwiched(2.0).z == 2.0
        assert RenyiParams.petz(3.0).z == 1.0
        assert RenyiParams.log_euclidean(2.0).is_log_euclidean

    def test_sign(self):
        assert RenyiParams(0.5, 1.0).s == -1
        assert RenyiParams(2.0, 1.0).s == 1

    def test_alpha_one_rejected_where_undefined(self):
        with pytest.raises(ValueError):
            q_alpha_z(HALF, HALF, RenyiParams(1.0, 1.0))
        with pytest.raises(ValueError):
            tsallis(HALF, HALF, RenyiParams(1.0, 1.0))


class TestSupportInfinity:
    def test_behaves_like_inf(self):
        assert SUPPORT_INF == math.inf
        assert math.isinf(SUPPORT_INF)
        assert SUPPORT_INF + 1.0 == math.inf

    def test_distinguishable_from_overflow(self):
        assert isinstance(SUPPORT_INF, SupportViolationInfinity)
        assert not isinstance(math.inf, SupportViolationInfinity)


class TestQAlphaZ:
    def test_equal_states(self):
        rng = np.random.default_rng(0)
        rho = DensityOperator(random_state_mat(rng, 3))
        assert q_alpha_z(rho, rho, RenyiParams(2.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, INF_Z])
    def test_commuting_is_z_independent(self, z):
        got = q_alpha_z(P_HALF, Q_SKEW, RenyiParams(2.0, z))
        assert got == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_pure_vs_mixed_sandwiched(self):
        # explicit 2x2 matrices: (rho^(1/2) sigma^(-1/2) rho^(1/2)) = sqrt(2) rho
        inner = PURE0.mat @ (np.sqrt(2.0) * np.eye(2)) @ PURE0.mat
        want = float(np.trace(np.linalg.matrix_power(inner, 2)).real)
        got = q_alpha_z(PURE0, HALF, RenyiParams(2.0, 2.0))
        assert got == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(2.0)

    def test_support_violation_is_flagged_infinity(self):
        got = q_alpha_z(PURE0, PURE1, RenyiParams(2.0, 1.0))
        assert isinstance(got, SupportViolationInfinity)

    def test_orthogonal_supports_alpha_below_one(self):
        assert q_alpha_z(PURE0, PURE1, RenyiParams(0.5, 1.0)) == 0.0

    @pytest.mark.parametrize("params", [RenyiParams.sandwiched(0.3),
                                        RenyiParams.sandwiched(0.5),
                                        RenyiParams(0.5, 0.2)])
    @pytest.mark.parametrize("rvec, svec", [
        ([1.0 - 1e-3, 1e-3], [0.0, 1.0]),
        ([0.7, 0.3 - 1e-4, 1e-4, 0.0], [0.0, 0.0, 0.4, 0.6]),
    ])
    def test_rotated_rank_deficient_commuting(self, params, rvec, svec):
        # In a generic basis the null directions of the full-space sandwich
        # come out at roundoff, about 1e-16 absolute, and sum w^z with z < 1
        # lifts them to about 1e-5 of Q; they must not count as spectrum.
        want = classical_q_scalar(rvec, svec, params.alpha)
        for seed in range(3):
            u = unitary_group.rvs(len(rvec), random_state=seed)
            rho = HermitianOperator(u @ np.diag(rvec) @ u.conj().T)
            sigma = HermitianOperator(u @ np.diag(svec) @ u.conj().T)
            assert q_alpha_z(rho, sigma, params) == pytest.approx(want, rel=1e-12)

    def test_zero_first_argument_rejected(self):
        with pytest.raises(ValueError):
            q_alpha_z(HermitianOperator(np.zeros((2, 2))), HALF, RenyiParams(2.0, 1.0))


class TestDAlphaZ:
    def test_equal_states_zero(self):
        rng = np.random.default_rng(1)
        rho = DensityOperator(random_state_mat(rng, 2))
        for p in (RenyiParams(2.0, 1.0), RenyiParams(0.5, 0.7), RenyiParams(2.0, INF_Z)):
            assert abs(d_alpha_z(rho, rho, p)) < 1e-10

    def test_commuting_classical_value(self):
        want = math.log(4.0 / 3.0)
        assert d_alpha_z(P_HALF, Q_SKEW, RenyiParams(2.0, 1.0)) == pytest.approx(want, abs=1e-12)

    def test_pure_vs_mixed(self):
        got = d_alpha_z(PURE0, HALF, RenyiParams(2.0, 2.0))
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_alpha_one_delegates_to_relative_entropy(self):
        got = d_alpha_z(P_HALF, Q_SKEW, RenyiParams(1.0, 1.0))
        assert got == pytest.approx(umegaki(P_HALF, Q_SKEW), abs=1e-14)

    def test_infinity_on_zero_q(self):
        got = d_alpha_z(PURE0, PURE1, RenyiParams(0.5, 1.0))
        assert isinstance(got, SupportViolationInfinity)

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_rotated_orthogonal_supports(self, alpha):
        # In a generic basis the product of orthogonal supports is roundoff,
        # not a tiny overlap: D is SUPPORT_INF and Q is 0.
        u = unitary_group.rvs(3, random_state=1)
        rho = HermitianOperator(u @ np.diag([0.7, 0.3, 0.0]) @ u.conj().T)
        sigma = HermitianOperator(u @ np.diag([0.0, 0.0, 1.0]) @ u.conj().T)
        for z in (0.3, alpha, 1.0):
            params = RenyiParams(alpha, z)
            assert isinstance(d_alpha_z(rho, sigma, params), SupportViolationInfinity)
            assert q_alpha_z(rho, sigma, params) == 0.0

    def test_small_overlaps_stay_finite(self):
        # alpha < 1: an overlap of 1e-8 is real, far above roundoff.
        got = d_alpha_z(PURE0, state([1e-8, 1.0 - 1e-8]), RenyiParams(0.5, 1.0))
        assert got == pytest.approx(-2.0 * math.log(1e-4), rel=1e-12)
        # Powers above 1 push a real overlap far below the support cutoff:
        # sigma^9 weighs |0> by 0.05^9 ~ 2e-12, sigma^(7/3) by 1e-14.
        got = d_alpha_z(PURE0, state([0.05, 0.95]), RenyiParams(0.1, 0.1))
        assert got == pytest.approx(-math.log(0.05), rel=1e-12)
        got = d_alpha_z(PURE0, state([1e-6, 1.0 - 1e-6]), RenyiParams.sandwiched(0.3))
        assert got == pytest.approx(-math.log(1e-6), rel=1e-12)
        # alpha > 1: sigma^(1-a) has norm 1e15, far above the product's 1.
        got = d_alpha_z(PURE0, state([1.0 - 1e-5, 1e-5]), RenyiParams(4.0, 1.0))
        assert got == pytest.approx(-math.log1p(-1e-5), rel=1e-12)

    def test_large_order_is_finite_not_support_violation(self):
        # Q = sum_j p_j^a q_j^(1-a) is about e^746 here, past the largest double.
        rho, sigma = state([0.6, 0.4]), state([0.5, 0.5])
        want = (math.log(0.5) + 4096 * math.log(1.2)
                + math.log1p((0.8 / 1.2) ** 4096)) / 4095.0
        got = d_alpha_z(rho, sigma, RenyiParams.sandwiched(4096.0))
        assert not isinstance(got, SupportViolationInfinity)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.18220, abs=1e-5)
        assert isinstance(d_alpha_z(P_HALF, PURE0, RenyiParams.sandwiched(4096.0)),
                          SupportViolationInfinity)

    def test_petz_overflow_is_not_a_support_violation(self):
        # sigma^(1-a) = 1e351 on |1>: Q = 0.6^40 (1-1e-9)^-39 + 0.4^40 1e351
        # is past the largest double, though the supports overlap.
        rho, sigma = state([0.6, 0.4]), HermitianOperator(np.diag([1.0 - 1e-9, 1e-9]))
        params = RenyiParams.petz(40.0)
        log_q = np.logaddexp(40 * math.log(0.6) - 39 * math.log1p(-1e-9),
                             40 * math.log(0.4) - 39 * math.log(1e-9))
        got = d_alpha_z(rho, sigma, params)
        assert got == pytest.approx(log_q / 39.0, rel=1e-12)
        assert got == pytest.approx(19.783480470921635, rel=1e-12)
        q = q_alpha_z(rho, sigma, params)
        assert q == math.inf and not isinstance(q, SupportViolationInfinity)

    @pytest.mark.parametrize("alpha, want", [(64.0, 2.3395843182036002),
                                             (512.0, 2.351656387714214),
                                             (1024.0, 2.352507002034593)])
    def test_log_euclidean_large_order(self, alpha, want):
        # Tr exp(a log W_0 + (1-a) log W_1) is past the largest double from
        # alpha = 512 on; the references are 60-digit evaluations.
        w, _ = parse_preset("random:4:3:1")
        got = d_alpha_z(w.output("0"), w.output("1"), RenyiParams.log_euclidean(alpha))
        assert got == pytest.approx(want, abs=1e-12)


class TestUmegaki:
    def test_equal_states(self):
        assert umegaki(Q_SKEW, Q_SKEW) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_value(self):
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert umegaki(P_HALF, Q_SKEW) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.14384, abs=1e-5)

    def test_support_violation(self):
        assert isinstance(umegaki(PURE0, PURE1), SupportViolationInfinity)

    def test_subnormalized_first_argument(self):
        # Tr rho (log rho - log sigma) / Tr rho with rho = I, sigma = I/2
        rho = HermitianOperator(np.diag([1.0, 1.0]))
        sig = state([0.5, 0.5])
        assert umegaki(rho, sig) == pytest.approx(math.log(2.0), abs=1e-12)


class TestDMax:
    def test_equal_states(self):
        assert d_max(Q_SKEW, Q_SKEW) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_max_ratio(self):
        assert d_max(P_HALF, Q_SKEW) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        for d in (2, 3, 4):
            pure = DensityOperator(np.diag([1.0] + [0.0] * (d - 1)))
            mixed = DensityOperator(np.eye(d) / d)
            assert d_max(pure, mixed) == pytest.approx(math.log(d), abs=1e-12)

    def test_support_violation(self):
        assert isinstance(d_max(PURE0, PURE1), SupportViolationInfinity)

    def test_unnormalized_first_argument_is_large_order_limit(self):
        rho = HermitianOperator(np.diag([1.2, 0.8]))
        assert d_max(rho, HALF) == pytest.approx(math.log(2.4), abs=1e-12)
        limit = d_alpha_z(rho, HALF, RenyiParams.sandwiched(1e6))
        assert d_max(rho, HALF) == pytest.approx(limit, abs=1e-5)


class TestTsallis:
    def test_equal_states(self):
        rng = np.random.default_rng(2)
        rho = DensityOperator(random_state_mat(rng, 3))
        assert abs(tsallis(rho, rho, RenyiParams(2.0, 1.0))) < 1e-12

    def test_scalar_value(self):
        got = tsallis(P_HALF, Q_SKEW, RenyiParams(2.0, 1.0))
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = DensityOperator(random_state_mat(rng, 2))
            sig = DensityOperator(random_state_mat(rng, 2))
            alpha = float(rng.uniform(0.1, 3.0))
            alpha = alpha if abs(alpha - 1.0) > 1e-3 else 1.1
            z = float(rng.uniform(0.1, 3.0))
            assert tsallis(rho, sig, RenyiParams(alpha, z)) >= -1e-10

    def test_requires_finite_z(self):
        with pytest.raises(ValueError):
            tsallis(P_HALF, Q_SKEW, RenyiParams(2.0, INF_Z))

    def test_overflow_is_not_a_support_violation(self):
        rho = HermitianOperator(np.diag([0.6, 0.4]))
        with np.errstate(over="ignore"):
            got = tsallis(rho, HermitianOperator(np.diag([0.5, 0.5])),
                          RenyiParams.sandwiched(4096.0))
        assert got == math.inf
        assert not isinstance(got, SupportViolationInfinity)
        leak = tsallis(rho, HermitianOperator(np.diag([1.0, 0.0])), RenyiParams(2.0, 2.0))
        assert isinstance(leak, SupportViolationInfinity)


class TestDHat:
    def test_projective(self):
        rho = HermitianOperator(3.0 * Q_SKEW.mat)
        assert abs(d_hat(rho, Q_SKEW, RenyiParams(2.0, 1.0))) < 1e-12

    def test_matches_d_on_states(self):
        got = d_hat(P_HALF, Q_SKEW, RenyiParams(2.0, 1.0))
        assert got == pytest.approx(d_alpha_z(P_HALF, Q_SKEW, RenyiParams(2.0, 1.0)), abs=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = HermitianOperator(2.5 * random_state_mat(rng, 2))
            sig = HermitianOperator(0.3 * random_state_mat(rng, 2))
            alpha = 2.0 if rng.random() < 0.5 else 0.6
            assert d_hat(rho, sig, RenyiParams(alpha, 1.3)) >= -1e-10

    @pytest.mark.parametrize("params", [RenyiParams(2.0, 1.0), RenyiParams.sandwiched(3.0),
                                        RenyiParams.log_euclidean(2.0)])
    def test_support_violation_passes_through(self, params):
        # Shifting by the log traces must not turn SUPPORT_INF into a plain inf.
        got = d_hat(HermitianOperator(2.5 * P_HALF.mat), HermitianOperator(0.3 * PURE0.mat),
                    params)
        assert isinstance(got, SupportViolationInfinity)


class TestClassifyRegion:
    def test_sandwiched_two(self):
        rep = classify_region(RenyiParams(2.0, 2.0))
        assert rep.monotone_cptp
        assert rep.in_Gamma_D
        assert "K6" in rep.regions and "K7" in rep.regions
        assert rep.second_arg_convex_D

    def test_low_alpha_low_z(self):
        rep = classify_region(RenyiParams(0.5, 0.25))
        assert rep.regions == ("K0",)
        assert not rep.monotone_cptp
        assert not rep.in_Gamma_D

    def test_petz_half(self):
        rep = classify_region(RenyiParams(0.5, 1.0))
        assert rep.monotone_cptp
        assert "K2" in rep.regions and "K4" in rep.regions
        assert rep.in_Gamma_D

    def test_boundary_inclusive(self):
        rep = classify_region(RenyiParams(0.5, 0.5))
        assert {"K1", "K2", "K3"} <= set(rep.regions)
        assert rep.monotone_cptp
        # sandwiched alpha = 1/2 sits outside the support-equality region
        assert not rep.in_Gamma_D

    def test_quasi_only_band(self):
        rep = classify_region(RenyiParams(1.8, 0.95))
        assert rep.regions == ("K5",)
        assert rep.monotone_cptp
        assert rep.quasi_convex_D
        assert not rep.second_arg_convex_D

    def test_log_euclidean(self):
        rep = classify_region(RenyiParams(2.0, INF_Z))
        assert rep.regions == ()
        assert not rep.monotone_cptp
        assert rep.in_Gamma_D  # the alpha > 1 branch has no finiteness clause

    def test_gamma_qbar(self):
        assert classify_region(RenyiParams(2.0, 2.0)).in_Gamma_Qbar
        assert not classify_region(RenyiParams(2.0, 1.5)).in_Gamma_Qbar
        assert classify_region(RenyiParams(0.6, 0.7)).in_Gamma_Qbar


class TestInvariants:
    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_q_monotone_in_z(self, alpha):
        rng = np.random.default_rng(7)
        rho = DensityOperator(random_state_mat(rng, 3))
        sig = DensityOperator(random_state_mat(rng, 3))
        zs = [alpha / 2.0, alpha, 2.0 * alpha, INF_Z]
        qs = [q_alpha_z(rho, sig, RenyiParams(alpha, z)) for z in zs]
        for hi, lo in zip(qs, qs[1:]):
            assert lo <= hi + 1e-9

    @pytest.mark.parametrize("params", [RenyiParams(0.5, 1.0), RenyiParams(2.0, 2.0),
                                        RenyiParams(0.7, 1.5), RenyiParams(1.5, 1.0)])
    def test_data_processing_under_pinching(self, params):
        assert classify_region(params).monotone_cptp
        rng = np.random.default_rng(8)
        for _ in range(3):
            rho = DensityOperator(random_state_mat(rng, 3))
            sig = DensityOperator(random_state_mat(rng, 3))
            a = random_herm(rng, 3)
            before = d_alpha_z(rho, sig, params)
            after = d_alpha_z(pinch(a, rho), pinch(a, sig), params)
            assert after <= before + 1e-9

    def test_commuting_reduction_all_z(self):
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        rho, sig = state(p), state(q)
        for alpha in (0.4, 2.2):
            want = classical_q_scalar(p, q, alpha)
            for z in (0.3, 1.0, alpha, 2.7, INF_Z):
                assert q_alpha_z(rho, sig, RenyiParams(alpha, z)) == pytest.approx(
                    want, abs=1e-10)

    def test_alpha_to_one_continuity(self):
        rng = np.random.default_rng(10)
        rho = DensityOperator(random_state_mat(rng, 3))
        sig = DensityOperator(random_state_mat(rng, 3))
        target = umegaki(rho, sig)
        h = 1e-4
        for lo_p, hi_p in (
            (RenyiParams(1 - h, 1 - h), RenyiParams(1 + h, 1 + h)),
            (RenyiParams(1 - h, 1.0), RenyiParams(1 + h, 1.0)),
        ):
            lo = d_alpha_z(rho, sig, lo_p)
            hi = d_alpha_z(rho, sig, hi_p)
            assert lo <= target + 1e-3 <= hi + 2e-3
            assert abs(lo - target) < 1e-3 and abs(hi - target) < 1e-3

    def test_strict_positivity_outside_k0(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 12:
            rho = DensityOperator(random_state_mat(rng, 2))
            sig = DensityOperator(random_state_mat(rng, 2))
            alpha = float(rng.uniform(0.05, 3.0))
            if abs(alpha - 1.0) < 1e-2:
                continue
            z = float(rng.uniform(0.05, 3.0))
            if "K0" in classify_region(RenyiParams(alpha, z)).regions:
                continue
            done += 1
            assert d_hat(rho, sig, RenyiParams(alpha, z)) > 1e-6
            assert tsallis(rho, sig, RenyiParams(alpha, z)) > 1e-6

    @pytest.mark.parametrize("params", [RenyiParams(0.5, 1.0), RenyiParams(0.3, 2.0),
                                        RenyiParams.sandwiched(2.0), RenyiParams(3.0, 0.7),
                                        RenyiParams.petz(40.0), RenyiParams.log_euclidean(0.6),
                                        RenyiParams.log_euclidean(8.0)])
    @pytest.mark.parametrize("rank", [3, 2])
    def test_log_q_is_scaled_divergence(self, params, rank):
        # log Q = (alpha - 1) D + log Tr rho, with Tr rho != 1 and a deficient rho.
        rng = np.random.default_rng(12)
        rho = HermitianOperator(2.5 * random_state_mat(rng, 3, rank))
        sig = HermitianOperator(0.4 * random_state_mat(rng, 3))
        q = q_alpha_z(rho, sig, params)
        want = (params.alpha - 1.0) * d_alpha_z(rho, sig, params) + math.log(rho.trace())
        assert math.log(q) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestRegularizedPath:
    def test_matches_support_path_full_rank(self):
        rng = np.random.default_rng(12)
        for params in (RenyiParams(2.0, 1.0), RenyiParams(0.6, 1.4), RenyiParams(2.5, 2.5)):
            rho = DensityOperator(random_state_mat(rng, 3))
            sig = DensityOperator(random_state_mat(rng, 3))
            direct = q_alpha_z(rho, sig, params)
            reg = q_alpha_z_regularized(rho, sig, params)
            assert reg == pytest.approx(direct, rel=1e-6)

    def test_matches_on_singular_second_argument(self):
        rng = np.random.default_rng(13)
        rho = DensityOperator(random_state_mat(rng, 3))
        sig = DensityOperator(random_state_mat(rng, 3, rank=2))
        params = RenyiParams(0.6, 1.0)
        assert q_alpha_z_regularized(rho, sig, params) == pytest.approx(
            q_alpha_z(rho, sig, params), rel=1e-4)

    def test_detects_divergence_on_support_violation(self):
        sig = DensityOperator(np.diag([0.0, 1.0]))
        rho = DensityOperator(np.diag([1.0, 0.0]))
        assert math.isinf(q_alpha_z_regularized(rho, sig, RenyiParams(2.0, 1.0)))

    def test_rejects_infinite_z(self):
        with pytest.raises(ValueError):
            q_alpha_z_regularized(P_HALF, Q_SKEW, RenyiParams(2.0, INF_Z))
