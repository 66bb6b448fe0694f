import math
import warnings

import numpy as np
import pytest

from _helpers import diagonal_channel, random_state_mat, scalar_center_map
from renyicq import centers
from renyicq.centers import (
    CLOSED_FORM_Z1,
    DEFAULT_TOL,
    FIXED_POINT,
    ORACLE_GRID,
    closed_form_center_z1,
    divergence_radius,
    fixed_point_map_D,
    fixed_point_map_Qbar,
    fixed_point_map_tsallis,
    holevo_quantity,
    mutual_information,
    mutual_information_direct,
    oracle_grid_center,
    solve_center_D,
    solve_center_Qbar,
    solve_center_direct,
    solve_center_tsallis,
    stationarity_residual,
    weighted_divergence,
    weighted_radius_beta,
)
from renyicq.channels import (
    GcqChannel,
    InputDistribution,
    average_output,
    noiseless_channel,
    product_channel,
    parse_preset,
    product_distribution,
    random_cq_channel,
)
from renyicq.divergences import (
    INF_Z,
    RenyiParams,
    d_alpha_z,
    q_alpha_z,
    tsallis,
    umegaki,
)
from renyicq.exceptions import NonConvergenceError, SingularInputError
from renyicq.exponents import RadiusCache
from renyicq.operators import (
    DensityOperator,
    HermitianOperator,
    support_power,
    support_projection,
    trace_distance,
    trace_norm,
)

SANDWICHED_2 = RenyiParams(2.0, 2.0)


class TestFixedPointMapD:
    def test_noiseless_average_is_fixed(self):
        w, p = noiseless_channel(3)
        sigma = DensityOperator(average_output(w, p).mat)
        for params in (SANDWICHED_2, RenyiParams(0.7, 1.0), RenyiParams(3.0, 1.5)):
            out = fixed_point_map_D(w, p, params, sigma)
            assert np.abs(out.mat - sigma.mat).max() < 1e-12

    def test_single_symbol_fixed_point(self):
        rng = np.random.default_rng(0)
        w, _ = random_cq_channel(2, 2, rng)
        p = InputDistribution.point("0")
        sigma = DensityOperator(w.output("0").mat)
        out = fixed_point_map_D(w, p, SANDWICHED_2, sigma)
        assert np.abs(out.mat - sigma.mat).max() < 1e-10

    def test_matches_scalar_map_on_diagonal_channel(self):
        rng = np.random.default_rng(1)
        w, p, rows, weights = diagonal_channel(rng, dim=3, symbols=2)
        q = rng.dirichlet(np.ones(3))
        sigma = DensityOperator(np.diag(q))
        out = fixed_point_map_D(w, p, RenyiParams(2.0, 1.0), sigma)
        want = scalar_center_map(rows, weights, q, 2.0)
        assert np.abs(np.diag(out.mat).real - want).max() < 1e-12

    def test_support_mismatch_rejected(self):
        w, p = noiseless_channel(2)
        bad = DensityOperator(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            fixed_point_map_D(w, p, SANDWICHED_2, bad)

    def test_singular_symbol_rejected(self):
        w = GcqChannel({"a": np.diag([1.0, 0.0]), "b": np.zeros((2, 2))})
        p = InputDistribution.uniform(["a", "b"])
        sigma = DensityOperator(np.diag([1.0, 0.0]))
        with pytest.raises(SingularInputError):
            fixed_point_map_D(w, p, RenyiParams(0.5, 1.0), sigma)


class TestSolveCenterD:
    @pytest.mark.parametrize("params", [SANDWICHED_2, RenyiParams(2.0, 1.0),
                                        RenyiParams(0.7, 1.0), RenyiParams(1.5, 1.5)])
    def test_noiseless_entropy(self, params):
        w, _ = noiseless_channel(3)
        p = InputDistribution({"0": 0.2, "1": 0.3, "2": 0.5})
        res = solve_center_D(w, p, params)
        assert res.converged and not res.heuristic
        assert res.value == pytest.approx(p.entropy(), abs=1e-10)

    def test_point_distribution(self):
        rng = np.random.default_rng(2)
        w, _ = random_cq_channel(2, 3, rng)
        p = InputDistribution.point("1")
        res = solve_center_D(w, p, SANDWICHED_2)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert trace_distance(res.center, DensityOperator(w.output("1").mat)) < 1e-8

    def test_residual_is_fixed_point_defect(self):
        rng = np.random.default_rng(3)
        w, p = random_cq_channel(2, 3, rng)
        res = solve_center_D(w, p, SANDWICHED_2)
        assert res.converged and res.method == FIXED_POINT
        post = fixed_point_map_D(w, p, SANDWICHED_2, res.center)
        defect = np.abs(np.linalg.eigvalsh(post.mat - res.center.mat)).sum()
        assert defect <= 5e-10

    def test_value_is_weighted_divergence_at_center(self):
        rng = np.random.default_rng(4)
        w, p = random_cq_channel(3, 3, rng)
        res = solve_center_D(w, p, RenyiParams(1.5, 1.0))
        assert res.value == pytest.approx(
            weighted_divergence(w, p, RenyiParams(1.5, 1.0), res.center), abs=1e-12)

    @pytest.mark.parametrize("alpha", [4.0, 8.0])
    def test_value_is_exact_at_diagonal_center(self, alpha):
        # W_0's 5e-4 entry weighs about 1e-13 of Q_0 at alpha = 8: any
        # relative spectral cutoff above roundoff (1e-14) would drop it.
        rows = np.array([[0.9, 0.0995, 5e-4], [0.2, 0.3, 0.5], [0.05, 0.9, 0.05]])
        weights = np.array([0.5, 0.3, 0.2])
        w = GcqChannel({str(i): HermitianOperator(np.diag(r).astype(complex))
                        for i, r in enumerate(rows)})
        p = InputDistribution({str(i): x for i, x in enumerate(weights)})
        res = solve_center_D(w, p, RenyiParams.petz(alpha))
        assert res.converged and res.method == FIXED_POINT
        q = np.diag(res.center.mat).real
        want = weights @ np.log(rows ** alpha @ q ** (1.0 - alpha)) / (alpha - 1.0)
        assert res.value == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_weighted_divergence_matches_solved_value(self):
        # The sandwich spectrum of d_alpha_z is cut at roundoff only, so the
        # public F(sigma) agrees with the solve's own sweep; a 1e-10 relative
        # cutoff puts them 1.75e-11 apart here.
        w, p = parse_preset("random:8:3:3")
        params = RenyiParams.petz(4.0)
        res = solve_center_D(w, p, params)
        assert weighted_divergence(w, p, params, res.center) == pytest.approx(
            res.value, rel=1e-14, abs=0.0)

    def test_heuristic_flag_outside_region(self):
        rng = np.random.default_rng(5)
        w, p = random_cq_channel(2, 3, rng)
        res = solve_center_D(w, p, RenyiParams(0.5, 0.3))
        assert res.heuristic

    def test_high_alpha_converges(self):
        rng = np.random.default_rng(6)
        w, p = random_cq_channel(2, 3, rng)
        res = solve_center_D(w, p, RenyiParams.sandwiched(64.0))
        assert res.converged

    def test_order_1024_stays_finite(self):
        # (u/u_max)^z with log u_max kept apart: no power of the sweep over-
        # or underflows, so the solve neither raises nor leaves the bracket
        # chi*_256 <= chi*_1024 <= chi_inf.
        w, p = random_cq_channel(2, 3, np.random.default_rng(11))
        res = solve_center_D(w, p, RenyiParams.sandwiched(1024.0))
        low = solve_center_D(w, p, RenyiParams.sandwiched(256.0)).value
        assert math.isfinite(res.value)
        assert low <= res.value <= RadiusCache(w, p).chi_inf() + 1e-9

    def test_order_600_converges_by_fixed_point(self):
        w, p = parse_preset("random:2:3:7")
        res = solve_center_D(w, p, RenyiParams.sandwiched(600.0))
        assert res.converged and res.method == FIXED_POINT

    def test_order_1024_converges_by_fixed_point(self):
        w, p = random_cq_channel(2, 3, np.random.default_rng(11))
        res = solve_center_D(w, p, RenyiParams.sandwiched(1024.0))
        assert res.converged and res.method == FIXED_POINT

    # Sweeps of the plain damped iteration (damping 1/alpha) from W(P).
    @pytest.mark.parametrize("dim,alpha,damped", [
        (2, 64.0, 1181), (2, 256.0, 4746),
        (4, 64.0, 698), (4, 256.0, 2864),
        (8, 64.0, 942), (8, 256.0, 3816),
    ])
    def test_mixing_cuts_large_order_sweeps(self, dim, alpha, damped):
        w, p = parse_preset(f"random:{dim}:3:7")
        res = solve_center_D(w, p, RenyiParams.sandwiched(alpha))
        assert res.converged and res.method == FIXED_POINT
        assert res.iterations <= damped // 4

    def test_petz_below_one_tenth_converges(self):
        # needs the over-relaxed step gamma ~ 1/alpha that takes over once
        # the mixed iteration has not converged after 40 sweeps
        w, p = parse_preset("random:4:4:7")
        res = solve_center_D(w, p, RenyiParams.petz(0.09))
        assert res.converged and res.method == FIXED_POINT

    def test_tiny_alpha_converges(self):
        rng = np.random.default_rng(7)
        w, p = random_cq_channel(2, 3, rng)
        res = solve_center_D(w, p, RenyiParams.petz(1e-3))
        assert res.converged

    def test_z_inf_rejected(self):
        w, p = noiseless_channel(2)
        with pytest.raises(ValueError):
            solve_center_D(w, p, RenyiParams(2.0, INF_Z))

    def test_stationarity_certificate(self):
        rng = np.random.default_rng(8)
        w, p = random_cq_channel(2, 3, rng)
        for params in (SANDWICHED_2, RenyiParams(0.7, 1.0)):
            res = solve_center_D(w, p, params)
            assert res.converged
            grad = stationarity_residual(w, p, params, res.center,
                                         rng=np.random.default_rng(99))
            assert grad <= 1e-4


class TestClosedFormZ1:
    def test_noiseless_uniform(self):
        w, p = noiseless_channel(2)
        res = closed_form_center_z1(w, p, 2.0)
        assert np.abs(res.center.mat - np.eye(2) / 2).max() < 1e-12
        assert res.method == CLOSED_FORM_Z1

    def test_single_symbol(self):
        rng = np.random.default_rng(9)
        w, _ = random_cq_channel(2, 2, rng)
        p = InputDistribution.point("0")
        res = closed_form_center_z1(w, p, 3.0)
        assert trace_distance(res.center, DensityOperator(w.output("0").mat)) < 1e-10

    def test_commuting_matches_scalar_formula(self):
        rng = np.random.default_rng(10)
        w, p, rows, weights = diagonal_channel(rng)
        alpha = 2.0
        inner = np.einsum("x,xj->j", weights, rows ** alpha)
        omega = inner ** (1.0 / alpha)
        res = closed_form_center_z1(w, p, alpha)
        assert np.abs(np.diag(res.center.mat).real - omega / omega.sum()).max() < 1e-12
        assert res.value == pytest.approx(float(omega.sum() ** alpha), rel=1e-12)

    def test_is_qbar_fixed_point(self):
        rng = np.random.default_rng(11)
        w, p = random_cq_channel(2, 3, rng)
        res = closed_form_center_z1(w, p, 2.0)
        assert res.residual < 1e-10

    @pytest.mark.parametrize("alpha", [600.0, 1024.0])
    def test_overflowing_value_is_inf_as_in_the_qbar_solve(self, alpha):
        # (Tr omega)^alpha = 4^(alpha - 1) lies past the largest double.
        w, p = parse_preset("noiseless:4")
        res = closed_form_center_z1(w, p, alpha)
        solved = solve_center_Qbar(w, p, RenyiParams.petz(alpha))
        assert solved.converged and solved.value == math.inf
        assert res.value == math.inf
        assert np.abs(res.center.mat - np.eye(4) / 4).max() < 1e-12


class TestSolveCenterQbar:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_matches_closed_form_at_z1(self, alpha):
        rng = np.random.default_rng(12)
        w, p = random_cq_channel(2, 3, rng)
        got = solve_center_Qbar(w, p, RenyiParams.petz(alpha))
        want = closed_form_center_z1(w, p, alpha)
        assert got.converged
        assert trace_distance(got.center, want.center) <= 1e-7
        assert abs(got.value - want.value) <= 1e-8

    def test_noiseless_uniform_info_equals_entropy(self):
        w, p = noiseless_channel(2)
        params = SANDWICHED_2
        info = mutual_information(w, p, params)
        assert info == pytest.approx(math.log(2.0), abs=1e-9)

    def test_strict_gap_for_nonuniform_input(self):
        # info-vs-radius gap is strict off the uniform point; the direction
        # flips across alpha = 1
        w, _ = noiseless_channel(2)
        p = InputDistribution({"0": 0.2, "1": 0.8})
        low = RenyiParams(0.5, 1.0)
        chi_low = solve_center_D(w, p, low).value
        assert chi_low == pytest.approx(p.entropy(), abs=1e-9)
        assert mutual_information(w, p, low) < chi_low - 1e-3
        chi_high = solve_center_D(w, p, SANDWICHED_2).value
        assert mutual_information(w, p, SANDWICHED_2) > chi_high + 1e-3

    def test_point_distribution_zero_info(self):
        rng = np.random.default_rng(13)
        w, _ = random_cq_channel(2, 2, rng)
        p = InputDistribution.point("1")
        assert mutual_information(w, p, SANDWICHED_2) == pytest.approx(0.0, abs=1e-9)

    def test_small_petz_order_converges_by_fixed_point(self):
        w, p = parse_preset("random:8:3:3")
        res = solve_center_Qbar(w, p, RenyiParams.petz(0.03))
        assert res.converged and res.method == FIXED_POINT
        assert res.iterations < 200

    def test_qbar_map_preserves_trace(self):
        rng = np.random.default_rng(14)
        w, p = random_cq_channel(2, 3, rng)
        sigma = DensityOperator(average_output(w, p).mat)
        out = fixed_point_map_Qbar(w, p, SANDWICHED_2, sigma)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)


class TestSolveCenterTsallis:
    def test_z1_closed_form(self):
        rng = np.random.default_rng(15)
        w, p = random_cq_channel(2, 3, rng)
        alpha = 2.0
        res = solve_center_tsallis(w, p, RenyiParams.petz(alpha))
        acc = sum(prob * support_power(w.output(s), alpha).mat
                  for s, prob in p.items())
        want = support_power(HermitianOperator(acc), 1.0 / alpha).mat
        assert res.converged
        assert np.abs(res.center.mat - want).max() < 1e-8

    def test_identical_outputs_zero_radius(self):
        rng = np.random.default_rng(16)
        rho = random_state_mat(rng, 2)
        w = GcqChannel({"a": rho, "b": rho})
        p = InputDistribution.uniform(["a", "b"])
        res = solve_center_tsallis(w, p, SANDWICHED_2)
        assert np.abs(res.center.mat - rho).max() < 1e-8
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_rescaling_relation(self):
        rng = np.random.default_rng(17)
        w, p = random_cq_channel(2, 3, rng)
        params = SANDWICHED_2
        ts = solve_center_tsallis(w, p, params)
        qb = solve_center_Qbar(w, p, params)
        normalized = ts.center.mat / ts.center.trace()
        assert np.abs(normalized - qb.center.mat).max() < 1e-8

    def test_trace_identity_at_fixed_point(self):
        rng = np.random.default_rng(18)
        w, p = random_cq_channel(2, 2, rng)
        params = RenyiParams(2.0, 1.0)
        res = solve_center_tsallis(w, p, params)
        from renyicq.divergences import q_alpha_z
        total = sum(prob * q_alpha_z(w.output(s), res.center, params)
                    for s, prob in p.items())
        assert res.center.trace() == pytest.approx(total, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.3, 1.0 / 3.0, 0.7, 2.0])
    def test_value_is_weighted_tsallis_divergence(self, alpha):
        w, p = parse_preset("random:2:3:7")
        params = RenyiParams.petz(alpha)
        res = solve_center_tsallis(w, p, params)
        assert isinstance(res.value, float)
        want = sum(prob * tsallis(w.output(s), res.center, params) for s, prob in p.items())
        assert res.value == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("preset", ["random:2:3:1", "random:4:3:4", "random:8:3:2"])
    def test_large_order_matches_qbar_center(self, preset):
        # the unnormalized map is homogeneous of degree 1 - alpha = -63: the
        # solve must neither raise from a mixed step off the fixed scale nor
        # settle on a rank-deficient fixed point
        w, p = parse_preset(preset)
        params = RenyiParams.sandwiched(64.0)
        res = solve_center_tsallis(w, p, params)
        qb = solve_center_Qbar(w, p, params)
        assert res.converged and math.isfinite(res.value)
        assert np.abs(res.center.mat / res.center.trace() - qb.center.mat).max() < 1e-8

    @pytest.mark.parametrize("preset, params", [
        ("random:2:3:4", RenyiParams.sandwiched(64.0)),
        ("random:4:3:1", RenyiParams.petz(0.1)),
    ])
    def test_is_rescaled_qbar_solve(self, preset, params):
        # Both maps are homogeneous of degree 1 - alpha, so the Tsallis
        # center is the Q-bar center times c, c^alpha = s(alpha) chi_Qbar,
        # and its defect is c times the Q-bar defect.  An iteration of the
        # Tsallis map itself stopped after 65 and 17 sweeps here, against the
        # Q-bar solve's 130 and 40.
        w, p = parse_preset(preset)
        ts = solve_center_tsallis(w, p, params)
        qb = solve_center_Qbar(w, p, params)
        c = (params.s * qb.value) ** (1.0 / params.alpha)
        assert (ts.iterations, ts.method) == (qb.iterations, qb.method)
        assert np.abs(ts.center.mat - c * qb.center.mat).max() <= 1e-13 * c
        assert ts.residual == pytest.approx(c * qb.residual, rel=1e-14, abs=0.0)
        # ... and it is the defect of the returned center under the public
        # map, up to that map's roundoff (about 1e-14 at alpha = 64).
        defect = trace_norm(fixed_point_map_tsallis(w, p, params, ts.center).mat
                            - ts.center.mat)
        assert ts.residual == pytest.approx(defect, abs=1e-13)

    def test_map_refuses_an_overflowing_order(self):
        # At W(P) = I/4, sum_x P(x) Q_x = 4^(alpha - 1): finite at alpha = 64,
        # past the largest double at 1024.
        w, p = parse_preset("noiseless:4")
        sigma = DensityOperator(average_output(w, p).mat)
        out = fixed_point_map_tsallis(w, p, RenyiParams.sandwiched(64.0), sigma)
        assert np.isfinite(out.mat).all()
        with pytest.raises(ValueError, match="alpha=1024"):
            fixed_point_map_tsallis(w, p, RenyiParams.sandwiched(1024.0), sigma)

    def test_map_is_unnormalized(self):
        w, p = noiseless_channel(2)
        sigma = HermitianOperator(np.eye(2))
        out = fixed_point_map_tsallis(w, p, RenyiParams(2.0, 1.0), sigma)
        assert out.dim == 2

    @pytest.mark.parametrize("alpha", [600.0, 1024.0])
    def test_large_order_noiseless_converges(self, alpha):
        # The Q-bar solve converges; c is formed from log sum_x P(x) Q_x.
        w, p = parse_preset("noiseless:4")
        res = solve_center_tsallis(w, p, RenyiParams.sandwiched(alpha))
        assert res.converged
        assert np.isfinite(res.center.mat).all()
        assert math.isfinite(res.value)

    def test_noiseless_value_positive(self):
        w, p = noiseless_channel(2)
        res = solve_center_tsallis(w, p, RenyiParams(2.0, 1.0))
        assert res.value == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-8)


class TestOracle:
    def test_noiseless_value(self):
        w, p = noiseless_channel(2)
        res = oracle_grid_center(w, p, SANDWICHED_2)
        assert res.method == ORACLE_GRID
        assert abs(res.value - math.log(2.0)) < (2e-3) ** 2 * 10

    def test_point_distribution(self):
        rng = np.random.default_rng(19)
        w, _ = random_cq_channel(2, 2, rng)
        p = InputDistribution.point("0")
        res = oracle_grid_center(w, p, SANDWICHED_2)
        assert res.value == pytest.approx(0.0, abs=1e-5)

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_solver(self, seed):
        rng = np.random.default_rng(100 + seed)
        w, p = random_cq_channel(2, 3, rng)
        for params in (SANDWICHED_2, RenyiParams(3.0, 1.5)):
            solved = solve_center_D(w, p, params).value
            grid = oracle_grid_center(w, p, params).value
            assert abs(solved - grid) <= 1e-3

    def test_pure_state_pair_channel(self):
        # two non-orthogonal pure outputs: |0><0| and |+><+|
        plus = np.full((2, 2), 0.5, dtype=complex)
        w = GcqChannel({"0": np.diag([1.0, 0.0]), "1": plus})
        p = InputDistribution.uniform(["0", "1"])
        solved = solve_center_D(w, p, SANDWICHED_2)
        grid = oracle_grid_center(w, p, SANDWICHED_2)
        assert solved.converged
        assert abs(solved.value - grid.value) <= 1e-3

    def test_dim3_compass_path(self):
        rng = np.random.default_rng(20)
        w, p = random_cq_channel(3, 3, rng)
        solved = solve_center_D(w, p, SANDWICHED_2).value
        grid = oracle_grid_center(w, p, SANDWICHED_2).value
        assert abs(solved - grid) <= 2e-3


class TestSolveCenterDirect:
    def test_matches_fixed_point(self):
        rng = np.random.default_rng(21)
        w, p = random_cq_channel(2, 3, rng)
        direct = solve_center_direct(w, p, SANDWICHED_2)
        solved = solve_center_D(w, p, SANDWICHED_2)
        assert abs(direct.value - solved.value) < 1e-6

    def test_log_euclidean_diagnostic(self):
        rng = np.random.default_rng(22)
        w, p, rows, weights = diagonal_channel(rng, dim=2, symbols=2)
        params = RenyiParams(2.0, INF_Z)
        direct = solve_center_direct(w, p, params)
        # commuting channel: same as the z = 1 weighted center problem
        reference = solve_center_D(w, p, RenyiParams(2.0, 1.0)).value
        assert abs(direct.value - reference) < 1e-5


class TestLogQ:
    @pytest.mark.parametrize("kind", ["D", "Qbar"])
    @pytest.mark.parametrize("params", [SANDWICHED_2, RenyiParams.petz(0.7)],
                             ids=["sandwiched-2", "petz-0.7"])
    def test_is_the_sweep_at_the_returned_center(self, kind, params):
        # A fixed-point result keeps log Q_x at its own unit-trace center, one
        # entry per supported symbol; no other method has such a sweep.
        w, p = parse_preset("random:2:3:7")
        res = centers.CenterProblem(w, p).solve(params, kind)
        want = np.log([q_alpha_z(w.output(s), res.center, params) for s in p.support])
        np.testing.assert_allclose(res.log_q, want, rtol=1e-12, atol=0.0)
        if kind == "D":
            others = [solve_center_direct(w, p, params), oracle_grid_center(w, p, params)]
        else:
            others = [solve_center_tsallis(w, p, params)]
            if params.z == 1.0:
                others.append(closed_form_center_z1(w, p, params.alpha))
        assert [o.log_q for o in others] == [None] * len(others)


class TestUnconvergedSolve:
    """One fixed-point sweep leaves a solve unconverged: it returns its last
    iterate, flagged, without a search over states."""

    @pytest.mark.parametrize("alpha", [0.7, 2.0])
    @pytest.mark.parametrize("solver, phi", [
        (solve_center_D, fixed_point_map_D),
        (solve_center_Qbar, fixed_point_map_Qbar),
        (solve_center_tsallis, fixed_point_map_tsallis),
    ])
    def test_returns_last_iterate(self, solver, phi, alpha, monkeypatch):
        w, p = parse_preset("random:2:3:7")
        params = RenyiParams.sandwiched(alpha)
        solved = solver(w, p, params)

        def no_search(*args, **kwargs):
            raise AssertionError("minimize_states called")

        monkeypatch.setattr("renyicq.centers.minimize_states", no_search)
        monkeypatch.setattr("renyicq.centers.DEFAULT_MAX_ITER", 1)
        forced = solver(w, p, params)
        assert solved.converged and solved.method == FIXED_POINT
        assert forced.method == FIXED_POINT
        assert forced.iterations == 1
        assert forced.value >= solved.value - 1e-12
        defect = trace_norm(phi(w, p, params, forced.center).mat - forced.center.mat)
        assert forced.residual == pytest.approx(defect, rel=1e-6, abs=1e-15)
        assert forced.converged == (forced.residual <= DEFAULT_TOL)


class TestRankDeficientStart:
    """The center map keeps supp sigma, so a state with a null space on the
    support of W(P) can be its fixed point and read a wrong value off its
    sweep: from |0><0|, -1.217 on random:2:3:7 at sandwiched alpha = 2,
    where the radius is 0.617 and the weighted divergence there is inf."""

    @staticmethod
    def _pure(k):
        pure = np.zeros((k, k), dtype=complex)
        pure[0, 0] = 1.0
        return pure

    @pytest.mark.parametrize("preset, params", [
        ("random:2:3:7", SANDWICHED_2),
        ("random:4:3:1", SANDWICHED_2),
        ("random:2:3:7", RenyiParams.petz(0.5)),
    ])
    def test_solve_refuses_the_start(self, preset, params):
        w, p = parse_preset(preset)
        pure = self._pure(average_output(w, p).mat.shape[0])
        with pytest.raises(ValueError, match="positive definite"):
            centers.CenterProblem(w, p).solve(params, "D", sigma0=pure)

    def test_loop_never_reports_it_converged(self, monkeypatch):
        monkeypatch.setattr(centers, "DEFAULT_MAX_ITER", 5)
        w, p = parse_preset("random:2:3:7")
        problem = centers.CenterProblem(w, p)
        start = problem.compress(self._pure(average_output(w, p).mat.shape[0]))
        assert np.linalg.matrix_rank(start) == 1
        # sandwiched alpha = z = 2: powers W_x^(alpha/z), sigma exponent (1 - alpha)/2z
        _, _, iterations, _, converged = centers._run_fixed_point(
            problem.powers(1.0), problem.probs, start, 2.0, -0.25, 2.0, "D")
        assert not converged and iterations == 5


class TestPowerUnderflow:
    """W_1^1024 of random:4:3:1 underflows (lambda_max 0.457): a refusal
    naming the symbol and the power, not a vanishing overlap."""

    @pytest.mark.parametrize("solver", [solve_center_D, solve_center_Qbar])
    def test_refused_as_underflow(self, solver):
        w, p = parse_preset("random:4:3:1")
        with pytest.raises(ValueError, match=r"W\('1'\)\^1024 underflows") as info:
            solver(w, p, RenyiParams.petz(1024.0))
        assert not isinstance(info.value, SingularInputError)

    @pytest.mark.parametrize("solver, want", [(solve_center_D, 1.2660644909777818),
                                              (solve_center_Qbar, 6.095318708109799e293)])
    def test_order_512_unchanged(self, solver, want, monkeypatch):
        monkeypatch.setattr(centers, "DEFAULT_MAX_ITER", 3)
        w, p = parse_preset("random:4:3:1")
        res = solver(w, p, RenyiParams.petz(512.0))
        assert res.iterations == 3
        assert res.value == pytest.approx(want, rel=1e-12)


def _real(mat):
    """A k x k complex matrix as the real vector the mixing works on."""
    return mat.ravel().view(float)


def _near_states(rng, k, count, scale):
    """``count`` unit-trace Hermitian matrices within ``scale`` of I/k."""
    out = []
    for _ in range(count):
        h = random_state_mat(rng, k) - np.eye(k) / k
        out.append(np.eye(k) / k + scale * h)
    return out


class TestAnderson:
    """The history and Gram-Cholesky fit of the center loop's mixing."""

    def test_fit_matches_lstsq(self):
        rng = np.random.default_rng(3)
        k = 3
        xs = _near_states(rng, k, 9, 0.05)
        gs = [x + 0.01 * (s - x) for x, s in zip(xs, _near_states(rng, k, 9, 0.5))]
        hist = centers._Anderson(k)
        assert hist.width == 6
        for i, (x, g) in enumerate(zip(xs, gs)):
            cand = hist.step(x, g)
            if i == 0:
                assert cand is None
                continue
            lo = max(0, i - hist.width)
            fs = np.array([_real(gs[j] - xs[j]) for j in range(lo, i + 1)]).T
            gv = np.array([_real(gs[j]) for j in range(lo, i + 1)]).T
            theta = np.linalg.lstsq(np.diff(fs, axis=1), fs[:, -1], rcond=None)[0]
            if i == hist.width:
                # Before the ring wraps, the columns are in history order.
                fitted = hist.fit(fs[:, -1])
                assert np.abs(fitted - theta).max() <= 1e-10 * np.abs(theta).max()
            want = (gv[:, -1] - np.diff(gv, axis=1) @ theta).view(complex).reshape(k, k)
            assert cand is not None
            assert np.abs(cand - want).max() <= 1e-10 * np.abs(want).max()

    def test_dependent_columns_reset_to_newest_pair(self):
        # Dyadic entries: the two residual differences are exactly equal, and
        # so is the Gram factorization's second pivot, 1/16 - (1/4)^2 = 0.
        x0 = np.eye(2, dtype=complex) / 2
        d = np.diag([1.0, -1.0]).astype(complex) / 16
        e = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / 8
        xs = [x0, x0 + d, x0 + 2 * d, x0 + 3 * d]
        fs = [-e / 2, e / 2, 3 * e / 2, e]
        hist = centers._Anderson(2)
        assert hist.step(xs[0], xs[0] + fs[0]) is None
        mixed = hist.step(xs[1], xs[1] + fs[1])
        assert mixed is not None and hist.cols == 1
        assert hist.step(xs[2], xs[2] + fs[2]) is None
        assert hist.cols == 0
        assert np.array_equal(hist.f, _real(fs[2]))
        assert hist.step(xs[3], xs[3] + fs[3]) is not None
        assert hist.cols == 1
        assert np.array_equal(hist.df[:, 0], _real(fs[3] - fs[2]))

    def test_qubit_history_holds_at_most_three_columns(self):
        rng = np.random.default_rng(4)
        xs = _near_states(rng, 2, 12, 0.05)
        gs = [x + 0.01 * (s - x) for x, s in zip(xs, _near_states(rng, 2, 12, 0.5))]
        hist = centers._Anderson(2)
        assert hist.df.shape == hist.dg.shape == (8, 3)
        held = []
        for x, g in zip(xs, gs):
            hist.step(x, g)
            held.append(hist.cols)
        assert max(held) == 3

    @pytest.mark.parametrize("k, width", [(1, 0), (2, 3), (3, 6), (16, 6)])
    def test_width_is_capped_by_dimension(self, k, width):
        assert centers._Anderson(k).width == width

    def test_step_after_undo_is_plain(self, monkeypatch):
        events = []

        class Recorded(centers._Anderson):
            def clear(self):
                if hasattr(self, "cols"):  # not the clear of __init__
                    events.append("undo")
                super().clear()

            def step(self, sigma, step):
                cand = super().step(sigma, step)
                events.append("plain" if cand is None else "mixed")
                return cand

        monkeypatch.setattr(centers, "_Anderson", Recorded)
        w, p = parse_preset("random:2:3:1")
        res = solve_center_Qbar(w, p, RenyiParams.sandwiched(64.0))
        assert res.converged
        undos = [i for i, e in enumerate(events) if e == "undo"]
        assert undos
        assert all(events[i + 1] == "plain" for i in undos)

    @pytest.mark.parametrize("ratio, accepted", [(1e-13, False), (1e-11, True)])
    def test_positive_definiteness_rule(self, ratio, accepted):
        # _PD_RTOL = 1e-12 bounds lambda_min / lambda_max from below.
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        cand = (q * np.array([1.0, ratio])) @ q.conj().T
        cand = 0.5 * (cand + cand.conj().T)
        assert centers._safely_definite(cand) is accepted
        assert centers._safely_definite(-cand) is False

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_rank_one_average_needs_one_sweep(self, alpha):
        # W(P) has rank 1, so the compressed space is k = 1: width 0.
        psi = np.array([0.6, 0.8j])
        pure = HermitianOperator(np.outer(psi, psi.conj()))
        w = GcqChannel({"0": pure, "1": pure})
        p = InputDistribution({"0": 0.3, "1": 0.7})
        params = RenyiParams.sandwiched(alpha)
        d = solve_center_D(w, p, params)
        assert d.converged and d.iterations == 1
        assert d.value == pytest.approx(0.0, abs=1e-14)
        qb = solve_center_Qbar(w, p, params)
        assert qb.converged and qb.iterations == 1
        assert math.log(params.s * qb.value) == pytest.approx(0.0, abs=1e-14)


class TestAssemble:
    @pytest.mark.parametrize("kind", ["D", "Qbar", "T"])
    @pytest.mark.parametrize("symbols", [1, 3])
    def test_is_the_weighted_sum(self, kind, symbols):
        rng = np.random.default_rng(6)
        ghat = np.stack([random_state_mat(rng, 3) for _ in range(symbols)])
        assert np.abs(ghat[:, 0, 1].imag).min() > 0.0
        logq = rng.normal(size=symbols)
        probs = rng.dirichlet(np.ones(symbols))
        if kind == "D":
            weights = probs
        elif kind == "Qbar":
            weights = probs * np.exp(logq) / (probs @ np.exp(logq))
        else:
            weights = probs * np.exp(logq)
        want = sum(wx * gx for wx, gx in zip(weights, ghat))
        got = centers._assemble(kind, ghat, logq, probs)
        assert got.shape == (3, 3)
        assert np.abs(got - want).max() <= 1e-15


class TestDivergenceRadius:
    def test_noiseless_binary(self):
        w, _ = noiseless_channel(2)
        radius, center, worst = divergence_radius(w, SANDWICHED_2)
        assert radius == pytest.approx(math.log(2.0), abs=1e-6)
        assert worst.probability("0") == pytest.approx(0.5, abs=1e-4)
        assert np.abs(center.mat - np.eye(2) / 2).max() < 1e-4

    def test_single_output(self):
        rng = np.random.default_rng(23)
        rho = random_state_mat(rng, 2)
        w = GcqChannel({"a": rho})
        radius, _, _ = divergence_radius(w, SANDWICHED_2)
        assert radius == pytest.approx(0.0, abs=1e-9)

    def test_dominates_weighted_radius(self):
        rng = np.random.default_rng(24)
        w, _ = random_cq_channel(2, 3, rng)
        radius, _, _ = divergence_radius(w, SANDWICHED_2)
        for seed in range(4):
            p = InputDistribution(dict(zip(
                w.alphabet, np.random.default_rng(seed).dirichlet(np.ones(3)))))
            chi = solve_center_D(w, p, SANDWICHED_2).value
            assert chi <= radius + 1e-6

    def test_non_monotone_gap_converges(self):
        # The duality gap of this channel rises on some rounds; the constant
        # step still closes it well inside the round cap.
        w, _ = random_cq_channel(3, 3, np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radius, _, _ = divergence_radius(w, SANDWICHED_2)
        assert radius <= 0.2937

    def test_reads_the_divergences_off_its_own_sweeps(self, monkeypatch):
        def no_evaluator(*args, **kwargs):
            raise AssertionError("the ascent recomputed a divergence")

        monkeypatch.setattr(centers, "d_alpha_z", no_evaluator)
        w, _ = random_cq_channel(2, 3, np.random.default_rng(1))
        radius, _, _ = divergence_radius(w, SANDWICHED_2)
        assert radius <= 0.34431

    @pytest.mark.parametrize("params", [SANDWICHED_2, RenyiParams.petz(0.7),
                                        RenyiParams.sandwiched(16.0)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_radius_is_the_largest_symbol_divergence(self, params, d):
        w, _ = random_cq_channel(d, 3, np.random.default_rng(1))
        radius, center, _ = divergence_radius(w, params)
        want = max(d_alpha_z(w.output(s), center, params) for s in w.alphabet)
        assert radius == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_unconverged_rounds_certify_nothing(self, monkeypatch, seed):
        # With one sweep per solve most rounds end unconverged; the ascent
        # may certify only a round whose center is a fixed point, or warn.
        monkeypatch.setattr(centers, "DEFAULT_MAX_ITER", 1)
        w, _ = random_cq_channel(2, 3, np.random.default_rng(seed))
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            _, center, worst = divergence_radius(w, SANDWICHED_2)
        if not any("after 500 rounds" in str(e.message) for e in log):
            phi = fixed_point_map_D(w, worst, SANDWICHED_2, center)
            assert trace_norm(phi.mat - center.mat) <= 1e-9


class TestWeightedRadiusBeta:
    def test_beta_one_matches_center_value(self):
        rng = np.random.default_rng(25)
        w, p = random_cq_channel(2, 3, rng)
        chi = solve_center_D(w, p, SANDWICHED_2).value
        got = weighted_radius_beta(w, p, SANDWICHED_2, 1.0)
        assert abs(got - chi) <= 1e-6

    def test_beta_one_is_the_center_value_without_a_search(self, monkeypatch):
        rng = np.random.default_rng(25)
        w, p = random_cq_channel(2, 3, rng)
        chi = solve_center_D(w, p, SANDWICHED_2).value

        def no_search(*args, **kwargs):
            raise AssertionError("beta = 1 needs no search over states")

        monkeypatch.setattr("renyicq.centers.minimize_states", no_search)
        assert weighted_radius_beta(w, p, SANDWICHED_2, 1.0) == chi

    def test_beta_inf_is_the_divergence_radius(self):
        w, p = random_cq_channel(2, 3, np.random.default_rng(1))
        got = weighted_radius_beta(w, p, SANDWICHED_2, math.inf)
        assert got == divergence_radius(w, SANDWICHED_2)[0]
        assert got <= 0.34431

    def test_noiseless_all_betas_equal(self):
        w, p = noiseless_channel(2)
        for beta in (1.0, 2.0, math.inf):
            got = weighted_radius_beta(w, p, SANDWICHED_2, beta)
            assert got == pytest.approx(math.log(2.0), abs=1e-5)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(26)
        w, p = random_cq_channel(2, 3, rng)
        vals = [weighted_radius_beta(w, p, SANDWICHED_2, b) for b in (1.0, 2.0, 4.0)]
        assert vals[0] <= vals[1] + 1e-7 <= vals[2] + 2e-7

    def test_beta_below_one_rejected(self):
        w, p = noiseless_channel(2)
        with pytest.raises(ValueError):
            weighted_radius_beta(w, p, SANDWICHED_2, 0.5)


class TestHolevo:
    def test_noiseless_uniform(self):
        w, p = noiseless_channel(2)
        value, center = holevo_quantity(w, p)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)
        assert np.abs(center.mat - np.eye(2) / 2).max() < 1e-12

    def test_point_distribution(self):
        rng = np.random.default_rng(27)
        w, _ = random_cq_channel(2, 3, rng)
        value, _ = holevo_quantity(w, InputDistribution.point("2"))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(28)
        w, p = random_cq_channel(2, 3, rng)
        value, center = holevo_quantity(w, p)
        for _ in range(10):
            sigma = DensityOperator(random_state_mat(rng, 2))
            lhs = sum(prob * umegaki(w.output(s), sigma) for s, prob in p.items())
            rhs = umegaki(center, sigma) + value
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestMutualInformation:
    def test_ordering_vs_radius(self):
        rng = np.random.default_rng(29)
        for _ in range(3):
            w, p = random_cq_channel(2, 3, rng)
            for params in (RenyiParams(0.6, 1.0), SANDWICHED_2):
                chi = solve_center_D(w, p, params).value
                info = mutual_information(w, p, params)
                if params.alpha < 1.0:
                    assert info <= chi + 1e-9
                else:
                    assert info >= chi - 1e-9

    def test_direct_crosscheck(self):
        rng = np.random.default_rng(30)
        w, p = random_cq_channel(2, 3, rng)
        params = SANDWICHED_2
        via_radius = mutual_information(w, p, params)
        direct = mutual_information_direct(w, p, params)
        assert abs(via_radius - direct) <= 1e-5

    def test_alpha_one_is_holevo(self):
        rng = np.random.default_rng(31)
        w, p = random_cq_channel(2, 3, rng)
        assert mutual_information(w, p, RenyiParams(1.0, 1.0)) == pytest.approx(
            holevo_quantity(w, p)[0], abs=1e-12)

    @pytest.mark.parametrize("alpha", [600.0, 1024.0])
    def test_large_order_noiseless_is_log_d(self, alpha):
        # sum_x P(x) Q_x is about e^1418 at alpha = 1024; I comes from its log.
        w, p = parse_preset("noiseless:4")
        info = mutual_information(w, p, RenyiParams.sandwiched(alpha))
        assert info == pytest.approx(math.log(4.0), abs=1e-12)

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(centers, "DEFAULT_MAX_ITER", 1)
        w, p = parse_preset("random:2:3:7")
        with pytest.raises(NonConvergenceError, match="alpha=2.0"):
            mutual_information(w, p, SANDWICHED_2)

    @pytest.mark.parametrize("solve", [mutual_information, solve_center_tsallis])
    def test_large_order_overflow_of_the_qbar_value_is_silent(self, solve):
        # s(alpha) chi_Qbar overflows to inf here; neither function reads it.
        w, p = parse_preset("noiseless:4")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve(w, p, RenyiParams.sandwiched(1024.0))

    def test_large_order_stays_finite_above_holevo(self):
        w, p = parse_preset("random:4:3:1")
        info = mutual_information(w, p, RenyiParams.sandwiched(1024.0))
        assert math.isfinite(info)
        assert info >= holevo_quantity(w, p)[0] - 1e-9


class TestProductStructure:
    def test_additivity_sandwiched(self):
        rng = np.random.default_rng(32)
        w, p = random_cq_channel(2, 3, rng)
        ww = product_channel(w, w)
        pp = product_distribution(p, p)
        for alpha in (1.5, 2.0):
            one = solve_center_D(w, p, RenyiParams.sandwiched(alpha)).value
            two = solve_center_D(ww, pp, RenyiParams.sandwiched(alpha)).value
            assert two == pytest.approx(2.0 * one, abs=1e-6)

    def test_weak_subadditivity(self):
        rng = np.random.default_rng(33)
        w, p = random_cq_channel(2, 3, rng)
        ww = product_channel(w, w)
        pp = product_distribution(p, p)
        params = RenyiParams(2.0, 1.0)
        one = solve_center_D(w, p, params).value
        two = solve_center_D(ww, pp, params).value
        assert two <= 2.0 * one + 1e-8

    def test_entropy_bound(self):
        rng = np.random.default_rng(34)
        for _ in range(3):
            w, p = random_cq_channel(2, 3, rng)
            for params in (SANDWICHED_2, RenyiParams(0.7, 1.0)):
                res = solve_center_D(w, p, params)
                assert res.value <= p.entropy() + 1e-8

    def test_support_law(self):
        rng = np.random.default_rng(35)
        iso = np.zeros((3, 2), dtype=complex)
        iso[0, 0] = iso[1, 1] = 1.0
        outs = {str(i): iso @ random_state_mat(rng, 2) @ iso.conj().T for i in range(3)}
        w = GcqChannel(outs)
        p = InputDistribution.uniform(w.alphabet)
        res = solve_center_D(w, p, SANDWICHED_2)
        assert res.converged
        gap = support_projection(res.center).mat - support_projection(
            average_output(w, p)).mat
        assert np.abs(gap).max() < 1e-6
