import math
import warnings

import numpy as np
import pytest

from _helpers import diagonal_channel, random_state_mat
from renyicq.centers import (
    FIXED_POINT,
    CenterProblem,
    CenterResult,
    holevo_quantity,
    weighted_divergence,
)
from renyicq.channels import (
    GcqChannel,
    InputDistribution,
    TypeClass,
    average_output,
    noiseless_channel,
    parse_preset,
    random_cq_channel,
)
from renyicq.classical import ClassicalChannel, classical_divergence
from renyicq.divergences import RenyiParams, d_max, umegaki
from renyicq.exponents import (
    DEFAULT_ALPHA_MAX,
    SP_ALPHA_MIN,
    RadiusCache,
    bracket,
    clipped_trace,
    convexity_probe,
    cutoff_rate,
    finite_n_converse_bound,
    finite_n_random_coding_bound,
    psi_curve,
    radius_samples,
    random_coding_exponent,
    sc_curve,
    sc_exponent,
    sphere_packing_bound,
)
from renyicq.operators import DensityOperator, HermitianOperator, support_projection

LN2 = math.log(2.0)
# The order grids of the strong converse exponent, the sphere-packing bound
# and the random-coding exponent.
GRID = (1.0 + np.geomspace(1e-3, 63.0, 40)).tolist()
SP_GRID = np.geomspace(SP_ALPHA_MIN, 1.0 - 1e-6, 40).tolist()
RC_GRID = np.linspace(0.0, 1.0, 41).tolist()


def _grid_value(cache, rate, alpha):
    """(1 - 1/alpha)(R - chi_alpha), 0 at alpha = 1."""
    return 0.0 if alpha == 1.0 else (1.0 - 1.0 / alpha) * (rate - cache.chi(alpha))


def _grid_argmax(cache, rate, alphas):
    """First order of (1, *alphas) with the largest `_grid_value`."""
    orders = (1.0, *alphas)
    return orders[int(np.argmax([_grid_value(cache, rate, a) for a in orders]))]


@pytest.fixture(scope="module")
def noiseless2():
    w, p = noiseless_channel(2)
    return w, p, RadiusCache(w, p)


@pytest.fixture(scope="module")
def random_channel():
    rng = np.random.default_rng(42)
    w, p = random_cq_channel(2, 3, rng)
    return w, p, RadiusCache(w, p)


class TestScExponent:
    def test_noiseless_above_capacity(self, noiseless2):
        w, p, cache = noiseless2
        value, argmax = sc_exponent(w, p, 2.0 * LN2, cache=cache)
        assert value == pytest.approx(LN2, abs=1e-6)
        assert math.isinf(argmax)

    def test_noiseless_below_capacity(self, noiseless2):
        w, p, cache = noiseless2
        value, argmax = sc_exponent(w, p, 0.5 * LN2, cache=cache)
        assert value == 0.0 and argmax == 1.0

    def test_zero_at_and_below_holevo(self, random_channel):
        # chi*_alpha >= chi_1 for alpha > 1, so no order is solved there.
        w, p, _ = random_channel
        hol, _ = holevo_quantity(w, p)
        cache = RadiusCache(w, p)
        for rate in (0.9 * hol, hol):
            assert sc_exponent(w, p, rate, cache=cache) == (0.0, 1.0)
        assert not cache._results

    def test_supremum_above_the_last_grid_order(self):
        # On the first diagonal channel of seed 1 the supremum at this rate
        # lies between alpha = 64, the 40-point grid's last order, and 128.
        w, p, rows, weights = diagonal_channel(np.random.default_rng(1))
        value, argmax = sc_exponent(w, p, 0.3757)
        assert 64.0 < argmax < 128.0
        ref = ClassicalChannel(rows, weights).sc_exponent(0.3757)
        assert value == pytest.approx(ref, abs=1e-9)

    def test_interior_argmax_leaves_the_endpoint_unsolved(self, random_channel):
        # g is concave in u, so an interior grid argmax rules out alpha = inf.
        w, p, _ = random_channel
        cache = RadiusCache(w, p)
        _, argmax = sc_exponent(w, p, 1.5 * holevo_quantity(w, p)[0], cache=cache)
        assert 1.0 < argmax < 64.0
        assert cache.chi_inf_center is None

    def test_endpoint_argmax_solves_no_order_inside_the_last_tail_step(self):
        # Once R - chi_inf beats the last tail order, no point between the
        # last two orders can beat it, so nothing is refined there.
        w, p = parse_preset("random:2:3:7")
        cache = RadiusCache(w, p)
        _, argmax = sc_exponent(w, p, LN2 + 0.05, cache=cache)
        assert math.isinf(argmax)
        assert 1024.0 in cache._results
        assert not [a for a in cache._results if 512.0 < a < 1024.0]

    def test_positive_above_probed_radius(self, random_channel):
        w, p, cache = random_channel
        chi2 = cache.chi(2.0)
        rate = chi2 + 0.4
        value, _ = sc_exponent(w, p, rate, cache=cache)
        assert value >= 0.5 * (rate - chi2) - 1e-9
        assert value > 0.0

    def test_rejects_nonpositive_rate(self, noiseless2):
        w, p, cache = noiseless2
        with pytest.raises(ValueError):
            sc_exponent(w, p, 0.0, cache=cache)

    def test_all_orders_dropped_raises(self, noiseless2):
        from renyicq.exceptions import NonConvergenceError

        w, p, real = noiseless2

        class Dead:
            w, p = real.w, real.p
            slopes = {}

            def __init__(self):
                self.read, self.chi_inf_calls = [], 0

            def chi(self, alpha):
                self.read.append(alpha)
                raise NonConvergenceError("stub")

            def chi_inf(self):
                self.chi_inf_calls += 1
                return 0.0

            def holevo(self):
                return real.holevo()

        # With no grid order left, the search raises before the tail: no
        # chi_inf solve and no order above the grid's last.
        dead = Dead()
        with pytest.raises(NonConvergenceError, match="no sandwiched radius evaluation converged"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sc_exponent(w, p, 1.0, cache=dead)
        assert dead.chi_inf_calls == 0
        assert dead.read and max(dead.read) <= DEFAULT_ALPHA_MAX

    def test_partial_drop_warns_and_succeeds(self, noiseless2):
        from renyicq.exceptions import NonConvergenceError

        # f' = log 2 < R at every order, so the search probes the top order
        # DEFAULT_ALPHA_MAX; dropping it, the search probes below it and still
        # reaches the alpha -> inf endpoint, where the supremum is.
        w, p, _ = noiseless2
        real, read = RadiusCache(w, p), []

        class Flaky:
            w, p = real.w, real.p
            slopes = real.slopes

            def chi(self, alpha):
                read.append(alpha)
                if alpha == DEFAULT_ALPHA_MAX:
                    raise NonConvergenceError("stub")
                return real.chi(alpha)

            def chi_inf(self):
                return real.chi_inf()

            def holevo(self):
                return real.holevo()

        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            value, _ = sc_exponent(w, p, 2.0 * LN2, cache=Flaky())
        assert DEFAULT_ALPHA_MAX in read
        assert any("dropping alpha" in str(entry.message) for entry in log)
        assert value == pytest.approx(LN2, abs=1e-6)

    def test_drop_on_the_search_path_matches_the_exhaustive_argmax(self, random_channel):
        # Dropping the order a first search returns leaves the search to
        # find the supremum from the other orders: it still beats every grid
        # order.
        from renyicq.exceptions import NonConvergenceError

        w, p, _ = random_channel
        rate = 1.5 * holevo_quantity(w, p)[0]
        _, dropped = sc_exponent(w, p, rate, cache=RadiusCache(w, p))
        assert 1.0 < dropped < DEFAULT_ALPHA_MAX

        real, read = RadiusCache(w, p), set()

        class Flaky:
            w, p = real.w, real.p
            slopes = real.slopes

            def chi(self, alpha):
                read.add(alpha)
                if alpha == dropped:
                    raise NonConvergenceError("stub")
                return real.chi(alpha)

            def chi_inf(self):
                return real.chi_inf()

            def holevo(self):
                return real.holevo()

        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            value, argmax = sc_exponent(w, p, rate, cache=Flaky())
        assert dropped in read and argmax != dropped
        assert any("dropping alpha" in str(entry.message) for entry in log)
        full = RadiusCache(w, p)
        exhaustive = _grid_argmax(full, rate, GRID)
        assert value >= _grid_value(full, rate, exhaustive) - 1e-12

    @pytest.mark.parametrize("d,k,seed", [(2, 2, 3), (2, 3, 11), (3, 2, 5),
                                          (3, 3, 1), (4, 3, 2), (4, 4, 7)])
    def test_lazy_search_matches_the_full_grid(self, d, k, seed):
        w, p = random_cq_channel(d, k, np.random.default_rng(seed))
        full = RadiusCache(w, p)
        hol = full.holevo()
        for rate in np.linspace(hol, math.log(d) + 0.1, 5)[1:]:
            rate = float(rate)
            best = _grid_argmax(full, rate, GRID)
            value, _ = sc_exponent(w, p, rate, cache=RadiusCache(w, p))
            assert value >= _grid_value(full, rate, best) - 1e-12

    def test_first_rate_solves_at_most_eight_orders(self):
        w, p = parse_preset("random:4:4:7")
        cache = RadiusCache(w, p)
        sc_exponent(w, p, 1.2 * cache.holevo(), cache=cache)
        assert 0 < len(cache._results) <= 8

    def test_classical_consistency_small(self):
        rng = np.random.default_rng(7)
        w, p, rows, weights = diagonal_channel(rng)
        oracle = ClassicalChannel(rows, weights)
        cache = RadiusCache(w, p)
        hol = oracle.holevo()
        for rate in np.linspace(0.7 * hol, 1.6 * hol, 4):
            mine, _ = sc_exponent(w, p, float(rate), cache=cache)
            assert mine == pytest.approx(oracle.sc_exponent(float(rate)), abs=1e-6)


def _slope_channel(kind):
    """A random cq channel, one whose outputs are scaled by 2 (gcq), or one
    with rank-1 and rank-2 outputs on C^3."""
    if kind == "rank_deficient":
        rng = np.random.default_rng(4)
        outs = {str(r): HermitianOperator(random_state_mat(rng, 3, rank=r)) for r in (1, 2, 3)}
        return GcqChannel(outs), InputDistribution({"1": 0.3, "2": 0.3, "3": 0.4})
    w, p = random_cq_channel(3, 3, np.random.default_rng(1))
    if kind == "scaled":
        w = GcqChannel({s: 2.0 * w.output(s).mat for s in w.alphabet})
    return w, p


class TestSlope:
    @pytest.mark.parametrize("kind", ["random", "scaled", "rank_deficient"])
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 1.5, 4.0, 20.0])
    def test_matches_central_differences(self, kind, alpha):
        # f(u) = u chi_{1/(1-u)}; its slope comes off the solved center alone.
        cache = RadiusCache(*_slope_channel(kind))
        u, h = 1.0 - 1.0 / alpha, 1e-5
        cache.chi(alpha)

        def f(x):
            return x * cache.chi(1.0 / (1.0 - x))

        central = (f(u + h) - f(u - h)) / (2.0 * h)
        # Below 1, f = u chi at |u| up to 19 has slopes as small as 1e-3: the
        # difference quotient's noise, some 3e-10, is absolute there.
        tol = {"rel": 1e-8} if alpha > 1.0 else {"abs": 1e-9}
        assert cache.slopes[alpha] == pytest.approx(central, **tol)

    def test_noiseless_slope_is_log_two(self):
        # chi_alpha = log 2 at every order, so f(u) = u log 2.
        cache = RadiusCache(*noiseless_channel(2))
        for alpha in (0.05, 0.5, 1.5, 4.0, 64.0):
            cache.chi(alpha)
            assert cache.slopes[alpha] == pytest.approx(LN2, abs=1e-12)

    @pytest.mark.parametrize("kind", ["random", "scaled", "rank_deficient"])
    def test_slopes_rise_across_order_one(self, kind):
        # f is convex across u = 0, where f' = chi_1: the one tangent search
        # over both sides of 1 relies on it.
        cache = RadiusCache(*_slope_channel(kind))
        alphas = (0.05, 0.3, 0.7, 0.95, 1.05, 1.5, 4.0, 20.0)
        for alpha in alphas:
            cache.chi(alpha)
        slopes = [cache.slopes[a] for a in alphas]
        assert np.diff(slopes).min() >= 0.0
        assert slopes[3] <= cache.holevo() <= slopes[4]


class TestNoStopOnAFace:
    """Below order 1 F is finite off supp sigma, so a center solve that let an
    iterate lose rank could stop on a face of the state space, and a warm
    start from it would stay there: the kernel's eigenvalue cut keeps a null
    space null."""

    def test_cold_small_order_stops_inside(self):
        from renyicq import centers

        cache = RadiusCache(*_slope_channel("rank_deficient"))
        res = cache.result(0.05)
        # 0.0818641 on the face, 1.6e-4 above the radius.
        assert res.value <= 0.0817029
        assert centers._safely_definite(cache.compress(res.center.mat))

    def test_warm_start_below_one_matches_a_cold_solve(self):
        cache = RadiusCache(*_slope_channel("rank_deficient"))
        cache.result(0.05)
        # 0.32569 on the face, 0.30373 cold.
        assert cache.chi(0.3) == pytest.approx(
            RadiusCache(*_slope_channel("rank_deficient")).chi(0.3), abs=1e-10)


class TestBracket:
    @pytest.mark.parametrize("d,k,seed", [(2, 2, 3), (2, 3, 11), (3, 2, 5),
                                          (3, 3, 1), (4, 3, 2), (2, 4, 9)])
    def test_value_lies_in_the_tangent_bracket_above_the_grid(self, d, k, seed):
        w, p = random_cq_channel(d, k, np.random.default_rng(seed))
        cache, full = RadiusCache(w, p), RadiusCache(w, p)
        for rate in np.linspace(cache.holevo(), math.log(d) + 0.1, 5)[1:]:
            rate = float(rate)
            value, argmax = sc_exponent(w, p, rate, cache=cache)
            assert value >= _grid_value(full, rate, _grid_argmax(full, rate, GRID)) - 1e-12
            _, b, upper = bracket(radius_samples(cache, rate, 0.0, 1.0), rate)
            if b is not None:
                assert value <= upper + 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_diagonal_channels_match_the_scalar_oracle(self, seed):
        w, p, rows, weights = diagonal_channel(np.random.default_rng(seed))
        oracle = ClassicalChannel(rows, weights)
        cache = RadiusCache(w, p)
        for rate in np.linspace(1.05 * oracle.holevo(), math.log(3.0) + 0.1, 4):
            value, _ = sc_exponent(w, p, float(rate), cache=cache)
            assert value == pytest.approx(oracle.sc_exponent(float(rate)), abs=1e-9)


class TestRadiusCache:
    def test_failed_order_raises_again_without_a_solve(self, monkeypatch):
        from renyicq.exceptions import NonConvergenceError

        calls = []

        def unconverged(*args, **kwargs):
            calls.append(args)
            return CenterResult(None, math.nan, 1, 0.5, False, FIXED_POINT)

        monkeypatch.setattr(CenterProblem, "solve", unconverged)
        w, p = noiseless_channel(2)
        cache = RadiusCache(w, p)
        for _ in range(2):
            with pytest.raises(NonConvergenceError, match="alpha=2.0"):
                cache.chi(2.0)
        assert len(calls) == 1

    # Each order after the first is nearest the one before, its warm start.
    @pytest.mark.parametrize("rule,orders", [("sandwiched", (2.0, 3.0, 3.5)),
                                             ("petz", (0.5, 0.7, 0.8))])
    def test_orders_match_cold_solves_bitwise(self, rule, orders):
        w, p = parse_preset("random:2:3:7")
        cache = RadiusCache(w, p)
        warm = None
        for alpha in orders:
            params = RenyiParams(alpha, alpha if rule == "sandwiched" else 1.0)
            cold = CenterProblem(w, p).solve(params, "D", warm)
            res = cache.result(alpha)
            assert res.value == cold.value
            assert np.array_equal(res.center.mat, cold.center.mat)
            warm = res.center

    def test_curve_compresses_once(self, monkeypatch):
        from renyicq import centers

        calls = []
        isometry = centers.support_isometry

        def counted(a):
            calls.append(a)
            return isometry(a)

        monkeypatch.setattr(centers, "support_isometry", counted)
        w, p = parse_preset("random:2:3:7")
        cache = RadiusCache(w, p)
        rates = np.linspace(1.2 * holevo_quantity(w, p)[0], math.log(2.0) + 0.05, 6)
        sc_curve(w, p, rates, cache=cache)
        assert cache.chi_inf_center is not None
        assert len(calls) == 1

    def test_curve_computes_the_holevo_quantity_once(self, monkeypatch):
        from renyicq import centers

        calls = []

        def counted(w, p):
            calls.append(p)
            return holevo_quantity(w, p)

        monkeypatch.setattr(centers, "holevo_quantity", counted)
        w, p = parse_preset("random:2:3:7")
        rates = np.linspace(0.5, 0.75, 6)
        sc_curve(w, p, rates)
        assert len(calls) == 1

    def test_one_cache_serves_all_three_suprema(self):
        # Each order is warm-started from its own side of 1, so one cache
        # shared by the three suprema gives the values of separate caches
        # that saw the same rates.
        w, p = parse_preset("random:2:3:7")
        shared, sc_own, sp_own, rc_own = (RadiusCache(w, p) for _ in range(4))
        hol = shared.holevo()
        above = np.linspace(1.1 * hol, math.log(2.0) + 0.05, 4)
        for low, high in zip(np.linspace(0.3, 0.95, 4) * hol, above):
            assert (sphere_packing_bound(w, p, low, cache=shared)
                    == sphere_packing_bound(w, p, low, cache=sp_own))
            assert (sc_curve(w, p, [high], cache=shared).values[0]
                    == sc_curve(w, p, [high], cache=sc_own).values[0])
            assert (random_coding_exponent(w, p, low, cache=shared)
                    == random_coding_exponent(w, p, low, cache=rc_own))
        assert shared.chi_inf_center is not None
        assert shared.chi_inf() == sc_own.chi_inf()
        other = RadiusCache(*random_cq_channel(2, 3, np.random.default_rng(8)))
        for bound in (sc_curve, sphere_packing_bound, random_coding_exponent):
            with pytest.raises(ValueError, match="cache"):
                bound(w, p, 0.5 * hol, cache=other)

    @pytest.mark.parametrize("kind", ["rank_deficient", "scaled"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
    def test_petz_divergence_matches_the_reference(self, kind, alpha):
        w, p = _slope_channel(kind)
        want = _petz_reference(w, p, alpha)
        assert abs(RadiusCache(w, p).petz_divergence(alpha) - want) <= 1e-12 * max(1.0, abs(want))

    def test_sc_exponent_rejects_another_channels_cache(self):
        w, p = random_cq_channel(2, 3, np.random.default_rng(7))
        other = RadiusCache(*random_cq_channel(2, 3, np.random.default_rng(8)))
        with pytest.raises(ValueError, match="cache"):
            sc_exponent(w, p, 0.69, cache=other)


def _isometric_copy(w, v):
    return GcqChannel({s: v @ w.output(s).mat @ v.conj().T for s in w.alphabet})


def _haar_isometry(rng, rows, cols):
    g = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
    q, r = np.linalg.qr(g)
    return (q * (r.diagonal() / np.abs(r.diagonal())))[:, :cols]


def _weighted_dmax(w, p, sigma):
    return sum(prob * d_max(w.output(s), sigma) for s, prob in p.items() if prob > 0.0)


class TestChiInf:
    def test_noiseless_is_log_two(self):
        w, p = noiseless_channel(2)
        assert RadiusCache(w, p).chi_inf() == pytest.approx(LN2, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_classical_oracle(self, seed):
        w, p, rows, weights = diagonal_channel(np.random.default_rng(seed))
        want = ClassicalChannel(rows, weights).dmax_radius()
        assert RadiusCache(w, p).chi_inf() == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("token", ["random:2:3:9", "random:4:4:7"])
    def test_unitary_invariance(self, token):
        w, p = parse_preset(token)
        u = _haar_isometry(np.random.default_rng(5), w.dim, w.dim)
        rotated = RadiusCache(_isometric_copy(w, u), p).chi_inf()
        assert rotated == pytest.approx(RadiusCache(w, p).chi_inf(), abs=1e-10)

    def test_isometric_embedding_invariance(self):
        w, p = parse_preset("random:2:3:7")
        v = _haar_isometry(np.random.default_rng(6), 3, 2)
        cache = RadiusCache(_isometric_copy(w, v), p)
        assert cache.chi_inf() == pytest.approx(RadiusCache(w, p).chi_inf(), abs=1e-10)
        center = cache.chi_inf_center.mat
        assert np.trace(v.conj().T @ center @ v).real == pytest.approx(1.0, abs=1e-12)

    def test_bracketed_by_finite_order_and_candidate_states(self, random_channel):
        w, p, cache = random_channel
        value = cache.chi_inf()
        assert cache.chi(64.0) <= value + 1e-12
        candidates = (average_output(w, p), DensityOperator(np.eye(w.dim) / w.dim),
                      cache.result(64.0).center)
        for sigma in candidates:
            assert value <= _weighted_dmax(w, p, sigma) + 1e-12

    def test_below_previous_ladder_value_at_d8(self):
        # The former Nelder-Mead temperature ladder stopped at 0.505133.
        w, p = parse_preset("random:8:4:7")
        assert RadiusCache(w, p).chi_inf() < 0.50490

    def test_endpoint_starts_from_the_compressed_largest_order(self, monkeypatch):
        from renyicq import centers

        starts = []
        minimize = centers.minimize_dmax

        def recorded(mats, probs, start):
            starts.append(start)
            return minimize(mats, probs, start)

        monkeypatch.setattr(centers, "minimize_dmax", recorded)
        w, p = parse_preset("random:2:3:7")
        cache = RadiusCache(w, p)
        cache.chi(2.0)
        cache.chi(64.0)
        value = cache.chi_inf()
        # Exactly V* sigma V of the alpha = 64 center: no symmetrization added.
        assert np.array_equal(starts[0], cache.compress(cache.result(64.0).center.mat))
        # A second cache that solves the same orders gives the same endpoint.
        again = RadiusCache(w, p)
        again.chi(2.0)
        again.chi(64.0)
        assert again.chi_inf() == value
        assert np.array_equal(again.chi_inf_center.mat, cache.chi_inf_center.mat)

    @pytest.mark.parametrize("token", ["random:2:3:7", "random:4:4:7"])
    def test_value_attained_by_kept_center(self, token):
        w, p = parse_preset(token)
        cache = RadiusCache(w, p)
        assert cache.chi_inf_center is None
        value = cache.chi_inf()
        center = cache.chi_inf_center
        assert center.trace() == pytest.approx(1.0, abs=1e-12)
        assert abs(_weighted_dmax(w, p, center) - value) <= 1e-12


class TestScCurve:
    def test_shape_invariants(self, random_channel):
        w, p, cache = random_channel
        hol, _ = holevo_quantity(w, p)
        rates = np.linspace(0.5 * hol, 2.5 * hol + 1.0, 50)
        curve = sc_curve(w, p, rates, cache=cache)
        v = curve.values
        assert np.all(v >= 0.0)
        assert np.all(np.diff(v) >= -1e-10)
        mid = v[1:-1] - 0.5 * (v[:-2] + v[2:])
        assert mid.max() <= 1e-8

    def test_noiseless_closed_form(self, noiseless2):
        w, p, cache = noiseless2
        rates = np.linspace(0.1, 2.0, 20)
        curve = sc_curve(w, p, rates, cache=cache)
        want = np.maximum(0.0, rates - LN2)
        assert np.abs(curve.values - want).max() < 1e-6


class TestCutoff:
    def test_half_kappa_is_alpha_two(self, random_channel):
        w, p, cache = random_channel
        assert cutoff_rate(w, p, 0.5, cache=cache) == pytest.approx(
            cache.chi(2.0), abs=1e-12)

    def test_noiseless_constant(self, noiseless2):
        w, p, cache = noiseless2
        for kappa in (0.25, 0.5, 0.75):
            assert cutoff_rate(w, p, kappa, cache=cache) == pytest.approx(LN2, abs=1e-9)

    def test_kappa_domain(self, noiseless2):
        w, p, cache = noiseless2
        with pytest.raises(ValueError):
            cutoff_rate(w, p, 1.0, cache=cache)

    def test_tangency(self, random_channel):
        w, p, cache = random_channel
        hol, _ = holevo_quantity(w, p)
        rates = np.linspace(0.5 * hol, 3.0 * hol + 1.0, 40)
        curve = sc_curve(w, p, rates, cache=cache)
        for kappa in (0.25, 0.5, 0.75):
            c_k = cutoff_rate(w, p, kappa, cache=cache)
            gaps = curve.values - kappa * (curve.rates - c_k)
            assert gaps.min() >= -1e-6
            assert gaps.min() <= 2e-2


def _sp_value(cache, rate, alpha):
    """((alpha - 1)/alpha)(R - chi_{alpha,1})."""
    return (alpha - 1.0) / alpha * (rate - cache.chi(alpha))


def _petz_reference(w, p, alpha):
    """sum_x P(x) D_{alpha,1}(W(x)||W(P)) at the unit-trace W(P) by
    `weighted_divergence`; at alpha = 0, log Tr W(x) - log Tr W(x)^0 W(P)."""
    avg = DensityOperator(average_output(w, p).mat)
    if alpha == 0.0:
        return sum(prob * (math.log(w.output(s).trace())
                           - math.log(np.trace(support_projection(w.output(s)).mat @ avg.mat).real))
                   for s, prob in p.items())
    return weighted_divergence(w, p, RenyiParams.petz(alpha), avg)


def _rc_value(w, p, rate, alpha):
    """(alpha - 1)(R - sum_x P(x) D_{alpha,1}(W(x)||W(P)))."""
    return (alpha - 1.0) * (rate - _petz_reference(w, p, alpha))


# (d, k, seed) of the random channels the sphere-packing and random-coding
# order searches are checked on.
SEARCHED = [(2, 3, 11), (3, 2, 5), (4, 3, 2)]


class TestSpherePacking:
    def test_zero_above_holevo(self, random_channel):
        # chi_{alpha,1} <= chi_1 for alpha < 1, so no order is solved there.
        w, p, _ = random_channel
        hol, _ = holevo_quantity(w, p)
        cache = RadiusCache(w, p)
        for rate in (hol, hol * 1.05):
            assert sphere_packing_bound(w, p, rate, cache=cache) == 0.0
        assert not cache._results

    def test_noiseless_low_rate_hits_grid_floor(self, noiseless2):
        w, p, _ = noiseless2
        rate = 0.5 * LN2
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            value = sphere_packing_bound(w, p, rate)
        assert any("grid floor" in str(entry.message) for entry in log)
        alpha_min = 1e-3
        want = (1.0 - alpha_min) / alpha_min * (LN2 - rate)
        assert value == pytest.approx(want, rel=1e-3)

    def test_partial_drop_warns_and_succeeds(self, random_channel):
        from renyicq.exceptions import NonConvergenceError

        # The tangent search reads only the orders on its path; its first
        # probe is dropped, and the search goes on from the other orders.
        w, p, _ = random_channel
        rate = 0.85 * holevo_quantity(w, p)[0]
        want = sphere_packing_bound(w, p, rate, cache=RadiusCache(w, p))
        real, dropped = RadiusCache(w, p), []

        class Flaky:
            w, p = real.w, real.p
            slopes = real.slopes

            def chi(self, alpha):
                if alpha in dropped or not dropped:
                    dropped.append(alpha)
                    raise NonConvergenceError("stub")
                return real.chi(alpha)

            def holevo(self):
                return real.holevo()

        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            value = sphere_packing_bound(w, p, rate, cache=Flaky())
        assert any("dropping alpha" in str(entry.message) for entry in log)
        assert value == pytest.approx(want, abs=1e-12)

    def test_all_orders_dropped_raises(self, random_channel):
        from renyicq.exceptions import NonConvergenceError

        w, p, _ = random_channel
        real = RadiusCache(w, p)

        class Dead:
            w, p = real.w, real.p
            slopes = {}

            def chi(self, alpha):
                raise NonConvergenceError("stub")

            def holevo(self):
                return real.holevo()

        with pytest.raises(NonConvergenceError, match="no Petz radius evaluation converged"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sphere_packing_bound(w, p, 0.5 * real.holevo(), cache=Dead())

    @pytest.mark.parametrize("d,k,seed", SEARCHED)
    def test_lazy_search_matches_the_full_grid(self, d, k, seed):
        w, p = random_cq_channel(d, k, np.random.default_rng(seed))
        full = RadiusCache(w, p)
        lazy = RadiusCache(w, p)
        for rate in np.linspace(0.4, 0.95, 4) * full.holevo():
            best = max(_sp_value(full, rate, a) for a in SP_GRID)
            assert sphere_packing_bound(w, p, rate, cache=lazy) >= best - 1e-12
        # at most 8 orders per rate, where the grid held 40
        assert len(lazy._results) <= 32

    @pytest.mark.parametrize("d,seed", [(2, 11), (4, 2), (3, 5)])
    def test_first_rate_solves_at_most_eight_orders(self, d, seed):
        # With u = 0 the only sample, the first probe stops at u = -1
        # (alpha = 1/2), not halfway to the floor at alpha = 1e-3.
        w, p = random_cq_channel(d, 3, np.random.default_rng(seed))
        cache = RadiusCache(w, p)
        sphere_packing_bound(w, p, 0.4 * cache.holevo(), cache=cache)
        assert 0 < len(cache.slopes) <= 8

    def test_petz_objective_is_convex_on_the_grid(self):
        # f(u) = u chi_{1/(1-u),1} is convex in u = 1 - 1/alpha: E_0(s) =
        # s chi_{1/(1+s),1} is concave in s = -u.  The search relies on it:
        # the slopes of f between grid orders never fall.
        u = np.array([1.0 - 1.0 / a for a in SP_GRID])
        for d, k, seed in SEARCHED:
            cache = RadiusCache(*random_cq_channel(d, k, np.random.default_rng(seed)))
            slopes = np.diff(u * np.array([cache.chi(a) for a in SP_GRID])) / np.diff(u)
            assert np.diff(slopes).min() >= 0.0

    def test_classical_consistency(self):
        rng = np.random.default_rng(11)
        w, p, rows, weights = diagonal_channel(rng)
        oracle = ClassicalChannel(rows, weights)
        hol = oracle.holevo()
        for rate in (0.85 * hol, 0.95 * hol):
            mine = sphere_packing_bound(w, p, float(rate))
            ref = oracle.sphere_packing(float(rate))
            assert mine == pytest.approx(ref, abs=1e-6)


class TestRandomCoding:
    def test_noiseless_closed_form(self, noiseless2):
        w, p, _ = noiseless2
        for rate in (0.2, 0.5, 1.0):
            want = max(0.0, LN2 - rate)
            assert random_coding_exponent(w, p, rate) == pytest.approx(want, abs=1e-9)

    def test_scaled_outputs_shift_the_rate(self):
        # D_{alpha,1}(2 W(x) || W(P)) = log 2 + D_{alpha,1}(W(x) || W(P)) for
        # every alpha, the alpha -> 0 limit included, where the supremum sits.
        w, p = noiseless_channel(2)
        scaled = GcqChannel({s: 2.0 * w.output(s).mat for s in w.alphabet})
        for rate in (0.1, 0.4):
            got = random_coding_exponent(scaled, p, rate + LN2)
            assert got == pytest.approx(LN2 - rate, abs=1e-12)

    def test_zero_above_mutual_information(self, random_channel, monkeypatch):
        # D_{alpha,1} <= D_1 for alpha <= 1, so no divergence is evaluated there.
        from renyicq import backend

        calls, q_sweep = [], backend.q_sweep

        def counted(*args):
            calls.append(args)
            return q_sweep(*args)

        monkeypatch.setattr(backend, "q_sweep", counted)
        w, p, _ = random_channel
        hol, _ = holevo_quantity(w, p)
        for rate in (hol, hol * 1.05):
            assert random_coding_exponent(w, p, rate) == 0.0
        assert not calls
        assert random_coding_exponent(w, p, 0.5 * hol) > 0.0 and calls

    @pytest.mark.parametrize("d,k,seed", SEARCHED)
    def test_lazy_search_matches_the_full_grid(self, d, k, seed):
        w, p = random_cq_channel(d, k, np.random.default_rng(seed))
        cache = RadiusCache(w, p)
        for i, rate in enumerate(np.linspace(0.1, 0.95, 4) * holevo_quantity(w, p)[0]):
            best = max(_rc_value(w, p, rate, a) for a in RC_GRID)
            assert random_coding_exponent(w, p, rate, cache=cache) >= best - 1e-12
            if i == 0:
                # the divergences the search evaluated, memoized by the cache
                assert 0 < len(cache.petz_slopes) <= 12

    def test_finite_n_below_asymptotic(self, random_channel):
        w, p, _ = random_channel
        counts = {s: c for s, c in zip(w.alphabet, (3, 4, 5))}
        p_n = TypeClass.from_counts(counts)
        p_as = p_n.as_distribution
        for rate in (0.05, 0.1, 0.2):
            finite = finite_n_random_coding_bound(w, p_n, rate)
            asym = random_coding_exponent(w, p_as, rate)
            assert finite <= asym + 1e-12

    def test_classical_oracle(self):
        # independent scalar evaluation of the same supremum
        rng = np.random.default_rng(13)
        w, p, rows, weights = diagonal_channel(rng)
        avg = weights @ rows
        rate = 0.5 * float(sum(
            wt * classical_divergence(row, avg, 1.0) for wt, row in zip(weights, rows)))

        def scalar(alpha):
            total = sum(wt * classical_divergence(row, avg, alpha)
                        for wt, row in zip(weights, rows))
            return (alpha - 1.0) * (rate - total)

        grid = np.linspace(1e-9, 1.0, 4001)
        want = max(0.0, max(scalar(a) for a in grid))
        got = random_coding_exponent(w, p, rate)
        assert got == pytest.approx(want, abs=1e-6)


class TestFiniteNConverse:
    def test_noiseless_value(self):
        w, p = noiseless_channel(2)
        p_n = TypeClass.from_counts({"0": 1, "1": 1})
        bound = finite_n_converse_bound(w, p_n, 2.0 * LN2)
        assert bound == pytest.approx(-LN2, abs=1e-6)

    def test_vacuous_below_holevo(self, random_channel):
        w, p, _ = random_channel
        counts = {s: 2 for s in w.alphabet}
        p_n = TypeClass.from_counts(counts)
        hol, _ = holevo_quantity(w, p_n.as_distribution)
        assert finite_n_converse_bound(w, p_n, 0.5 * hol) == 0.0

    def test_suboptimal_sigma_weakens_bound(self, random_channel):
        w, p, cache = random_channel
        counts = {s: 2 for s in w.alphabet}
        p_n = TypeClass.from_counts(counts)
        rate = cache.chi(2.0) + 0.5
        params = RenyiParams.sandwiched(2.0)
        from renyicq.channels import average_output
        sigma = DensityOperator(average_output(w, p_n.as_distribution).mat)
        with_sigma = finite_n_converse_bound(w, p_n, rate, params=params, sigma=sigma)
        optimized = finite_n_converse_bound(w, p_n, rate, params=params)
        assert with_sigma >= optimized - 1e-12

    def test_requires_alpha_above_one(self, random_channel):
        w, p, _ = random_channel
        p_n = TypeClass.from_counts({s: 1 for s in w.alphabet})
        with pytest.raises(ValueError):
            finite_n_converse_bound(w, p_n, 1.0, params=RenyiParams(0.5, 0.5))

    @pytest.mark.parametrize("z", [1.0, math.inf])
    def test_rejects_other_than_sandwiched_params(self, z):
        # The bound is sandwiched only: a Petz or log-Euclidean order used to
        # return the sandwiched value (-0.157438 at R = 0.9 here) unnoticed.
        w, _ = parse_preset("random:2:3:7")
        p_n = TypeClass.from_counts({s: 2 for s in w.alphabet})
        sigma = DensityOperator(average_output(w, p_n.as_distribution).mat)
        params = RenyiParams(2.0, z)
        with pytest.raises(ValueError):
            finite_n_converse_bound(w, p_n, 0.9, params=params)
        with pytest.raises(ValueError):
            finite_n_converse_bound(w, p_n, 0.9, params=params, sigma=sigma)


class TestPsiCurve:
    def test_identical_families_vanish(self):
        rng = np.random.default_rng(17)
        states = [DensityOperator(random_state_mat(rng, 2)) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        curve = psi_curve(list(zip(states, weights)), states,
                          [0.5, 0.9, 1.0, 1.5, 2.0])
        assert np.abs(curve.values).max() < 1e-10

    def test_derivative_matches_relative_entropy(self):
        rng = np.random.default_rng(18)
        first = [DensityOperator(random_state_mat(rng, 2)) for _ in range(3)]
        second = [DensityOperator(random_state_mat(rng, 2)) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        want = float(sum(w * umegaki(v, r)
                         for w, v, r in zip(weights, first, second)))
        curve = psi_curve(list(zip(first, weights)), second, [1.0])
        assert abs(curve.deriv_left - want) <= 1e-3
        assert abs(curve.deriv_right - want) <= 1e-3

    def test_commuting_cumulant_formula(self):
        rng = np.random.default_rng(19)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        first = [DensityOperator(np.diag(p))]
        second = [DensityOperator(np.diag(q))]
        alphas = [0.3, 0.8, 1.7]
        curve = psi_curve([(first[0], 1.0)], second, alphas)
        for a, got in zip(alphas, curve.values):
            want = math.log(float(np.sum(p ** a * q ** (1.0 - a))))
            assert got == pytest.approx(want, abs=1e-10)

    def test_mismatched_lists(self):
        rng = np.random.default_rng(20)
        s = DensityOperator(random_state_mat(rng, 2))
        with pytest.raises(ValueError):
            psi_curve([(s, 1.0)], [], [1.0])


class TestClippedTrace:
    def test_equal_states(self):
        rng = np.random.default_rng(21)
        rho = DensityOperator(random_state_mat(rng, 3))
        assert clipped_trace(rho, rho, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_threshold(self):
        rng = np.random.default_rng(22)
        rho = DensityOperator(random_state_mat(rng, 3))
        sig = DensityOperator(random_state_mat(rng, 3))
        assert clipped_trace(rho, sig, 0.0) == pytest.approx(rho.trace(), abs=1e-12)

    def test_scalar_positive_part(self):
        rho = DensityOperator(np.diag([0.5, 0.5]))
        sig = DensityOperator(np.diag([0.25, 0.75]))
        assert clipped_trace(rho, sig, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_monotone_and_lipschitz(self):
        rng = np.random.default_rng(23)
        rho = DensityOperator(random_state_mat(rng, 3))
        sig = DensityOperator(random_state_mat(rng, 3))
        ts = np.linspace(0.0, 3.0, 60)
        vals = np.array([clipped_trace(rho, sig, float(t)) for t in ts])
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12)
        assert np.abs(diffs / (ts[1] - ts[0])).max() <= sig.trace() + 1e-6


class TestConvexityProbe:
    def test_noiseless_is_linear(self, noiseless2):
        w, p, cache = noiseless2
        report = convexity_probe(w, p, cache=cache)
        assert np.allclose(report.values, report.u * LN2, atol=1e-8)
        assert report.max_violation <= 1e-8

    def test_random_channel(self, random_channel):
        w, p, cache = random_channel
        report = convexity_probe(w, p, cache=cache)
        assert report.max_violation <= 1e-6

    def test_grid_validation(self, noiseless2):
        w, p, cache = noiseless2
        with pytest.raises(ValueError):
            convexity_probe(w, p, u_grid=[0.1, 0.2, 0.5], cache=cache)
        with pytest.raises(ValueError):
            convexity_probe(w, p, u_grid=[0.0, 0.5, 1.0], cache=cache)
