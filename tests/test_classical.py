"""Closed forms and certification of the scalar oracle in renyicq.classical."""

import math

import numpy as np
import pytest

import renyicq.classical as classical
from renyicq.classical import ClassicalChannel, classical_divergence, classical_q
from renyicq.exceptions import NonConvergenceError

ZERO_ENTRIES = ([[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.2, 0.0, 0.8]], [0.2, 0.5, 0.3])


def _sc_grid_orders():
    us = np.linspace(0.0, 1.0 - 1.0 / 1024.0, 600)
    return 1.0 / (1.0 - us[us > 0.0])


class TestClassicalDivergence:
    def test_large_order_two_symbols(self):
        # log(0.5 (1.2^4096 + 0.8^4096)) / 4095, with 0.8/1.2 = 2/3
        want = (4096.0 * math.log(1.2) + math.log(0.5 * (1.0 + (2.0 / 3.0) ** 4096))) / 4095.0
        assert classical_divergence([0.6, 0.4], [0.5, 0.5], 4096) == pytest.approx(
            want, abs=1e-13)

    def test_large_order_three_symbols(self):
        # sum_j p_j^1024 3^1023 = 3^1023 0.6^1024 (1 + 0.5^1024 + (1/6)^1024)
        want = (1024.0 * math.log(0.6) + 1023.0 * math.log(3.0)
                + math.log1p(0.5 ** 1024 + (1.0 / 6.0) ** 1024)) / 1023.0
        got = classical_divergence([0.6, 0.3, 0.1], [1.0 / 3.0] * 3, 1024)
        assert got == pytest.approx(want, abs=1e-13)

    def test_overflowing_power_sum_is_inf_not_nan(self):
        assert classical_q([0.6, 0.4], [0.5, 0.5], 4096) == math.inf

    def test_support_violation_is_inf(self):
        assert classical_divergence([0.5, 0.5], [1.0, 0.0], 2.0) == math.inf


class TestAugustinClosedForms:
    @pytest.mark.parametrize("alpha", [1e-3, 0.3, 0.999999, 1.000001, 1.5, 2.0, 64.0, 1024.0])
    def test_noiseless_channel_gives_entropy(self, alpha):
        weights = np.array([0.7, 0.2, 0.1])
        entropy = float(-np.sum(weights * np.log(weights)))
        oracle = ClassicalChannel(np.eye(3), weights)
        assert abs(oracle.augustin_radius(alpha) - entropy) <= 1e-13

    @pytest.mark.parametrize("alpha", [1e-3, 0.3, 0.9, 1.5, 2.0, 64.0, 1024.0])
    def test_symmetric_channel_matches_sibson_and_uniform(self, alpha):
        # On a symmetric channel with uniform input the Augustin center is
        # uniform, so every closed form coincides.
        rows = np.array([np.roll([0.6, 0.3, 0.1], k) for k in range(3)])
        uniform = np.full(3, 1.0 / 3.0)
        oracle = ClassicalChannel(rows, uniform)
        value = oracle.augustin_radius(alpha)
        assert abs(value - oracle.sibson_radius(alpha)) <= 1e-12
        assert abs(value - classical_divergence(rows[0], uniform, alpha)) <= 1e-12


class TestCertification:
    def test_zero_entries_every_grid_order_certified_and_monotone(self):
        oracle = ClassicalChannel(*ZERO_ENTRIES)
        hol = oracle.holevo()
        oracle.sc_exponent(1.5 * hol)
        oracle.sphere_packing(0.8 * hol)
        orders = sorted(oracle._radius)
        grids = set(map(float, _sc_grid_orders())) | set(
            map(float, np.geomspace(1e-3, 1.0 - 1e-6, 400)))
        assert grids <= set(orders)
        values = np.array([oracle._radius[a][0] for a in orders])
        norms = np.array([oracle._radius[a][1] for a in orders])
        assert np.all(norms <= 1e-12)
        assert np.all(np.diff(values) >= -1e-12)

    def test_single_order_matches_batched_grid_fill(self):
        rng = np.random.default_rng(3)
        rows, weights = rng.dirichlet(np.ones(4), size=3), rng.dirichlet(np.ones(3))
        batched = ClassicalChannel(rows, weights)
        batched.sc_exponent(batched.holevo())
        orders = _sc_grid_orders()
        for alpha in orders[[0, 99, 299, 598]]:
            single = ClassicalChannel(rows, weights).augustin_radius(alpha)
            assert abs(single - batched._radius[alpha][0]) <= 1e-14

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(classical, "_MAX_NEWTON", 1)
        rng = np.random.default_rng(5)
        oracle = ClassicalChannel(rng.dirichlet(np.ones(3), size=3), rng.dirichlet(np.ones(3)))
        with pytest.raises(NonConvergenceError, match="alpha=2.0"):
            oracle.augustin_radius(2.0)
        assert 2.0 not in oracle._radius

    def test_order_one_is_rejected(self):
        with pytest.raises(ValueError):
            ClassicalChannel(*ZERO_ENTRIES).augustin_radius(1.0)
