"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a PASS line with the measured worst case so the suite can
be read as a report (run with -s to stream them).
"""

import math
import time

import numpy as np
import pytest

from _helpers import diagonal_channel, random_state_mat
from renyicq.centers import (
    closed_form_center_z1,
    mutual_information,
    oracle_grid_center,
    solve_center_D,
    solve_center_Qbar,
    stationarity_residual,
)
from renyicq.channels import (
    GcqChannel,
    InputDistribution,
    TypeClass,
    noiseless_channel,
    product_channel,
    product_distribution,
    random_cq_channel,
    type_class_size,
    type_mixing_check,
)
from renyicq.classical import ClassicalChannel
from renyicq.divergences import (
    INF_Z,
    RenyiParams,
    classify_region,
    d_hat,
    tsallis,
    umegaki,
)
from renyicq.exponents import RadiusCache, convexity_probe, cutoff_rate, psi_curve, sc_curve
from renyicq.operators import DensityOperator, trace_distance


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def test_criterion_01_noiseless_anchor():
    rng = np.random.default_rng(1001)
    params_list = [RenyiParams(2.0, 2.0), RenyiParams(2.0, 1.0),
                   RenyiParams(0.7, 1.0), RenyiParams(1.5, 1.5)]
    start = time.monotonic()
    worst = 0.0
    for d in (2, 3, 4):
        w, _ = noiseless_channel(d)
        for _ in range(10):
            weights = rng.dirichlet(np.ones(d))
            p = InputDistribution({str(i): weights[i] for i in range(d)})
            for params in params_list:
                res = solve_center_D(w, p, params)
                err = abs(res.value - p.entropy())
                worst = max(worst, err)
                assert res.converged
                assert err <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(1, f"chi = H(P) within {worst:.2e} over d in 2..4, 10 P, 4 orders "
               f"({elapsed:.2f}s)")


def test_criterion_02_sibson_closed_form():
    rng = np.random.default_rng(1002)
    worst_td, worst_val = 0.0, 0.0
    for _ in range(20):
        w, p = random_cq_channel(2, 3, rng)
        for alpha in (0.5, 2.0, 3.0):
            solved = solve_center_Qbar(w, p, RenyiParams.petz(alpha))
            closed = closed_form_center_z1(w, p, alpha)
            assert solved.converged
            td = trace_distance(solved.center, closed.center)
            dv = abs(solved.value - closed.value)
            worst_td, worst_val = max(worst_td, td), max(worst_val, dv)
            assert td <= 1e-7
            assert dv <= 1e-8
    _report(2, f"20 channels x 3 orders: trace distance <= {worst_td:.2e}, "
               f"value gap <= {worst_val:.2e}")


def test_criterion_03_additivity():
    rng = np.random.default_rng(1003)
    start = time.monotonic()
    worst = 0.0
    for _ in range(10):
        w, p = random_cq_channel(2, 3, rng)
        ww = product_channel(w, w)
        pp = product_distribution(p, p)
        for alpha in (1.2, 2.0, 4.0):
            params = RenyiParams.sandwiched(alpha)
            one = solve_center_D(w, p, params)
            two = solve_center_D(ww, pp, params)
            assert one.converged and two.converged
            err = abs(two.value - 2.0 * one.value)
            worst = max(worst, err)
            assert err <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    _report(3, f"additivity gap <= {worst:.2e} over 10 channels x 3 orders "
               f"({elapsed:.1f}s)")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(20):
        w, p = random_cq_channel(2, 3, rng)
        for params in (RenyiParams(2.0, 2.0), RenyiParams(3.0, 1.5)):
            solved = solve_center_D(w, p, params).value
            grid = oracle_grid_center(w, p, params).value
            err = abs(solved - grid)
            worst = max(worst, err)
            assert err <= 1e-3
    _report(4, f"solver vs grid oracle gap <= {worst:.2e} over 20 dim-2 channels")


def test_criterion_05_classical_consistency():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(10):
        w, p, rows, weights = diagonal_channel(rng, dim=3, symbols=3)
        oracle = ClassicalChannel(rows, weights)
        cache = RadiusCache(w, p)
        hol = oracle.holevo()
        for rate in np.linspace(0.6 * hol, 2.2 * hol, 20):
            curve = sc_curve(w, p, [float(rate)], cache=cache)
            mine = float(curve.values[0])
            ref = oracle.sc_exponent(float(rate))
            err = abs(mine - ref)
            worst = max(worst, err)
            assert err <= 1e-6, f"gap {err:.2e} at R={rate:.5f}"
    _report(5, f"sc matches the scalar implementation within {worst:.2e} "
               f"(10 diagonal channels x 20 rates)")


def test_criterion_06_cutoff_tangency():
    rng = np.random.default_rng(1006)
    worst_min = 0.0
    for _ in range(5):
        w, p = random_cq_channel(2, 3, rng)
        cache = RadiusCache(w, p)
        hol_anchor = cache.chi(1.0 + 1e-6)
        rates = np.linspace(0.5 * hol_anchor, 3.0 * hol_anchor + 1.0, 50)
        curve = sc_curve(w, p, rates, cache=cache)
        for kappa in (0.25, 0.5, 0.75):
            c_k = cutoff_rate(w, p, kappa, cache=cache)
            gaps = curve.values - kappa * (curve.rates - c_k)
            worst_min = min(worst_min, float(gaps.min()))
            assert gaps.min() >= -1e-6, f"tangency violated at kappa={kappa}"
    _report(6, f"sc(R) >= kappa (R - C_kappa) with min slack {worst_min:.2e} "
               f"(5 channels, 50-rate grid, 3 kappas)")


def test_criterion_07_positivity_suite():
    rng = np.random.default_rng(1007)
    checked_strict = 0
    worst = math.inf
    for _ in range(200):
        dim = int(rng.integers(2, 4))
        rho = DensityOperator(random_state_mat(rng, dim))
        sig = DensityOperator(random_state_mat(rng, dim))
        # orders sampled over the double-representable part of (0,3]^2:
        # z below ~0.05 with alpha near 3 overflows the inner matrix powers
        if rng.random() < 0.15:
            params = RenyiParams(float(rng.uniform(1.0 + 1e-6, 3.0)), INF_Z)
        else:
            alpha = float(rng.uniform(0.05, 3.0))
            if abs(alpha - 1.0) < 1e-6:
                alpha += 1e-3
            params = RenyiParams(alpha, float(rng.uniform(0.05, 3.0)))
        dh = d_hat(rho, sig, params)
        worst = min(worst, dh)
        assert dh >= -1e-10
        ts = None
        if not params.is_log_euclidean:
            ts = tsallis(rho, sig, params)
            worst = min(worst, ts)
            assert ts >= -1e-10
        if "K0" not in classify_region(params).regions:
            checked_strict += 1
            assert dh > 1e-6
            if ts is not None:
                assert ts > 1e-6
    assert checked_strict >= 100
    _report(7, f"200 pairs nonnegative (min {worst:.2e}); strict positivity on "
               f"{checked_strict} pairs outside K0")


def test_criterion_08_entropy_bound_and_info_ordering():
    rng = np.random.default_rng(1008)
    safe = [RenyiParams(2.0, 2.0), RenyiParams(0.7, 1.0), RenyiParams(1.5, 1.5),
            RenyiParams(2.0, 1.0), RenyiParams(0.6, 0.8)]
    worst_gap = 0.0
    for i in range(20):
        w, p = random_cq_channel(2, 3, rng)
        params = safe[i % len(safe)]
        chi = solve_center_D(w, p, params).value
        assert chi <= p.entropy() + 1e-8
        info = mutual_information(w, p, params)
        if params.alpha < 1.0:
            assert info <= chi + 1e-9
        else:
            assert info >= chi - 1e-9
        worst_gap = max(worst_gap, chi - p.entropy())
    _report(8, f"chi - H(P) <= {worst_gap:.2e} and info ordering holds on 20 channels")


def test_criterion_09_stationarity_certificates():
    rng = np.random.default_rng(1009)
    worst = 0.0
    count = 0
    for i in range(10):
        w, p = random_cq_channel(2, 3, rng)
        for params in (RenyiParams(2.0, 2.0), RenyiParams(0.7, 1.0)):
            res = solve_center_D(w, p, params)
            if not res.converged:
                continue
            count += 1
            grad = stationarity_residual(
                w, p, params, res.center,
                rng=np.random.default_rng(2000 + i),
            )
            worst = max(worst, grad)
            assert grad <= 1e-4, f"stationarity defect {grad:.2e}"
    assert count == 20
    _report(9, f"{count} converged centers pass the first-order check "
               f"(max directional derivative {worst:.2e})")


def test_criterion_10_type_theory_suite():
    # exact mixing identity
    worst = 0.0
    laws = [
        InputDistribution({"0": 0.5, "1": 0.5}),
        InputDistribution({"0": 0.25, "1": 0.75}),
        InputDistribution({"0": 0.2, "1": 0.3, "2": 0.5}),
        InputDistribution({"0": 0.6, "1": 0.1, "2": 0.3}),
    ]
    for p in laws:
        for m in range(1, 7):
            mixed = type_mixing_check(p, m)
            err = max(abs(mixed.probability(s) - p.probability(s)) for s in p.support)
            worst = max(worst, err)
            assert err <= 1e-12
    # exact integer counting bounds
    checked = 0
    for n in range(1, 13):
        combos = [(a, n - a) for a in range(n + 1)]
        combos += [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
        for combo in combos:
            counts = {str(i): c for i, c in enumerate(combo) if c}
            t = TypeClass.from_counts(counts, n)
            size, _ = type_class_size(t)
            kk = math.prod(c ** c for _, c in t.counts)
            s = len(t.support)
            assert size * kk <= n ** n
            assert size * (n + 1) ** s * kk >= n ** n
            checked += 1
    _report(10, f"type mixing exact to {worst:.1e} (m <= 6); counting bounds hold "
                f"for {checked} types as integers (n <= 12)")


def test_criterion_11_infospectrum_derivative():
    rng = np.random.default_rng(1011)
    worst = 0.0
    for _ in range(10):
        k = 3
        first = [DensityOperator(random_state_mat(rng, 2)) for _ in range(k)]
        second = [DensityOperator(random_state_mat(rng, 2)) for _ in range(k)]
        weights = rng.dirichlet(np.ones(k))
        want = float(sum(w * umegaki(v, r)
                         for w, v, r in zip(weights, first, second)))
        curve = psi_curve(list(zip(first, weights)), second, [1.0])
        err = max(abs(curve.deriv_left - want), abs(curve.deriv_right - want))
        worst = max(worst, err)
        assert err <= 1e-3
    _report(11, f"one-sided slopes at order 1 match the weighted relative entropy "
                f"within {worst:.2e} (10 channel pairs)")


def test_criterion_12_convexity_probe():
    rng = np.random.default_rng(1012)
    worst = -math.inf
    for _ in range(10):
        w, p = random_cq_channel(2, 3, rng)
        report = convexity_probe(w, p)
        worst = max(worst, report.max_violation)
        assert report.max_violation <= 1e-6
    _report(12, f"midpoint-convexity violation <= {worst:.2e} on 10 dim-2 channels")
