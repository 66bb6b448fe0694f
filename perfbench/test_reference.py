"""Closed-form checks of the benchmark's reference code.

Run from the repository root: python -m pytest perfbench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref


def _prob(rng, d):
    return rng.dirichlet(np.ones(d))


def _state(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 2.0, 7.0, 64.0])
def test_commuting_states_reduce_to_classical_renyi(alpha):
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        p, q = _prob(rng, d), _prob(rng, d)
        quantum = ref.sandwiched(np.diag(p), np.diag(q), alpha)
        assert quantum == pytest.approx(ref.classical_renyi(p, q, alpha), abs=1e-12)


def test_commuting_d_max_is_log_max_ratio():
    rng = np.random.default_rng(12)
    p, q = _prob(rng, 4), _prob(rng, 4)
    assert ref.d_max(np.diag(p), np.diag(q)) == pytest.approx(
        math.log(float(np.max(p / q))), abs=1e-12)


def test_large_order_does_not_overflow():
    p, q = np.array([0.6, 0.4]), np.array([0.5, 0.5])
    value = ref.sandwiched(np.diag(p), np.diag(q), 4096.0)
    assert value == pytest.approx(ref.classical_renyi(p, q, 4096.0), abs=1e-12)
    assert value == pytest.approx(0.18220, abs=1e-5)


def test_unitary_invariance():
    rng = np.random.default_rng(13)
    rho, sigma = _state(rng, 3), _state(rng, 3)
    u = ref.haar_unitary(rng, 3)
    assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
    for alpha in (0.6, 3.0):
        rotated = ref.sandwiched(u @ rho @ u.conj().T, u @ sigma @ u.conj().T, alpha)
        assert rotated == pytest.approx(ref.sandwiched(rho, sigma, alpha), abs=1e-11)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_noiseless_channel_radius_is_log_d(d):
    states = [np.diag(np.eye(d)[i]).astype(complex) for i in range(d)]
    probs = np.full(d, 1.0 / d)
    assert ref.holevo(states, probs) == pytest.approx(math.log(d), abs=1e-12)
    rng = np.random.default_rng(d)
    for alpha in (0.5, 0.9, 1.5, 4.0, 256.0):
        at_mixed = ref.radius_objective(states, probs, np.eye(d) / d, alpha)
        assert at_mixed == pytest.approx(math.log(d), abs=1e-12)
        # I/d is the minimizer, so no other full-rank state does better.
        for _ in range(5):
            other = ref.radius_objective(states, probs, _state(rng, d), alpha)
            assert other >= math.log(d) - 1e-12
    assert ref.weighted_d_max(states, probs, np.eye(d) / d) == pytest.approx(math.log(d))


@pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
def test_sibson_closed_form_matches_definition(alpha):
    rng = np.random.default_rng(21)
    rows = rng.dirichlet(np.ones(3), size=3)
    weights = _prob(rng, 3)
    assert ref.sibson_radius(rows, weights, alpha) == pytest.approx(
        ref.sibson_by_definition(rows, weights, alpha), abs=1e-9)


def test_directional_derivative_of_a_quadratic():
    sigma = np.eye(2, dtype=complex)
    h = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    first, second = ref.directional_derivative(
        lambda s: float(np.trace(s @ s).real), sigma, h, 1e-3)
    assert first == pytest.approx(0.0, abs=1e-9)
    assert second == pytest.approx(4.0, rel=1e-6)
