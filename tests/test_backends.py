import numpy as np
import pytest
from scipy.special import logsumexp

from renyicq.backend import EIG_CUTOFF, center_sweep, q_sweep


def _random_problem(rng, k, m):
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    sigma = g @ g.conj().T
    sigma /= np.trace(sigma).real
    wp = []
    for _ in range(m):
        h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        wp.append(h @ h.conj().T)
    return sigma, np.stack(wp)


def _support_power(a, expo):
    w, v = np.linalg.eigh(a)
    fw = np.zeros_like(w)
    on = w > w[-1] * EIG_CUTOFF
    fw[on] = w[on] ** expo
    return (v * fw) @ v.conj().T


def _sandwiches(sigma, wpows, spow):
    s_half = _support_power(sigma, spow)
    return [s_half @ wp @ s_half for wp in wpows]


def _reference_sweep(sigma, wpows, z, spow):
    """G_x / Tr G_x and Tr G_x, one symbol at a time in the linear domain."""
    ghat, q = [], []
    for a in _sandwiches(sigma, wpows, spow):
        g = _support_power(0.5 * (a + a.conj().T), z)
        q.append(np.trace(g).real)
        ghat.append(g / q[-1])
    return np.stack(ghat), np.array(q)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
@pytest.mark.parametrize("z,spow", [(2.0, -0.25), (1.0, 0.5), (0.7, -1.2)])
def test_center_sweep_matches_eigh_loop(k, z, spow):
    rng = np.random.default_rng(k * 100 + int(z * 10))
    sigma, wp = _random_problem(rng, k, 3)
    ghat, logq = center_sweep(sigma, wp, z, spow)
    want_ghat, want_q = _reference_sweep(sigma, wp, z, spow)
    assert np.abs(ghat - want_ghat).max() <= 1e-12 * max(np.abs(want_ghat).max(), 1.0)
    assert np.abs(logq - np.log(want_q)).max() <= 1e-12


@pytest.mark.parametrize("k", [2, 4])
def test_q_sweep_matches_eigh_loop(k):
    rng = np.random.default_rng(k)
    sigma, wp = _random_problem(rng, k, 4)
    _, want_q = _reference_sweep(sigma, wp, 1.7, -0.3)
    assert np.abs(q_sweep(sigma, wp, 1.7, -0.3) - np.log(want_q)).max() <= 1e-12


def test_rank_deficient_sigma():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    sigma = g @ g.conj().T
    sigma /= np.trace(sigma).real
    _, wp = _random_problem(rng, 3, 2)
    ghat, logq = center_sweep(sigma, wp, 1.0, 0.5)
    want_ghat, want_q = _reference_sweep(sigma, wp, 1.0, 0.5)
    assert np.abs(ghat - want_ghat).max() <= 1e-11
    assert np.abs(logq - np.log(want_q)).max() <= 1e-11


def test_large_order_is_log_sum_exp():
    z = 1024.0
    rng = np.random.default_rng(11)
    sigma, wp = _random_problem(rng, 3, 3)
    spectra = [np.linalg.eigvalsh(a) for a in _sandwiches(sigma, wp, -0.5)]
    with np.errstate(over="ignore"):
        assert any(np.isinf(np.sum(u ** z)) for u in spectra)
    want = [logsumexp(z * np.log(u[u > u[-1] * EIG_CUTOFF])) for u in spectra]
    ghat, logq = center_sweep(sigma, wp, z, -0.5)
    for got in (logq, q_sweep(sigma, wp, z, -0.5)):
        assert np.abs(got - want).max() <= 1e-10
    assert np.abs(np.trace(ghat, axis1=1, axis2=2) - 1.0).max() <= 1e-12


def test_vanishing_symbol_gives_minus_inf():
    rng = np.random.default_rng(3)
    sigma, wp = _random_problem(rng, 2, 2)
    wp[1] = 0.0
    ghat, logq = center_sweep(sigma, wp, 2.0, -0.25)
    assert np.isfinite(logq[0]) and logq[1] == -np.inf
    assert not np.isnan(ghat).any() and not ghat[1].any()
    assert q_sweep(sigma, wp, 2.0, -0.25)[1] == -np.inf


def test_sigma_scale_is_kept_in_log_domain():
    # sigma^spow alone would overflow: (1e-10)^-40 = 1e400.
    rng = np.random.default_rng(4)
    sigma, wp = _random_problem(rng, 3, 2)
    z, spow, c = 1.0, -40.0, 1e-10
    ghat, logq = center_sweep(sigma, wp, z, spow)
    scaled_ghat, scaled_logq = center_sweep(c * sigma, wp, z, spow)
    assert np.all(np.isfinite(scaled_logq))
    assert np.abs(scaled_logq - (logq + 2.0 * z * spow * np.log(c))).max() <= 1e-9
    assert np.abs(scaled_ghat - ghat).max() <= 1e-10
