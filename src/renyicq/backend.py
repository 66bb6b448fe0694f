"""The sweep kernel of the center fixed-point maps.

One sweep forms, for every symbol x,

    G_x = (sigma^spow W_x^pow sigma^spow)^z,    spow = (1 - alpha) / 2z,

from the pre-powered outputs ``wpows[x] = W_x^(alpha/z)``.  The sandwiches
are stacked and diagonalized by one batched ``eigh``.  Every power is taken
in the log domain, (u / u_max)^z = exp(z (log u - log u_max)), with the
scale kept apart in log Tr G_x, so no order over- or underflows.  The
center maps (``centers._assemble``) are weighted sums of the normalized
G_x / Tr G_x.
"""

from __future__ import annotations

import numpy as np

from .operators import EIG_CUTOFF


def _sandwiches(sigma, wpows, spow):
    """The stacked Hermitian c^-2 sigma^spow W_x sigma^spow and log c^2.

    c is the largest eigenvalue of sigma^spow on sigma's support, so no
    factor of the scaled power exceeds 1.
    """
    w, v = np.linalg.eigh(sigma)
    on = w > max(float(w[-1]), 0.0) * EIG_CUTOFF
    e = spow * np.log(w[on])
    shift = float(e.max()) if e.size else 0.0
    s_half = (v[:, on] * np.exp(e - shift)) @ v[:, on].conj().T
    a = s_half @ wpows @ s_half
    return 0.5 * (a + a.conj().swapaxes(-1, -2)), 2.0 * shift


def _log_powers(u, z, log_scale):
    """Normalized powers u^z / sum u^z and log sum u^z of stacked ascending
    spectra u (m, k) scaled by e^log_scale, on each spectrum's support.

    A spectrum with no positive eigenvalue gives a zero row and -inf.
    """
    top = u[:, -1]
    live = top > 0.0
    top = np.where(live, top, 1.0)[:, None]
    on = u > top * EIG_CUTOFF
    f = np.where(on, u / top, 0.0) ** z
    # Each live row holds (u_max/u_max)^z = 1, so its total is at least 1.
    total = np.maximum(f.sum(axis=1), 1.0)
    logq = np.where(live, z * (np.log(top[:, 0]) + log_scale) + np.log(total), -np.inf)
    return f / total[:, None], logq


def center_sweep(sigma, wpows, z, spow):
    """One pass of the center maps over all symbols.

    Arguments: sigma (k,k) Hermitian PSD; wpows (m,k,k) the pre-powered
    channel outputs W(x)^(alpha/z); z the outer exponent; spow the one-sided
    sigma exponent (1-alpha)/(2z).

    Returns (ghat, logq): ghat[x] = G_x / Tr G_x and logq[x] = log Tr G_x.
    A symbol with G_x = 0 gives a zero ghat[x] and logq[x] = -inf; callers
    must inspect logq.
    """
    a, log_scale = _sandwiches(sigma, wpows, spow)
    u, uv = np.linalg.eigh(a)
    f, logq = _log_powers(u, z, log_scale)
    return (uv * f[:, None, :]) @ uv.conj().swapaxes(-1, -2), logq


def alpha_slope(sigma, wpows, alpha):
    """d log Q_x / d alpha of the sandwiched Q_x = Tr A_x^alpha for every
    symbol, at fixed unit-trace sigma, with A_x = sigma^s W_x sigma^s and
    s = (1 - alpha) / 2 alpha (``wpows`` holds the W_x): Tr ghat_x log A_x
    - Tr ghat_x log sigma / alpha, ghat_x = A_x^alpha / Tr A_x^alpha.
    """
    a, log_scale = _sandwiches(sigma, wpows, (1.0 - alpha) / (2.0 * alpha))
    u, uv = np.linalg.eigh(a)
    f = _log_powers(u, alpha, log_scale)[0]
    w, v = np.linalg.eigh(sigma)
    on = w > max(float(w[-1]), 0.0) * EIG_CUTOFF
    log_sigma = (v[:, on] * np.log(w[on])) @ v[:, on].conj().T
    # <e_j| log sigma |e_j> over the eigenvectors e_j of each A_x
    diag = np.einsum("xij,ik,xkj->xj", uv.conj(), log_sigma, uv).real
    return (f * (np.log(np.where(f > 0.0, u, 1.0)) + log_scale - diag / alpha)).sum(axis=1)


def petz_slope(sigma, outputs, alpha):
    """d log Q_x / d alpha of the Petz Q_x = Tr W_x^alpha sigma^(1-alpha) for
    every symbol, at fixed unit-trace sigma (``outputs`` holds the W_x):
    sum_ij lam_i^alpha mu_j^(1-alpha) |<i|j>|^2 (log lam_i - log mu_j) / Q_x
    over the eigenpairs of W_x and sigma, each sum on its support."""
    (lam, vx), (mu, v) = np.linalg.eigh(outputs), np.linalg.eigh(sigma)
    on_lam, on_mu = lam > lam[:, -1:] * EIG_CUTOFF, mu > mu[-1] * EIG_CUTOFF
    log_lam, log_mu = np.log(np.where(on_lam, lam, 1.0)), np.log(np.where(on_mu, mu, 1.0))
    terms = (np.abs(vx.conj().swapaxes(-1, -2) @ v) ** 2 * on_mu * np.exp((1.0 - alpha) * log_mu)
             * (on_lam * np.exp(alpha * log_lam))[:, :, None])
    return (terms * (log_lam[:, :, None] - log_mu)).sum(axis=(1, 2)) / terms.sum(axis=(1, 2))


def q_sweep(sigma, wpows, z, spow):
    """log Tr (sigma^spow W_x^pow sigma^spow)^z for every symbol (values only)."""
    a, log_scale = _sandwiches(sigma, wpows, spow)
    return _log_powers(np.linalg.eigvalsh(a), z, log_scale)[1]
