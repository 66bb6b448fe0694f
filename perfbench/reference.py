"""Reference computations the benchmark checks the program against.

Written with numpy and scipy only; nothing here imports ``renyicq``.  States
are plain complex (d, d) arrays.  The second argument of every divergence
must be full rank (positive definite); the first may be any PSD matrix.
All logarithms are natural.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize
from scipy.special import logsumexp

# Eigenvalues below this share of the largest one count as zero.
EIG_RTOL = 1e-13


def _eigh(a):
    a = np.asarray(a, dtype=complex)
    return np.linalg.eigh(0.5 * (a + a.conj().T))


def mpow(a, x):
    """a**x for a positive definite matrix a."""
    w, v = _eigh(a)
    if w[0] <= 0.0:
        raise ValueError("mpow needs a positive definite matrix")
    return (v * w ** x) @ v.conj().T


def _log_power_trace(a, power):
    """log Tr a**power over the positive part of a PSD matrix, overflow-free."""
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    top = float(w[-1])
    if top <= 0.0:
        raise ValueError("power trace of a zero matrix")
    w = w[w > top * EIG_RTOL]
    return power * math.log(top) + math.log(float(np.sum((w / top) ** power)))


def relative_entropy(rho, sigma) -> float:
    """Tr rho (log rho - log sigma) / Tr rho; sigma positive definite."""
    rho = np.asarray(rho, dtype=complex)
    tr = float(np.trace(rho).real)
    w, _ = _eigh(rho)
    w = w[w > float(w[-1]) * EIG_RTOL]
    ws, vs = _eigh(sigma)
    if ws[0] <= 0.0:
        raise ValueError("relative_entropy needs a positive definite sigma")
    log_sigma = (vs * np.log(ws)) @ vs.conj().T
    cross = float(np.trace(rho @ log_sigma).real)
    return (float(np.sum(w * np.log(w))) - cross) / tr


def sandwiched(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence (1/(alpha-1)) log Tr (s rho s)^alpha / Tr rho,
    s = sigma^((1-alpha)/(2 alpha)); alpha = 1 is the relative entropy."""
    if alpha == 1.0:
        return relative_entropy(rho, sigma)
    rho = np.asarray(rho, dtype=complex)
    s = mpow(sigma, (1.0 - alpha) / (2.0 * alpha))
    log_q = _log_power_trace(s @ rho @ s, alpha)
    return (log_q - math.log(float(np.trace(rho).real))) / (alpha - 1.0)


def d_max(rho, sigma) -> float:
    """log of the largest eigenvalue of sigma^-1/2 (rho / Tr rho) sigma^-1/2."""
    rho = np.asarray(rho, dtype=complex)
    s = mpow(sigma, -0.5)
    m = s @ (rho / float(np.trace(rho).real)) @ s
    return math.log(float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1]))


def entropy(rho) -> float:
    """von Neumann entropy -Tr rho log rho of a state."""
    w, _ = _eigh(rho)
    w = w[w > float(w[-1]) * EIG_RTOL]
    return -float(np.sum(w * np.log(w)))


def average(states, probs):
    return np.einsum("x,xij->ij", np.asarray(probs, dtype=float),
                     np.asarray(states, dtype=complex))


def holevo(states, probs) -> float:
    """S(sum_x P(x) W_x) - sum_x P(x) S(W_x)."""
    return entropy(average(states, probs)) - float(
        sum(p * entropy(s) for s, p in zip(states, probs) if p > 0.0))


def radius_objective(states, probs, sigma, alpha: float) -> float:
    """F(sigma) = sum_x P(x) D~_alpha(W_x || sigma), sandwiched rule."""
    return float(sum(p * sandwiched(s, sigma, alpha)
                     for s, p in zip(states, probs) if p > 0.0))


def weighted_d_max(states, probs, sigma) -> float:
    """sum_x P(x) D_max(W_x || sigma)."""
    return float(sum(p * d_max(s, sigma) for s, p in zip(states, probs) if p > 0.0))


def random_traceless(rng, d):
    """A traceless Hermitian direction of unit Frobenius norm."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    h -= np.trace(h).real / d * np.eye(d)
    return h / np.linalg.norm(h)


def directional_derivative(f, sigma, direction, step: float):
    """Central difference of f along direction at sigma, with the second
    difference: (first derivative, second derivative)."""
    f0 = f(sigma)
    fp = f(sigma + step * direction)
    fm = f(sigma - step * direction)
    return (fp - fm) / (2.0 * step), (fp + fm - 2.0 * f0) / step ** 2


def haar_unitary(rng, d):
    """Haar-random unitary from the QR factorization of a Ginibre matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


# ---------------------------------------------------------------------------
# Classical (commuting) quantities on stochastic matrices, one row per symbol
# ---------------------------------------------------------------------------

def classical_renyi(p, q, alpha: float) -> float:
    """Renyi divergence of probability vectors with q > 0, overflow-free."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    on = p > 0.0
    logp, logq = np.log(p[on]), np.log(q[on])
    if alpha == 1.0:
        return float(np.sum(p[on] * (logp - logq)))
    return float(logsumexp(alpha * logp + (1.0 - alpha) * logq)) / (alpha - 1.0)


def sibson_radius(rows, weights, alpha: float) -> float:
    """Sibson's closed form (alpha/(alpha-1)) log sum_j (sum_x w_x p_xj^alpha)^(1/alpha)."""
    inner = np.asarray(weights, dtype=float) @ (np.asarray(rows, dtype=float) ** alpha)
    return alpha / (alpha - 1.0) * math.log(float(np.sum(inner ** (1.0 / alpha))))


def sibson_by_definition(rows, weights, alpha: float) -> float:
    """min_q (1/(alpha-1)) log sum_x w_x sum_j p_xj^alpha q_j^(1-alpha), by
    Nelder-Mead over softmax coordinates of q."""
    rows = np.asarray(rows, dtype=float)
    weights = np.asarray(weights, dtype=float)

    def objective(theta):
        q = np.exp(theta - theta.max())
        q /= q.sum()
        total = float(weights @ (rows ** alpha @ q ** (1.0 - alpha)))
        return math.log(total) / (alpha - 1.0)

    theta0 = np.log(weights @ rows)
    res = optimize.minimize(objective, theta0, method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-15, "maxfev": 20000})
    return float(res.fun)
