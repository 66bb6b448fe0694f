"""Quasi-Newton searches over states in a Cholesky parametrization.

A state is sigma = L L^* / Tr(L L^*) with L complex lower triangular, packed
into k^2 reals: the real diagonal, then the real and the imaginary parts of
the strict lower triangle (row-major).  Every search over states in the
package is one scipy BFGS call, `_bfgs`: `minimize_states` (multistart,
finite-difference gradients) for the direct minimizations, and
`minimize_dmax` (exact gradients on a smoothing) for the alpha -> inf radius.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

_RANDOM_START_SEED = 7

# Temperatures T of the smoothed `minimize_dmax` solve, whose bias is at most
# log(d)/T.  The last one repeats: a BFGS run stopped by a line-search
# precision loss resumes from its point with a fresh Hessian model.
_CHI_INF_TEMPS = (50.0, 5e3, 5e5, 5e7, 5e9, 5e10, 5e10, 5e10)


@lru_cache(maxsize=None)
def _layout(k):
    return np.diag_indices(k), np.tril_indices(k, -1)


def pack(ell) -> np.ndarray:
    """Real vector of the lower triangle of ``ell``."""
    diag, tril = _layout(ell.shape[0])
    return np.concatenate([ell[diag].real, ell[tril].real, ell[tril].imag])


def unpack(theta) -> np.ndarray:
    """Complex lower-triangular k x k matrix from a packed vector of length k^2."""
    k = math.isqrt(len(theta))
    diag, tril = _layout(k)
    n = len(tril[0])
    ell = np.zeros((k, k), dtype=complex)
    ell[diag] = theta[:k]
    ell[tril] = theta[k:k + n] + 1j * theta[k + n:]
    return ell


def factor(sigma) -> np.ndarray:
    """Cholesky factor of a PSD matrix, jittered by 1e-12 max(Tr sigma, 1) so
    that rank-deficient states factor too."""
    jitter = max(float(np.trace(sigma).real), 1.0) * 1e-12
    return np.linalg.cholesky(sigma + jitter * np.eye(sigma.shape[0]))


def _bfgs(fun, x0, jac=None, args=()):
    """scipy's BFGS from x0 to gradient norm 1e-10 (finite differences unless jac)."""
    return minimize(fun, x0, args=args, jac=jac, method="BFGS", options={"gtol": 1e-10})


def minimize_states(f, starts):
    """Minimize ``f`` over k x k states by multistart BFGS.

    ``f`` receives a unit-trace PSD matrix.  A factor whose trace is not
    positive and finite, or a non-finite value of ``f``, scores 1e300.  The
    searches start from the packed factor of each distinct matrix in
    ``starts`` (PSD, any positive trace), then of I/k and of a random state
    of a fixed seed, and take finite-difference gradients in the packed
    factor.  Returns (sigma, f(sigma)) for the unit-trace sigma with the
    least value.
    """
    k = starts[0].shape[0]
    rng = np.random.default_rng(_RANDOM_START_SEED)
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    rand = g @ g.conj().T
    distinct = []
    for s in [*starts, np.eye(k) / k, rand / float(np.trace(rand).real)]:
        if not any(np.array_equal(s, t) for t in distinct):
            distinct.append(s)

    def state(theta):
        ell = unpack(theta)
        sigma = ell @ ell.conj().T
        tr = float(np.trace(sigma).real)
        return sigma / tr if 0.0 < tr < math.inf else None

    def objective(theta):
        sigma = state(theta)
        val = math.nan if sigma is None else f(sigma)
        return val if math.isfinite(val) else 1e300

    best_x, best_f = None, math.inf
    for s in distinct:
        res = _bfgs(objective, pack(factor(s)))
        if res.fun < best_f:
            best_x, best_f = res.x, res.fun
    return state(best_x), float(best_f)


def minimize_dmax(mats, probs, start):
    """min over states sigma of F(sigma) = sum_x p_x log lambda_max(sigma^{-1/2} W_x sigma^{-1/2}).

    F is convex in sigma, so every local minimum is global.  With sigma =
    L L^* (L lower triangular) the generalized eigenpairs W_x v = lambda
    sigma v come from one ``eigh`` of L^{-1} W_x L^{-*}, normalized so that
    v^* sigma v = 1, and d log lambda = -v^* (d sigma) v is exact.  BFGS
    minimizes the log-sum-exp smoothing F_T (bias at most log(d)/T) plus
    Tr sigma: F_T(c sigma) = F_T(sigma) - log c, so the minimizer has unit
    trace without a constraint.  T rises through ``_CHI_INF_TEMPS``.

    The weighted sum of ``mats`` and ``start`` must be positive definite.
    Each stage starts from the best state so far.  The ladder ends at the
    first stage that takes no step, whose start is then a minimum of F_T to
    working precision: no later stage moves from it (none did in 240
    searches on random and commuting channels, d = 2..4), and each may spend
    about 50 evaluations failing its line search.  Returns (F(sigma), sigma)
    for the unit-trace sigma with the smallest exact F seen, the start
    included.
    """
    def eigenpairs(ell):
        linv = np.linalg.inv(ell)
        lam, u = np.linalg.eigh(linv @ mats @ linv.conj().T)
        return linv, lam, u

    def smoothed(theta, temp):
        ell = unpack(theta)
        try:
            linv, lam, u = eigenpairs(ell)
        except np.linalg.LinAlgError:
            return math.inf, np.zeros_like(theta)
        top = lam[:, -1]
        if not (np.all(np.isfinite(lam)) and top.min() > 0.0):
            return math.inf, np.zeros_like(theta)
        with np.errstate(divide="ignore"):
            tilt = np.exp(temp * (np.log(np.maximum(lam, 0.0)) - np.log(top)[:, None]))
        norm = tilt.sum(axis=1)
        value = float(probs @ (np.log(top) + np.log(norm) / temp)) + float(theta @ theta)
        # Gradient in sigma: I - sum_x p_x sum_i softmax_i v_i v_i^*; with
        # v = L^{-*} u its pull-back to L is 2 (L - L^{-*} A).
        a = np.einsum("xij,xj,xkj->ik", u, (probs / norm)[:, None] * tilt, u.conj())
        g = 2.0 * (ell - linv.conj().T @ a)
        return value, pack(g)

    def exact(ell):
        ell = ell / math.sqrt(float(np.sum(np.abs(ell) ** 2)))
        try:
            top = eigenpairs(ell)[1][:, -1]
        except np.linalg.LinAlgError:
            return math.inf
        return float(probs @ np.log(top)) if top.min() > 0.0 else math.inf

    ell = factor(start / float(np.trace(start).real))
    best, best_ell = exact(ell), ell
    for temp in _CHI_INF_TEMPS:
        res = _bfgs(smoothed, pack(best_ell), jac=True, args=(temp,))
        if res.nit == 0:
            break
        ell = unpack(res.x)
        value = exact(ell)
        if value < best:
            best, best_ell = value, ell
    sigma = best_ell @ best_ell.conj().T
    return best, sigma / float(np.trace(sigma).real)
