"""Direct search over states in a Cholesky parametrization.

A state is sigma = L L^* / Tr(L L^*) with L complex lower triangular, packed
into k^2 reals: the real diagonal, then the real and the imaginary parts of
the strict lower triangle (row-major).  `minimize_states` is the one
multistart Nelder-Mead behind the package's direct minimizations.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

_RANDOM_START_SEED = 7


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


def minimize_states(f, starts, maxfev: int = 20000):
    """Minimize ``f`` over k x k states by multistart Nelder-Mead.

    ``f`` receives a unit-trace PSD matrix.  A factor whose trace is not
    positive and finite, or a non-finite value of ``f``, scores 1e300.  The
    searches start from each distinct matrix in ``starts`` (PSD, any
    positive trace), then from I/k and a random state of a fixed seed.
    Each search starts from a simplex stepped by 5% of max|x0| along every
    coordinate of the packed start x0, so that the exact zeros of a diagonal
    start's factor move too, and stops at 1e-10 in the packed factor and
    1e-14 in value.  Returns (sigma, f(sigma)) for the unit-trace sigma with
    the least value.
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
        x0 = pack(factor(s))
        simplex = np.vstack([x0, x0 + 0.05 * np.abs(x0).max() * np.eye(len(x0))])
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-14,
                                "initial_simplex": simplex})
        if res.fun < best_f:
            best_x, best_f = res.x, res.fun
    return state(best_x), float(best_f)
