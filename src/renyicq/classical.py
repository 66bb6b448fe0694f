"""Scalar reference implementations on probability vectors.

These validate the operator path and share no code with it.  The weighted
(Augustin) radius min_q sum_x w_x D_alpha(p_x || q) is found by a damped
Newton method in the softmax coordinates theta (q = softmax theta), with the
exact gradient and Hessian, run on a whole batch of orders at once.  Each
order stops when the sup norm of its gradient reaches 1e-14 or when no step
is accepted; an order whose gradient is then above 1e-12 raises
NonConvergenceError instead of returning a value.  The exponent suprema use
a dense order grid, solved as one batch, plus bounded scalar refinement.
Everything here works on plain stochastic matrices (one row per input
symbol).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from .exceptions import NonConvergenceError

# Newton steps per order before the order is given up.
_MAX_NEWTON = 100
# An order stops at this gradient sup norm and is certified at the next.
_GTOL_STOP = 1e-14
_GTOL_CERT = 1e-12


def _lse(x):
    """log sum exp over the last axis; scipy's logsumexp costs ~10x more on small arrays."""
    top = x.max(axis=-1, keepdims=True)
    return top[..., 0] + np.log(np.sum(np.exp(x - top), axis=-1))


def _log_q(p, q, alpha: float) -> float:
    """log sum_j p_j^alpha q_j^(1-alpha) over the common support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    on = (p > 0.0) & (q > 0.0)
    if not np.any(on):
        return -math.inf
    return float(_lse(alpha * np.log(p[on]) + (1.0 - alpha) * np.log(q[on])))


def classical_q(p, q, alpha: float) -> float:
    """sum_j p_j^alpha q_j^(1-alpha) over the common support (+inf on overflow)."""
    with np.errstate(over="ignore"):
        return float(np.exp(_log_q(p, q, alpha)))


def classical_divergence(p, q, alpha: float) -> float:
    """Renyi divergence of probability vectors, +inf on support violations."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if alpha == 1.0:
        if np.any((p > 0.0) & (q <= 0.0)):
            return math.inf
        on = p > 0.0
        return float(np.sum(p[on] * (np.log(p[on]) - np.log(q[on]))))
    if alpha > 1.0 and np.any((p > 0.0) & (q <= 0.0)):
        return math.inf
    log_value = _log_q(p, q, alpha)
    if log_value == -math.inf:
        return math.inf
    return log_value / (alpha - 1.0)


def _augustin_objective(logp, weights, alphas, t):
    """F, its gradient in theta and the tilted responsibilities, per order.

    ``t`` holds one normalized log q per row of ``alphas``.  Near alpha = 1
    log Q_x is formed as log1p(sum_j p_xj expm1(s_xj)) with
    s = (alpha - 1) log(p/q), which keeps its relative precision where the
    log-sum-exp form loses about eps/(alpha - 1) of F to cancellation.
    """
    am1 = alphas - 1.0
    on = np.isfinite(logp)
    ratio = np.where(on, logp - t[:, None, :], 0.0)
    s = am1[:, None, None] * ratio
    logterms = logp + s
    log_qx = _lse(logterms)
    r = np.exp(logterms - log_qx[:, :, None])
    grad = np.exp(t) - np.einsum("x,nxj->nj", weights, r)
    near = np.abs(am1) * np.abs(ratio).max(axis=(1, 2)) < 0.5
    if np.any(near):
        log_qx[near] = np.log1p(np.sum(np.exp(logp) * np.expm1(s[near]), axis=2))
    return log_qx @ weights / am1, grad, r


def _newton_direction(t, r, grad, weights, alphas):
    """Solve (H + 11^T) d = -grad; fall back to -grad where d is no descent.

    H = diag(q) - qq^T + (alpha - 1) sum_x w_x (diag(r_x) - r_x r_x^T) is
    the Hessian in theta.  H 1 = 0, and adding 11^T fixes the component
    along 1 that the softmax ignores.
    """
    q = np.exp(t)
    am1 = (alphas - 1.0)[:, None]
    wr = r * weights[None, :, None]
    hess = 1.0 - q[:, :, None] * q[:, None, :] - am1[:, :, None] * (wr.transpose(0, 2, 1) @ r)
    diag = np.arange(q.shape[1])
    # q - grad = sum_x w_x r_x
    hess[:, diag, diag] += q + am1 * (q - grad)
    try:
        d = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return -grad
    descent = np.sum(d * grad, axis=1) < 0.0
    return np.where(descent[:, None], d, -grad)


def _augustin_newton(logp, weights, alphas, t0):
    """Damped Newton from t0 for every order at once; returns F and |grad|_inf.

    A step is accepted on the Armijo test, or when it halves |grad|_inf
    while raising F by at most 1e-15 max(1, |F|): near alpha = 1 F is known
    to a few ulps only, and the Armijo test alone would stall there.  Both
    tests compare the change in F, so a step that leaves F unchanged is
    not accepted.  The step is halved until it moves log q by under 1e-16,
    where no smaller step could change the iterate; an order with no
    accepted step then stops.
    """
    t = np.tile(t0, (len(alphas), 1))
    f, grad, r = _augustin_objective(logp, weights, alphas, t)
    norm = np.abs(grad).max(axis=1)
    active = np.flatnonzero(norm > _GTOL_STOP)
    for _ in range(_MAX_NEWTON):
        if active.size == 0:
            break
        d = _newton_direction(t[active], r[active], grad[active], weights, alphas[active])
        slope = np.sum(d * grad[active], axis=1)
        reach = np.abs(d).max(axis=1)
        step = np.ones(active.size)
        moved = np.zeros(active.size, dtype=bool)
        pending = np.arange(active.size)
        while pending.size:
            idx = active[pending]
            trial = t[idx] + step[pending, None] * d[pending]
            trial -= _lse(trial)[:, None]
            f1, g1, r1 = _augustin_objective(logp, weights, alphas[idx], trial)
            n1 = np.abs(g1).max(axis=1)
            rise = f1 - f[idx]
            ok = np.isfinite(f1) & np.isfinite(n1) & (
                (rise <= 1e-4 * step[pending] * slope[pending])
                | ((n1 <= 0.5 * norm[idx])
                   & (rise <= 1e-15 * np.maximum(1.0, np.abs(f[idx])))))
            took = idx[ok]
            t[took], f[took], grad[took], r[took], norm[took] = (
                trial[ok], f1[ok], g1[ok], r1[ok], n1[ok])
            moved[pending[ok]] = True
            pending = pending[~ok]
            step[pending] *= 0.5
            pending = pending[step[pending] * reach[pending] > 1e-16]
        active = active[moved & (norm[active] > _GTOL_STOP)]
    return f, norm


class ClassicalChannel:
    """A stochastic matrix with an input law, plus cached radius solves."""

    def __init__(self, rows, weights):
        self.rows = np.asarray(rows, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if self.rows.ndim != 2 or len(self.weights) != self.rows.shape[0]:
            raise ValueError("rows and weights are inconsistent")
        if not np.allclose(self.rows.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("rows must be probability vectors")
        if abs(self.weights.sum() - 1.0) > 1e-9 or np.any(self.weights < 0):
            raise ValueError("weights must be a probability vector")
        # alpha -> (radius, sup norm of the gradient at the returned minimizer)
        self._radius = {}
        self._dmax = None
        # Columns some row reaches, and log p on them (-inf off each row's support).
        self._cols = self.rows.max(axis=0) > 0.0
        with np.errstate(divide="ignore"):
            self._logp = np.log(self.rows[:, self._cols])

    @property
    def average(self):
        return self.weights @ self.rows

    def holevo(self) -> float:
        avg = self.average
        return float(sum(w * classical_divergence(row, avg, 1.0)
                         for w, row in zip(self.weights, self.rows) if w > 0.0))

    def sibson_radius(self, alpha: float) -> float:
        """Closed form (alpha/(alpha-1)) log sum_j (sum_x w_x p_xj^alpha)^(1/alpha)."""
        inner = np.einsum("x,xj->j", self.weights, self.rows ** alpha)
        return alpha / (alpha - 1.0) * math.log(float(np.sum(inner ** (1.0 / alpha))))

    def augustin_radius(self, alpha: float) -> float:
        """min_q sum_x w_x D_alpha(p_x || q), certified to |grad|_inf <= 1e-12.

        With theta = log q up to a constant, the gradient is
        g = q - sum_x w_x r_x, where r_xj = p_xj^a q_j^(1-a) / Q_x are the
        tilted responsibilities, and the Hessian is
        H = diag(q) - qq^T + (alpha - 1) sum_x w_x (diag(r_x) - r_x r_x^T).
        From q = P W, damped Newton steps (H + 11^T) d = -g, or -g where d is
        no descent direction (possible for alpha < 1), run until |g|_inf
        <= 1e-14 or no step is accepted.  If |g|_inf is then above 1e-12 the
        order raises NonConvergenceError.  Values are cached with that norm.
        """
        if alpha not in self._radius:
            self._solve([alpha])
        return self._radius[alpha][0]

    def _solve(self, alphas):
        """Solve and cache every order of ``alphas`` not yet cached, as one batch."""
        todo = np.array([a for a in dict.fromkeys(map(float, alphas))
                         if a not in self._radius])
        if todo.size == 0:
            return
        if np.any(todo <= 0.0) or np.any(todo == 1.0):
            raise ValueError("orders must be positive and differ from 1")
        t0 = np.log(np.maximum(self.average[self._cols], 1e-12))
        values, norms = _augustin_newton(self._logp, self.weights, todo, t0 - _lse(t0))
        certified = np.isfinite(values) & (norms <= _GTOL_CERT)
        for alpha, value, norm in zip(todo[certified], values[certified], norms[certified]):
            self._radius[float(alpha)] = (float(value), float(norm))
        if not np.all(certified):
            j = int(np.flatnonzero(~certified)[0])
            raise NonConvergenceError(
                f"Augustin radius at alpha={float(todo[j])!r} not certified: "
                f"|grad|_inf = {norms[j]:.2e} > {_GTOL_CERT:.0e}")

    def dmax_radius(self) -> float:
        """min_q sum_x w_x log max_j (p_xj / q_j), solved exactly.

        In t = log q coordinates with per-row slacks m_x this is a linear
        objective with linear constraints m_x + t_j >= log p_xj plus the
        convex budget sum_j e^{t_j} <= 1; SLSQP solves it to solver
        precision and the exact objective is reported at the normalized
        minimizer.
        """
        if self._dmax is not None:
            return self._dmax
        weights, logp = self.weights, self._logp
        n_x, k = logp.shape

        def objective(y):
            return float(weights @ y[k:])

        jac = np.concatenate([np.zeros(k), weights])
        cons = []
        for x in range(n_x):
            for j in range(k):
                if not math.isfinite(logp[x, j]):
                    continue
                grad = np.zeros(k + n_x)
                grad[j] = 1.0
                grad[k + x] = 1.0
                cons.append({
                    "type": "ineq",
                    "fun": (lambda y, x=x, j=j: y[k + x] + y[j] - logp[x, j]),
                    "jac": (lambda y, g=grad: g),
                })

        def budget(y):
            return 1.0 - float(np.sum(np.exp(y[:k])))

        def budget_jac(y):
            g = np.zeros(k + n_x)
            g[:k] = -np.exp(y[:k])
            return g

        cons.append({"type": "ineq", "fun": budget, "jac": budget_jac})
        t0 = np.log(np.maximum(self.average[self._cols], 1e-12))
        m0 = np.array([np.max(logp[x][np.isfinite(logp[x])] - t0[np.isfinite(logp[x])])
                       for x in range(n_x)]) + 1e-6
        y0 = np.concatenate([t0, m0])
        res = optimize.minimize(objective, y0, jac=lambda y: jac, method="SLSQP",
                                constraints=cons,
                                options={"maxiter": 500, "ftol": 1e-14})
        t = res.x[:k] - math.log(float(np.sum(np.exp(res.x[:k]))))
        exact = float(np.sum(weights * np.array(
            [np.max(logp[x][np.isfinite(logp[x])] - t[np.isfinite(logp[x])])
             for x in range(n_x)]
        )))
        self._dmax = exact
        return exact

    def sc_exponent(self, rate: float) -> float:
        """sup_{alpha>1} (1-1/alpha)(R - augustin_radius(alpha)), clamped at 0.

        Grid of 600 points u = 1 - 1/alpha in [0, 1 - 1/1024], solved as one
        batch, then bounded refinement between the neighbours of the grid
        argmax; the alpha -> inf endpoint is R - dmax_radius.
        """

        def g(u):
            if u <= 0.0:
                return 0.0
            return u * (rate - self.augustin_radius(1.0 / (1.0 - u)))

        us = np.linspace(0.0, 1.0 - 1.0 / 1024.0, 600)
        self._solve(1.0 / (1.0 - us[us > 0.0]))
        gs = [g(u) for u in us]
        j = int(np.argmax(gs))
        lo, hi = us[max(j - 1, 0)], us[min(j + 1, len(us) - 1)]
        res = optimize.minimize_scalar(lambda u: -g(u), bounds=(lo, hi),
                                       method="bounded",
                                       options={"xatol": 1e-11})
        best = max(max(gs), -float(res.fun), rate - self.dmax_radius())
        return max(0.0, best)

    def sphere_packing(self, rate: float) -> float:
        """sup_{alpha in (1e-3, 1)} ((alpha-1)/alpha)(R - augustin_radius).

        Geometric grid of 400 orders, solved as one batch, then bounded
        refinement between the neighbours of the grid argmax.
        """

        def g(a):
            return (a - 1.0) / a * (rate - self.augustin_radius(a))

        grid = np.geomspace(1e-3, 1.0 - 1e-6, 400)
        self._solve(grid)
        gs = [g(a) for a in grid]
        j = int(np.argmax(gs))
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
        res = optimize.minimize_scalar(lambda a: -g(a), bounds=(lo, hi),
                                       method="bounded",
                                       options={"xatol": 1e-12})
        return max(0.0, max(gs), -float(res.fun))
