"""Scalar reference implementations on probability vectors.

These validate the operator path and share no code with it: weighted radii
are found by BFGS on a softmax parametrization with an analytic gradient,
and the exponent suprema use a dense order grid plus bounded scalar
refinement.  Everything here works on plain stochastic matrices (one row
per input symbol).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize
from scipy.special import logsumexp


def classical_q(p, q, alpha: float) -> float:
    """sum_j p_j^alpha q_j^(1-alpha) over the common support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    on = (p > 0.0) & (q > 0.0)
    return float(np.sum(p[on] ** alpha * q[on] ** (1.0 - alpha)))


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
    value = classical_q(p, q, alpha)
    if value <= 0.0:
        return math.inf
    return math.log(value) / (alpha - 1.0)


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
        self._radius = {}
        self._dmax = None

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
        """min_q sum_x w_x D_alpha(p_x || q) by softmax-BFGS with analytic gradient.

        Everything is kept in the log domain: with t = log q, the gradient in
        the softmax parameter is q - sum_x w_x r_x where r_xj are the
        tilted responsibilities p_xj^a q_j^(1-a) / Q_x.
        """
        cached = self._radius.get(alpha)
        if cached is not None:
            return cached
        weights = self.weights
        cols = self.rows.max(axis=0) > 0.0
        sub = self.rows[:, cols]
        with np.errstate(divide="ignore"):
            logp = np.where(sub > 0.0, np.log(np.maximum(sub, 1e-300)), -np.inf)

        def fun_grad(theta):
            t = theta - logsumexp(theta)
            logterms = np.where(np.isfinite(logp),
                                alpha * logp + (1.0 - alpha) * t[None, :], -np.inf)
            log_qx = logsumexp(logterms, axis=1)
            f = float(weights @ log_qx) / (alpha - 1.0)
            r = np.exp(logterms - log_qx[:, None])
            grad = np.exp(t) - weights @ r
            return f, grad

        theta0 = np.log(np.maximum(self.average[cols], 1e-12))
        res = optimize.minimize(fun_grad, theta0, jac=True, method="BFGS",
                                options={"gtol": 1e-13, "maxiter": 2000})
        res = optimize.minimize(fun_grad, res.x, jac=True, method="BFGS",
                                options={"gtol": 1e-13, "maxiter": 2000})
        value = float(res.fun)
        self._radius[alpha] = value
        return value

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
        rows, weights = self.rows, self.weights
        cols = rows.max(axis=0) > 0.0
        sub = rows[:, cols]
        n_x, k = sub.shape
        with np.errstate(divide="ignore"):
            logp = np.where(sub > 0.0, np.log(np.maximum(sub, 1e-300)), -np.inf)

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
        t0 = np.log(np.maximum(self.average[cols], 1e-12))
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

        Grid of 600 points u = 1 - 1/alpha in [0, 1 - 1/1024], then bounded
        refinement between the neighbours of the grid argmax; the alpha ->
        inf endpoint is R - dmax_radius.
        """

        def g(u):
            if u <= 0.0:
                return 0.0
            return u * (rate - self.augustin_radius(1.0 / (1.0 - u)))

        us = np.linspace(0.0, 1.0 - 1.0 / 1024.0, 600)
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

        Geometric grid of 400 orders, then bounded refinement between the
        neighbours of the grid argmax.
        """

        def g(a):
            return (a - 1.0) / a * (rate - self.augustin_radius(a))

        grid = np.geomspace(1e-3, 1.0 - 1e-6, 400)
        gs = [g(a) for a in grid]
        j = int(np.argmax(gs))
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
        res = optimize.minimize_scalar(lambda a: -g(a), bounds=(lo, hi),
                                       method="bounded",
                                       options={"xatol": 1e-12})
        return max(0.0, max(gs), -float(res.fun))
