"""Weighted divergence centers and radii of gcq channels.

Every D and Q-bar center solve runs through `CenterProblem.solve`, whose
result carries the sweep that certified it (``CenterResult.log_q``).  A
`CenterProblem` restricts (W, P) to the support of W(P) once: the isometry,
the compressed start W(P), log Tr W_x and the compressed powers
W_x^(alpha/z), kept per exponent.  It is also the memo the exponents read
(``exponents.RadiusCache``): each order's radius and slope, the Holevo
quantity, the Petz divergences at W(P) and the alpha -> inf endpoint, so
only this module knows the compression and the sweep kernel.
`solve_center_D` and `solve_center_Qbar` build one per call,
`divergence_radius` one per ascent round.

The D and the Q-bar center are solved by one loop, `_run_fixed_point`:
safeguarded Anderson mixing over the damped center map, on unit-trace
iterates, which falls back to the plain damped step whenever a mixed
iterate leaves the positive-definite cone or raises the residual.  The
mixing (`_Anderson`) keeps at most min(_ANDERSON_DEPTH, k^2 - 1) residual
differences in preallocated arrays and fits them by Cholesky of their Gram
matrix, so a sweep costs the kernel plus a few small array operations.
Nothing here assumes the iteration contracts, so results carry an explicit
``converged`` flag plus the trace-norm fixed-point residual.  Every solve
has the budgets DEFAULT_TOL on that residual and DEFAULT_MAX_ITER sweeps,
read at call time; one that runs out of sweeps returns its last iterate,
flagged.  The unnormalized Tsallis map is homogeneous of the same degree
1 - alpha as the Q-bar map, so the Tsallis center is the Q-bar center
rescaled once, not a third iteration.  Its scale, like
`mutual_information`, comes from log sum_x P(x) Q_x taken by log-sum-exp of
the Q-bar solve's ``log_q``, finite at orders where the sum itself
overflows.  Every map, on the compressed support during a solve and on the
full space in the public ``fixed_point_map_*``, is assembled by `_assemble`
from one call of the log-domain sweep kernel ``backend.center_sweep``.  Each
solve reports the radius that `_radius` reads off the sweep of its returned
center: F at that state, so an upper bound on the radius whether or not the
solve converged.
`divergence_radius` reads every D(W_x||sigma) of a round off the same sweep,
its solve's ``log_q`` (`_symbol_divergences`).

`solve_center_direct`, `mutual_information_direct` and
`weighted_radius_beta` for 1 < beta < inf search states by the multistart
BFGS of ``optimize.minimize_states``.  A brute-force oracle
(`oracle_grid_center`) provides an independent check at small dimension.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.special import logsumexp

from . import backend
from .channels import GcqChannel, InputDistribution, average_output, lifted_state
from .divergences import RenyiParams, classify_region, d_alpha_z, umegaki
from .exceptions import NonConvergenceError, SingularInputError
from .operators import (
    DensityOperator,
    HermitianOperator,
    herm,
    support_isometry,
    support_power,
    support_projection,
    trace_norm,
)
from .optimize import factor, minimize_dmax, minimize_states, pack, unpack

FIXED_POINT = "fixed_point"
CLOSED_FORM_Z1 = "closed_form_z1"
DIRECT_MINIMIZATION = "direct_minimization"
ORACLE_GRID = "oracle_grid"

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000
RADIUS_TOL = 1e-6

# Damping: gamma = min(1, 1/alpha) (the multiplier of the linearized map is
# 1-alpha on commuting directions); for alpha < 0.1 it switches after 40
# sweeps to the extrapolation 1/alpha, capped, since the loop refuses an
# extrapolated step that is not safely positive definite and a larger step
# seldom is: uncapped, the Petz alpha = 0.001 D solve on random:8:3:3 takes
# 493 sweeps instead of 72, nearly all of them plain.
_GAMMA_CAP = 50.0

# Anderson mixing (Walker & Ni 2011): residual differences kept at most
# (`_Anderson` keeps min(6, k^2 - 1)), and the relative smallest eigenvalue
# a mixed iterate needs to be accepted.
_ANDERSON_DEPTH = 6
_PD_RTOL = 1e-12

_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_HUGE = math.log(np.finfo(float).max)


@dataclass
class CenterResult:
    """Outcome of a center solve.

    ``residual`` is the trace-norm fixed-point defect at the returned
    center; ``converged`` implies residual <= DEFAULT_TOL.  ``heuristic`` marks
    solves outside the proven parameter region.  ``log_q`` is the sweep that
    certified a fixed-point solve: log Q_{alpha,z}(W_x || sigma) for each
    symbol of ``p.support`` at the returned unit-trace center sigma, the
    numbers its ``value`` is read off.  The closed form, the direct searches,
    the oracle and the Tsallis rescale leave it None.
    """

    center: HermitianOperator
    value: float
    iterations: int
    residual: float
    converged: bool
    method: str
    heuristic: bool = False
    log_q: np.ndarray | None = field(default=None, repr=False, compare=False)

    def require_converged(self, params: RenyiParams) -> "CenterResult":
        """Return self, or raise NonConvergenceError naming ``params``."""
        if not self.converged:
            raise NonConvergenceError(
                f"center solve did not converge at alpha={params.alpha}, "
                f"z={params.z} (residual {self.residual:.2e})"
            )
        return self


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

def _powered_outputs(w: GcqChannel, symbols, exponent: float) -> np.ndarray:
    """The stacked W(x)^exponent of ``symbols``, taken on each support.

    A power whose largest eigenvalue underflows is refused with a
    ValueError, as `support_power` refuses one that overflows: the solvers
    would read the zero matrix as a vanishing overlap.
    """
    for s in symbols:
        top = float(w.output(s).eigenvalues[-1])
        if top > 0.0 and exponent * math.log(top) < _LOG_TINY:
            raise ValueError(f"W({s!r})^{exponent:g} underflows double precision")
    return np.stack([support_power(w.output(s), exponent).mat for s in symbols])


def _assemble(kind, ghat, logq, probs):
    """One center map from a sweep's normalized terms ghat[x] = G_x / Tr G_x.

    D weighs them by P(x) and Q-bar by P(x) Tr G_x / sum_y P(y) Tr G_y, the
    two maps the solvers iterate; "T", the unnormalized Tsallis map of
    `fixed_point_map_tsallis`, by P(x) Tr G_x.
    """
    if kind == "D":
        weights = probs
    elif kind == "Qbar":
        log_weights = np.log(probs) + logq
        weights = np.exp(log_weights - log_weights.max())
        weights /= weights.sum()
    else:
        weights = probs * np.exp(logq)
    return (weights @ ghat.reshape(len(weights), -1)).reshape(ghat.shape[1:])


def _safely_definite(cand):
    """Whether the Hermitian cand - _PD_RTOL Tr(cand) I is positive definite.

    One Cholesky attempt.  Since lambda_max <= Tr for a positive definite
    matrix, a candidate that passes has lambda_min > _PD_RTOL lambda_max; the
    test is stricter than that ratio by at most a factor of k.
    """
    tr = float(cand.trace().real)
    shifted = cand - (_PD_RTOL * tr) * np.eye(len(cand))
    return lapack.zpotrf(shifted, lower=1, clean=0)[1] == 0


class _Anderson:
    """The history and the fit of the Anderson mixing in `_run_fixed_point`.

    Iterates x and damped images g = x + gamma (Phi(x) - x) are handled as real
    vectors (the real and imaginary parts of the k x k matrices).  The history
    holds the differences of consecutive residuals f = g - x and images in the
    columns of two preallocated (2k^2, m) arrays, written as a ring.  Unit-trace
    Hermitian k x k iterates differ within a real space of dimension k^2 - 1,
    so the width is m = min(_ANDERSON_DEPTH, k^2 - 1): more columns would be
    dependent by construction.  At k = 1 the width is 0 and no mixed step is
    ever formed.
    """

    def __init__(self, k):
        n = 2 * k * k
        self.width = min(_ANDERSON_DEPTH, k * k - 1)
        self.df = np.empty((n, self.width))
        self.dg = np.empty((n, self.width))
        self.clear()

    def clear(self):
        """Drop the whole history, the newest pair too."""
        self.cols = 0
        self.slot = 0
        self.f = self.g = None

    def fit(self, f):
        """theta minimizing |dF theta - f| over the held columns, or None.

        Cholesky of the Gram matrix dF^T dF, whose factor is the R of dF's QR,
        then two triangular solves.  A failed factorization means dependent
        columns.
        """
        df = self.df[:, :self.cols]
        factor, info = lapack.dpotrf(df.T @ df, lower=0, clean=0)
        if info:
            return None
        return lapack.dpotrs(factor, df.T @ f)[0]

    def step(self, sigma, step):
        """Anderson-mixed successor of sigma, or None for the plain damped step.

        ``step`` is the damped image g(sigma).  The pair's differences from the
        previous pair enter the history, replacing the oldest column once it
        is full.  With theta the least-squares fit of the newest residual by
        the residual differences, the candidate is g - (Delta g) theta.  A
        candidate that is not finite and safely positive definite
        (`_safely_definite`), or a failed fit, resets the history to the
        newest pair.
        """
        x = sigma.ravel().view(float)
        g = step.ravel().view(float)
        f = g - x
        if self.f is not None and self.width:
            np.subtract(f, self.f, out=self.df[:, self.slot])
            np.subtract(g, self.g, out=self.dg[:, self.slot])
            self.slot = (self.slot + 1) % self.width
            self.cols = min(self.cols + 1, self.width)
        self.f, self.g = f, g
        if not self.cols:
            return None
        theta = self.fit(f)
        if theta is not None:
            cand = (g - self.dg[:, :self.cols] @ theta).view(complex).reshape(step.shape)
            cand = 0.5 * (cand + cand.conj().T)
            if np.isfinite(cand).all() and _safely_definite(cand):
                return cand
        self.cols = self.slot = 0
        return None


def _run_fixed_point(wpows, probs, sigma0, z, spow, alpha, kind):
    """Safeguarded Anderson iteration of the D or the Q-bar center map over
    unit-trace iterates on the compressed space.

    The base step is the damped map g(sigma) = sigma + gamma (Phi(sigma) - sigma)
    with the fixed gamma above; Anderson mixing over the recent damped steps,
    at most min(_ANDERSON_DEPTH, k^2 - 1) residual differences fitted by a
    Gram-Cholesky least squares (`_Anderson`), replaces it whenever the mixed
    iterate is safely positive definite (`_safely_definite`).  The alpha < 0.1
    extrapolation (gamma > 1) passes the same test or gives way to the plain
    step Phi(sigma), so no step leaves the state space or is projected back
    onto it.  A mixed step whose residual grows by more than 1.25x is undone
    and the history dropped, the one undo; the step after it is plain, and
    plain steps are always kept.  The one stop test is the trace-norm
    residual of the iterate, computed only once its Frobenius norm, never
    larger, is within DEFAULT_TOL, and an iterate that is safely positive
    definite.  The map keeps supp sigma, so a rank-deficient iterate can be
    its fixed point on a face of the state space; above order 1 that is never
    the center, since every D(W_x||sigma) off supp W(P) is +inf, and below 1
    F does not rule it out, so the loop never stops there.  ``iterations``
    counts sweeps, at most DEFAULT_MAX_ITER.

    Returns (sigma, logq, iterations, trace-norm residual, converged), where
    logq is the sweep of the returned sigma itself, so `_radius` reads the
    solve's value off it.
    """
    sigma = sigma0 / float(np.trace(sigma0).real)
    gamma = min(1.0, 1.0 / alpha)
    history = _Anderson(sigma.shape[0])
    mixed = False
    it = 0
    while it < DEFAULT_MAX_ITER:
        it += 1
        ghat, logq = backend.center_sweep(sigma, wpows, z, spow)
        if np.isneginf(logq).any():
            raise SingularInputError(
                "a supported symbol has vanishing overlap with the iterate"
            )
        diff = _assemble(kind, ghat, logq, probs) - sigma
        res_f = float(np.linalg.norm(diff))
        if res_f <= DEFAULT_TOL:
            tn = trace_norm(diff)
            if tn <= DEFAULT_TOL and _safely_definite(sigma):
                return sigma, logq, it, tn, True

        if mixed and not res_f <= prev_res * 1.25:
            # Undo the mixed step; the previous iterate's sweep is still at hand.
            sigma, diff, res_f = prev_sigma, prev_diff, prev_res
            history.clear()
        if alpha < 0.1 and gamma == 1.0 and it >= 40:
            gamma = min(1.0 / alpha, _GAMMA_CAP)

        prev_sigma, prev_diff, prev_res = sigma, diff, res_f
        step = sigma + gamma * diff
        if gamma > 1.0 and not _safely_definite(step):
            step = sigma + diff
        step = 0.5 * (step + step.conj().T)
        cand = history.step(sigma, step)
        mixed = cand is not None
        sigma = cand if mixed else step
        sigma = sigma / float(np.trace(sigma).real)

    ghat, logq = backend.center_sweep(sigma, wpows, z, spow)
    phi = _assemble(kind, ghat, logq, probs)
    return sigma, logq, it, trace_norm(phi - sigma), False


def weighted_divergence(w: GcqChannel, p: InputDistribution, params: RenyiParams,
                        sigma) -> float:
    """F(sigma) = sum_x P(x) D_{alpha,z}(W(x) || sigma)."""
    sigma = herm(sigma)
    total = 0.0
    for sym, prob in p.items():
        if prob == 0.0:
            continue
        total += prob * d_alpha_z(w.output(sym), sigma, params)
    return total


def _require_finite_z(params, op):
    params.require_not_one(op)
    if params.is_log_euclidean:
        raise ValueError(f"{op} requires finite z; use solve_center_direct for z=inf")


# ---------------------------------------------------------------------------
# Fixed-point maps (public, full-space, single step)
# ---------------------------------------------------------------------------

def _check_support_match(sigma, w, p):
    proj_sigma = support_projection(herm(sigma)).mat
    proj_avg = support_projection(average_output(w, p)).mat
    if float(np.linalg.norm(proj_sigma - proj_avg)) > 1e-6:
        raise ValueError("sigma must have the same support as W(P)")


def _full_space_map(kind, w, p, params, sigma, op):
    """One step of a center map on the full space, by the solvers' kernel."""
    _require_finite_z(params, op)
    sigma = herm(sigma)
    if not sigma.is_psd():
        raise ValueError(f"{op} requires a PSD sigma")
    if kind != "T":
        _check_support_match(sigma, w, p)
    symbols = p.support
    probs = np.array([p.probability(s) for s in symbols])
    a, z = params.alpha, params.z
    wpows = _powered_outputs(w, symbols, a / z)
    ghat, logq = backend.center_sweep(sigma.mat, wpows, z, (1.0 - a) / (2.0 * z))
    if kind != "T" and np.isneginf(logq).any():
        sym = symbols[int(np.argmax(np.isneginf(logq)))]
        raise SingularInputError(f"Q vanished for supported symbol {sym!r}")
    if kind == "T" and logsumexp(logq, b=probs) > _LOG_HUGE:
        raise ValueError(f"the Tsallis map at alpha={a:g} overflows double precision")
    return _assemble(kind, ghat, logq, probs)


def fixed_point_map_D(w: GcqChannel, p: InputDistribution, params: RenyiParams,
                      sigma: DensityOperator) -> DensityOperator:
    """One application of the per-symbol-normalized center map.

    Phi(sigma) = sum_x P(x) Q_x^{-1} (sigma^{(1-a)/2z} W(x)^{a/z}
    sigma^{(1-a)/2z})^z; trace preserving.
    """
    return DensityOperator(_full_space_map("D", w, p, params, sigma, "fixed_point_map_D"))


def fixed_point_map_Qbar(w: GcqChannel, p: InputDistribution, params: RenyiParams,
                         sigma: DensityOperator) -> DensityOperator:
    """One application of the globally-normalized center map."""
    return DensityOperator(
        _full_space_map("Qbar", w, p, params, sigma, "fixed_point_map_Qbar"))


def fixed_point_map_tsallis(w: GcqChannel, p: InputDistribution, params: RenyiParams,
                            sigma: HermitianOperator) -> HermitianOperator:
    """One application of the unnormalized (PSD power-mean) map."""
    return HermitianOperator(
        _full_space_map("T", w, p, params, sigma, "fixed_point_map_tsallis"))


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

class CenterProblem:
    """The weighted center problem of (W, P), restricted to supp W(P) once,
    and the memo of its radii (``exponents.RadiusCache``).

    Holds the isometry V onto the support of W(P), the supported symbols and
    their probabilities, the compressed start V* W(P) V (Hermitian part), log
    Tr W_x, and the compressed powers V* W_x^(alpha/z) V, built on first use
    and kept per exponent alpha/z.  Every D and Q-bar center solve runs
    through :meth:`solve`.  :meth:`result` memoizes the D solve of an order,
    z = alpha (sandwiched) above 1 and z = 1 (Petz) below, warm-started from
    the nearest cached order on its side of 1.  A converged order also keeps
    ``slopes[alpha]`` = f'(u) of f(u) = u chi_alpha, u = 1 - 1/alpha: by the
    envelope theorem, alpha sum_x P(x) d log Q_x/d alpha - sum_x P(x) (log Q_x
    - log Tr W_x) at its center (``backend.alpha_slope`` above 1,
    ``petz_slope`` below).  A failed order keeps its message and raises it
    again without another solve.
    """

    def __init__(self, w: GcqChannel, p: InputDistribution):
        self.w = w
        self.p = p
        self.average = average_output(w, p)
        self.iso = support_isometry(self.average)
        self.symbols = p.support
        self.probs = np.array([p.probability(s) for s in self.symbols])
        start = self.compress(self.average.mat)
        self.start = 0.5 * (start + start.conj().T)
        self.log_traces = np.log([w.output(s).trace() for s in self.symbols])
        self._powers = {}
        self._results = {}
        self._failures = {}
        self._petz = {}
        self.slopes = {}
        self.petz_slopes = {}
        self._holevo = None
        self._chi_inf = None
        self.chi_inf_center = None

    def compress(self, mat):
        """V* mat V, for one matrix or a stack."""
        return self.iso.conj().T @ mat @ self.iso

    def embed(self, sigma):
        """V sigma V*, back on the full space."""
        return self.iso @ sigma @ self.iso.conj().T

    def powers(self, exponent: float) -> np.ndarray:
        """The stacked V* W_x^exponent V."""
        wpows = self._powers.get(exponent)
        if wpows is None:
            wpows = self.compress(_powered_outputs(self.w, self.symbols, exponent))
            self._powers[exponent] = wpows
        return wpows

    def solve(self, params: RenyiParams, kind: str, sigma0=None) -> CenterResult:
        """The D or the Q-bar center: the fixed-point solve on the compressed
        support, from V* sigma0 V (Hermitian part) or else from W(P).  A
        state sigma0, or a CenterResult's center, whose V* sigma0 V is not
        safely positive definite raises ValueError: the map keeps supp sigma,
        so the solve could not leave that null space.  ``value`` is `_radius`
        at the returned center, read off its own sweep, which the result
        keeps as ``log_q``; an unconverged solve returns the loop's last
        iterate, flagged, so its value is F at a state and an upper bound on
        the radius.  Outside the proven parameter region the result
        is stamped ``heuristic``.
        """
        _require_finite_z(params, f"solve_center_{kind}")
        report = classify_region(params)
        if kind == "D":
            proven = report.in_Gamma_D and report.second_arg_convex_D
        else:
            proven = report.in_Gamma_Qbar and report.second_arg_convex_Qbar
        a, z = params.alpha, params.z
        if sigma0 is None:
            sig_start = self.start
        else:
            earlier = isinstance(sigma0, CenterResult)
            sig_start = self.compress(herm(sigma0.center if earlier else sigma0).mat)
            sig_start = 0.5 * (sig_start + sig_start.conj().T)
            if not _safely_definite(sig_start):
                raise ValueError("sigma0 must be positive definite on the support of W(P)")

        sigma, logq, iters, residual, ok = _run_fixed_point(
            self.powers(a / z), self.probs, sig_start, z, (1.0 - a) / (2.0 * z), a, kind
        )
        # Q_x is homogeneous of degree 1 - alpha in sigma.
        logq = logq - (1.0 - a) * math.log(float(np.trace(sigma).real))
        value = _radius(kind, logq, self.probs, a, self.log_traces)
        return CenterResult(DensityOperator(self.embed(sigma)), value, iters, residual, ok,
                            FIXED_POINT, not proven, logq)

    def result(self, alpha: float) -> CenterResult:
        """The converged D solve at alpha (z = alpha above 1, z = 1 below),
        warm-started and memoized with its slope; NonConvergenceError if it
        did not converge, now or on an earlier call."""
        res = self._results.get(alpha)
        if res is not None:
            return res
        if alpha in self._failures:
            raise NonConvergenceError(self._failures[alpha])
        alpha = float(alpha)  # numpy-scalar keys slow the scan 15x
        side = [a for a in self._results if (a > 1.0) == (alpha > 1.0)]
        warm = self._results[min(side, key=lambda a: abs(a - alpha))] if side else None
        params = RenyiParams(alpha, alpha if alpha > 1.0 else 1.0)
        try:
            res = self.solve(params, "D", sigma0=warm).require_converged(params)
        except NonConvergenceError as exc:
            self._failures[alpha] = str(exc)
            raise
        self._results[alpha] = res
        slope = backend.alpha_slope if alpha > 1.0 else backend.petz_slope
        dlogq = slope(self.compress(res.center.mat), self.powers(1.0), alpha)
        self.slopes[alpha] = float(self.probs @ (alpha * dlogq - res.log_q + self.log_traces))
        return res

    def chi(self, alpha: float) -> float:
        return self.result(alpha).value

    def holevo(self) -> float:
        """The Holevo quantity chi_1(W, P), computed on the first call."""
        if self._holevo is None:
            self._holevo = holevo_quantity(self.w, self.p)[0]
        return self._holevo

    def petz_divergence(self, alpha: float) -> float:
        """sum_x P(x) D_{alpha,1}(W(x)||W(P)) at the unit-trace W(P): `_radius`
        of one values-only sweep (``backend.q_sweep``), W_x^0 the support
        projection at alpha = 0.  Memoized, with its slope sum_x P(x) d log
        Q_x/d alpha (``backend.petz_slope``) in ``petz_slopes[alpha]``."""
        if alpha not in self._petz:
            sigma = self.start / np.trace(self.start).real
            logq = backend.q_sweep(sigma, self.powers(alpha), 1.0, 0.5 * (1.0 - alpha))
            self._petz[alpha] = _radius("D", logq, self.probs, alpha, self.log_traces)
            self.petz_slopes[alpha] = float(
                self.probs @ backend.petz_slope(sigma, self.powers(1.0), alpha))
        return self._petz[alpha]

    def chi_inf(self) -> float:
        """The alpha -> inf endpoint chi_inf = min_sigma sum_x P(x)
        D_max(W(x)||sigma), solved once by ``optimize.minimize_dmax`` (BFGS on
        a smoothing) over the compressed outputs V* W_x V, from V* sigma V of
        the center sigma of the largest cached order above 1, else of W(P):
        the exact objective at the state kept in ``chi_inf_center``, an upper
        bound on the true radius, never above the objective at the start."""
        if self._chi_inf is None:
            top = max(self.slopes, default=1.0)
            start = self._results[top].center.mat if top > 1.0 else self.average.mat
            outputs = self.compress(np.stack([self.w.output(s).mat for s in self.symbols]))
            self._chi_inf, sigma = minimize_dmax(outputs, self.probs, self.compress(start))
            self.chi_inf_center = DensityOperator(self.embed(sigma))
        return self._chi_inf


def _symbol_divergences(logq, alpha, log_traces) -> np.ndarray:
    """Every D_x = D(W_x || sigma) at a unit-trace state sigma from its sweep's
    logq = log Q_x: (log Q_x - log Tr W_x) / (alpha - 1), and +inf where Q_x
    vanishes, which makes D infinite on either side of alpha = 1."""
    dvals = (logq - log_traces) / (alpha - 1.0)
    dvals[np.isneginf(logq)] = math.inf
    return dvals


def _radius(kind, logq, probs, alpha, log_traces) -> float:
    """The radius at a unit-trace state from its sweep's logq = log Q_x.

    For D this is sum_x P(x) D_x with the D_x of `_symbol_divergences`,
    summed before the division by alpha - 1; for Q-bar the signed radius
    s(alpha) sum_x P(x) Q_x, which overflows to inf at large orders, silently
    (its callers take its log from ``log_q`` by log-sum-exp).  Every solve
    reports this value; at any state it is the solve's own objective, so it
    bounds the radius from above.
    """
    if kind == "Qbar":
        with np.errstate(over="ignore"):
            return math.copysign(float(probs @ np.exp(logq)), alpha - 1.0)
    if np.isneginf(logq).any():
        return math.inf
    return float(probs @ (logq - log_traces) / (alpha - 1.0))


def solve_center_D(w: GcqChannel, p: InputDistribution,
                   params: RenyiParams) -> CenterResult:
    """Weighted divergence center and radius chi_{alpha,z}(W, P).

    Anderson-mixed damped fixed-point iteration from W(P) restricted to its
    support.  A solve that does not reach DEFAULT_TOL in DEFAULT_MAX_ITER
    sweeps returns its last iterate with ``converged=False``; its ``value``
    is F there, an upper bound on the radius.  Outside the proven parameter
    region the result is stamped ``heuristic``.
    """
    return CenterProblem(w, p).solve(params, "D")


def solve_center_Qbar(w: GcqChannel, p: InputDistribution,
                      params: RenyiParams) -> CenterResult:
    """Weighted Q-bar center; ``value`` is the signed radius chi_Qbar."""
    return CenterProblem(w, p).solve(params, "Qbar")


def solve_center_tsallis(w: GcqChannel, p: InputDistribution,
                         params: RenyiParams) -> CenterResult:
    """PSD Tsallis center (unnormalized) and the Tsallis radius.

    The Tsallis map is the Q-bar map times sum_x P(x) Q_x, and both are
    homogeneous of degree 1 - alpha.  So the Tsallis center is c sigma_Q, the
    Q-bar center sigma_Q scaled by c with c^alpha = sum_x P(x) Q_x(sigma_Q)
    = s(alpha) chi_Qbar, and for unit-trace sigma Phi_T(c sigma) - c sigma =
    c (Phi_Q(sigma) - sigma): the residual is c times the Q-bar residual.
    log c comes from the log of that sum, so c stays finite where the sum
    overflows.  ``iterations``, ``method`` and ``heuristic`` are the Q-bar
    solve's.
    """
    _require_finite_z(params, "solve_center_tsallis")
    problem = CenterProblem(w, p)
    qb = problem.solve(params, "Qbar")
    a = params.alpha
    c = math.exp(float(logsumexp(qb.log_q, b=problem.probs)) / a)
    residual = c * qb.residual
    value = (a / (1.0 - a)) * (problem.average.trace() - c)
    return CenterResult(HermitianOperator(c * qb.center.mat), value, qb.iterations, residual,
                        residual <= DEFAULT_TOL * max(1.0, c), qb.method, qb.heuristic)


def closed_form_center_z1(w: GcqChannel, p: InputDistribution, alpha: float) -> CenterResult:
    """Power-mean center at z = 1: omega = (sum_x P(x) W(x)^alpha)^(1/alpha).

    The normalized omega is the unique Q-bar center; ``value`` is the signed
    radius s(alpha) (Tr omega)^alpha, directly comparable with
    solve_center_Qbar at z = 1.
    """
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("closed_form_center_z1 needs alpha in (0, inf) away from 1")
    params = RenyiParams.petz(alpha)
    acc = np.zeros((w.dim, w.dim), dtype=complex)
    for sym, prob in p.items():
        if prob == 0.0:
            continue
        acc += prob * support_power(w.output(sym), alpha).mat
    omega = support_power(HermitianOperator(acc), 1.0 / alpha)
    tr = omega.trace()
    center = DensityOperator(omega.mat / tr)
    with np.errstate(over="ignore"):
        value = math.copysign(float(np.exp(alpha * math.log(tr))), alpha - 1.0)
    residual = trace_norm(fixed_point_map_Qbar(w, p, params, center).mat - center.mat)
    return CenterResult(center, value, 0, residual, True, CLOSED_FORM_Z1)


def solve_center_direct(w: GcqChannel, p: InputDistribution,
                        params: RenyiParams) -> CenterResult:
    """Direct minimization of F(sigma) over states (works for z = inf too)."""
    params.require_not_one("solve_center_direct")
    avg = average_output(w, p)
    sigma, value = minimize_states(lambda s: weighted_divergence(w, p, params, s),
                                   [avg.mat / avg.trace()])
    report = classify_region(params)
    return CenterResult(
        DensityOperator(sigma), value, 0, math.nan, False, DIRECT_MINIMIZATION,
        heuristic=not (report.in_Gamma_D and report.second_arg_convex_D),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_BLOCH_RMAX = 1.0 - 1e-9


def _bloch_objective(w: GcqChannel, p: InputDistribution, params: RenyiParams):
    """Vectorized F over Bloch vectors via closed-form 2x2 spectral algebra."""
    a, z = params.alpha, params.z
    p2 = (1.0 - a) / z
    terms = []
    for sym, prob in p.items():
        if prob == 0.0:
            continue
        m = support_power(w.output(sym), a / z).mat
        m0 = 0.5 * float(np.trace(m).real)
        mvec = np.array([0.5 * float(np.trace(m @ s).real) for s in _PAULI])
        detm = m0 * m0 - float(mvec @ mvec)
        terms.append((prob, float(w.output(sym).trace()), m0, mvec, detm))

    def f(points):
        pts = np.atleast_2d(points)
        r = np.linalg.norm(pts, axis=1)
        lam_p = 0.5 * (1.0 + r)
        lam_m = 0.5 * (1.0 - r)
        ap = lam_p ** p2
        am = lam_m ** p2
        coef_i = 0.5 * (ap + am)
        coef_n = 0.5 * (ap - am)
        nhat = pts / np.maximum(r, 1e-300)[:, None]
        det_s = (lam_p * lam_m) ** p2
        total = np.zeros(len(pts))
        for prob, tr_w, m0, mvec, detm in terms:
            tr_a = 2.0 * (coef_i * m0 + coef_n * (nhat @ mvec))
            det_a = detm * det_s
            disc = np.sqrt(np.maximum(tr_a * tr_a - 4.0 * det_a, 0.0))
            lp = np.maximum(0.5 * (tr_a + disc), 0.0)
            lm = np.maximum(0.5 * (tr_a - disc), 0.0)
            q = np.where(lp > 0, lp ** z, 0.0) + np.where(lm > 0, lm ** z, 0.0)
            with np.errstate(divide="ignore"):
                total += prob * (np.log(q) - math.log(tr_w)) / (a - 1.0)
        return np.where(np.isfinite(total), total, 1e300)

    return f


def _state_from_bloch(r):
    rx, ry, rz = r
    return DensityOperator(0.5 * np.array(
        [[1.0 + rz, rx - 1j * ry], [rx + 1j * ry, 1.0 - rz]], dtype=complex
    ))


_CUBE = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)],
                 dtype=float)


def oracle_grid_center(w: GcqChannel, p: InputDistribution, params: RenyiParams) -> CenterResult:
    """Brute-force minimization of F(sigma), independent of the solvers.

    d = 2 with finite z: exhaustive grid over the Bloch ball at spacing
    0.05, then a halving pattern search until the step is below 2e-3
    (value error ~ 4e-6).  Otherwise: multistart compass search over a
    Cholesky factorization.
    """
    params.require_not_one("oracle_grid_center")
    if w.dim == 2 and not params.is_log_euclidean:
        f = _bloch_objective(w, p, params)
        step = 0.05
        axis = np.arange(-1.0, 1.0 + step / 2.0, step)
        grid = np.array(np.meshgrid(axis, axis, axis)).reshape(3, -1).T
        grid = grid[np.linalg.norm(grid, axis=1) <= _BLOCH_RMAX]
        vals = f(grid)
        best = grid[int(np.argmin(vals))]
        evals = len(grid)
        while step > 2e-3:
            step *= 0.5
            cand = best[None, :] + step * _CUBE
            norms = np.linalg.norm(cand, axis=1)
            over = norms > _BLOCH_RMAX
            cand[over] *= (_BLOCH_RMAX / norms[over])[:, None]
            cv = f(cand)
            best = cand[int(np.argmin(cv))]
            evals += len(cand)
        center = _state_from_bloch(best)
        value = weighted_divergence(w, p, params, center)
        return CenterResult(center, value, evals, step, True, ORACLE_GRID)

    # Own compass search; it shares only the Cholesky packing with the solvers.
    d = w.dim

    def objective(theta):
        ell = unpack(theta)
        sigma = ell @ ell.conj().T
        tr = float(np.trace(sigma).real)
        if tr <= 0.0:
            return 1e300
        val = weighted_divergence(w, p, params, HermitianOperator(sigma / tr))
        return val if math.isfinite(val) else 1e300

    rng = np.random.default_rng(0)
    avg = average_output(w, p)
    starts = [avg.mat / avg.trace(), np.eye(d) / d]
    for _ in range(2):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        s = g @ g.conj().T
        starts.append(s / float(np.trace(s).real))
    best_theta, best_val, evals = None, math.inf, 0
    for s in starts:
        theta = pack(factor(s))
        val = objective(theta)
        step = 0.3
        while step > 1e-5:
            improved = False
            for i in range(len(theta)):
                for sgn in (1.0, -1.0):
                    cand = theta.copy()
                    cand[i] += sgn * step
                    cv = objective(cand)
                    evals += 1
                    if cv < val - 1e-15:
                        theta, val = cand, cv
                        improved = True
            if not improved:
                step *= 0.5
        if val < best_val:
            best_theta, best_val = theta, val
    ell = unpack(best_theta)
    center = DensityOperator(ell @ ell.conj().T)
    value = weighted_divergence(w, p, params, center)
    return CenterResult(center, value, evals, math.nan, True, ORACLE_GRID)


# ---------------------------------------------------------------------------
# Radii built on the solvers
# ---------------------------------------------------------------------------

def divergence_radius(w: GcqChannel, params: RenyiParams):
    """Unweighted radius inf_sigma sup_x D(W(x)||sigma) = max_P chi(W, P).

    Multiplicative weights P(x) <- P(x) exp(D(W(x)||sigma_P)) with the
    constant step 1, one warm-started center solve per round.  Each round
    reads every D(W(x)||sigma_P) off the sweep that certified its center
    (`_symbol_divergences`), so max_x D and the gap max_x D - sum_x P(x) D
    come from one set of numbers.  It stops at the first round whose solve
    converged with a gap of at most RADIUS_TOL; after 500 rounds it warns
    and returns the round with the least max_x D, an upper bound on the
    radius.  Returns (radius, center, worst_P).
    """
    report = classify_region(params)
    if not report.second_arg_convex_D:
        warnings.warn("divergence_radius outside the proven convexity region is heuristic")
    symbols = w.alphabet
    weights = np.full(len(symbols), 1.0 / len(symbols))
    res = best = None
    for _ in range(500):
        p_t = InputDistribution(dict(zip(symbols, weights)))
        # Every weight stays positive, so the problem's symbols are the alphabet.
        problem = CenterProblem(w, p_t)
        res = problem.solve(params, "D", res)
        dvals = _symbol_divergences(res.log_q, params.alpha, problem.log_traces)
        radius_up = float(dvals.max())
        gap = radius_up - float(problem.probs @ dvals)
        if best is None or radius_up < best[0]:
            best = (radius_up, res.center, p_t)
        if res.converged and gap <= RADIUS_TOL:
            return radius_up, res.center, p_t
        weights = weights * np.exp(dvals - radius_up)
        weights = np.maximum(weights, 1e-300)
        weights /= weights.sum()
    warnings.warn(f"divergence_radius: gap {gap:.2e} above tol after 500 rounds")
    return best


def weighted_radius_beta(w: GcqChannel, p: InputDistribution, params: RenyiParams,
                         beta: float) -> float:
    """(P, beta)-weighted radius: min over states of the P-weighted beta-norm
    of x -> D(W(x)||sigma).

    beta = 1 is the weighted center value and beta = inf the
    `divergence_radius` of the channel restricted to supp P; only 1 < beta <
    inf searches states, from the beta = 1 center.  Divergences are assumed
    nonnegative (cq channels).
    """
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    if math.isinf(beta):
        restricted = GcqChannel({s: w.output(s) for s in p.support})
        return divergence_radius(restricted, params)[0]
    anchor = solve_center_D(w, p, params)
    if beta == 1.0:
        return anchor.value
    supp = p.support
    probs = np.array([p.probability(s) for s in supp])

    def norm(sigma):
        dv = np.array([d_alpha_z(w.output(s), sigma, params) for s in supp])
        return float(np.sum(probs * np.maximum(dv, 0.0) ** beta) ** (1.0 / beta))

    sigma, _ = minimize_states(lambda s: norm(HermitianOperator(s)),
                               [anchor.center.mat, average_output(w, p).mat])
    return norm(HermitianOperator(sigma))


def holevo_quantity(w: GcqChannel, p: InputDistribution):
    """(sum_x P(x) D(W(x)||W(P)), W(P)); exact, no iteration."""
    avg = average_output(w, p)
    center = DensityOperator(avg.mat)
    value = sum(prob * umegaki(w.output(sym), center)
                for sym, prob in p.items() if prob > 0.0)
    return float(value), center


def mutual_information(w: GcqChannel, p: InputDistribution, params: RenyiParams) -> float:
    """I_{alpha,z}(W,P) = (1/(alpha-1)) log s(alpha) chi_Qbar(W,P).

    The log is taken of sum_x P(x) Q_x by log-sum-exp, so I stays finite at
    orders where s(alpha) chi_Qbar overflows.
    """
    if params.alpha == 1.0:
        return holevo_quantity(w, p)[0]
    problem = CenterProblem(w, p)
    res = problem.solve(params, "Qbar").require_converged(params)
    return float(logsumexp(res.log_q, b=problem.probs)) / (params.alpha - 1.0)


def mutual_information_direct(w: GcqChannel, p: InputDistribution,
                              params: RenyiParams) -> float:
    """inf_sigma D(lifted(W,P) || blockdiag P x sigma) by direct search."""
    params.require_not_one("mutual_information_direct")
    joint = lifted_state(w, p)
    supp = p.support
    pvec = np.array([p.probability(s) for s in supp])

    def objective(sigma):
        return d_alpha_z(joint, HermitianOperator(np.kron(np.diag(pvec), sigma)), params)

    avg = average_output(w, p)
    return minimize_states(objective, [avg.mat / avg.trace()])[1]


def stationarity_residual(w: GcqChannel, p: InputDistribution, params: RenyiParams,
                          center: DensityOperator, rng=None) -> float:
    """Max |directional derivative| of F at the center along 5 random
    traceless Hermitian directions inside the center's support (projected to
    states), by central differences of step 1e-5."""
    rng = np.random.default_rng(0) if rng is None else rng
    iso = support_isometry(center)
    k = iso.shape[1]
    worst = 0.0
    step = 1e-5
    for _ in range(5):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        g = 0.5 * (g + g.conj().T)
        g -= np.trace(g).real / k * np.eye(k)
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            continue
        y = iso @ (g / norm) @ iso.conj().T
        plus = DensityOperator(center.mat + step * y)
        minus = DensityOperator(center.mat - step * y)
        fp = weighted_divergence(w, p, params, plus)
        fm = weighted_divergence(w, p, params, minus)
        worst = max(worst, abs(fp - fm) / (2.0 * step))
    return worst
