"""Operational exponent curves: Legendre searches over one radius cache.

All rates and exponents are in nats.  Each supremum over the order is
exactly 0, with no solve, where its bracket cannot be positive: at rates up
to the Holevo quantity chi_1 for the strong converse exponent, from chi_1 on
for the other two.  Else each is the supremum of a concave g(u) = uR - f(u)
at f'(u) = R, found by one `_tangent_search` over the exact slopes its cache
holds.  With f(u) = u chi_{1/(1-u)}, u = 1 - 1/alpha, u > 0 gives the strong
converse exponent and u < 0 the sphere-packing bound; the random-coding
exponent takes f(t) = sum_x P(x) (log Q_x - log Tr W_x) at W(P), t = alpha - 1.
A failed order is dropped with a warning.  All three read the samples of
one `RadiusCache` per (W, P), the ``centers.CenterProblem`` that memoizes
every radius, slope and divergence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .centers import CenterProblem, weighted_divergence
from .channels import GcqChannel, InputDistribution, TypeClass
from .divergences import RenyiParams, q_alpha_z
from .exceptions import NonConvergenceError
from .operators import herm, support_projection

DEFAULT_ALPHA_MAX = 64.0
SP_ALPHA_MIN = 1e-3

# Last order of the sc search's doubling tail, the scalar oracle's last order,
# and the largest order solved: a sandwiched solve there can miss the 10000-sweep cap.
_ALPHA_TAIL_MAX = 1024.0
# Absolute tolerance in u of the tangent search's bracket.
_XATOL = 1e-7


@dataclass
class ExponentCurve:
    """Exponent values over a rate grid, with the maximizing order per rate."""

    rates: np.ndarray
    values: np.ndarray
    maximizing_alpha: np.ndarray
    params: str = ""


@dataclass
class PsiCurve:
    """Log-moment values on an order grid with one-sided slopes at 1."""

    alphas: np.ndarray
    values: np.ndarray
    deriv_left: float
    deriv_right: float


@dataclass
class ConvexityReport:
    u: np.ndarray
    values: np.ndarray
    violations: np.ndarray
    max_violation: float


RadiusCache = CenterProblem  # the memo of one (W, P) the exponents read


def _cache_for(w, p, cache):
    """``cache`` if it holds the radii of (w, p); a new one if None."""
    if cache is None:
        return RadiusCache(w, p)
    if cache.w is not w or cache.p != p:
        raise ValueError("the cache does not hold the radii of this channel")
    return cache


def _solved(cache, u):
    """Whether the center solve at alpha = 1/(1-u) converged; a failure warns."""
    try:
        cache.chi(1.0 / (1.0 - u))
    except NonConvergenceError as exc:
        warnings.warn(f"dropping alpha={1.0 / (1.0 - u):.6g}: {exc}")
        return False
    return True


def radius_samples(cache, rate, lo, hi):
    """The samples (u, g, f') on [lo, hi] sorted by u: u = 0 (g = 0, f' = chi_1)
    and each order alpha with a slope, at u = 1 - 1/alpha, g = u (R - chi_alpha)."""
    return sorted([(u, u * (rate - cache.chi(a)), s) for a, s in cache.slopes.items()
                   if lo <= (u := 1.0 - 1.0 / a) <= hi] + [(0.0, 0.0, cache.holevo())])


def moment_samples(cache, rate):
    """The samples (t, g, f') on [-1, 0] sorted by t: t = 0 (g = 0, f' = chi_1)
    and each order alpha = 1 + t < 1 with a `petz_divergence` D, g = t (R - D)."""
    return sorted([(a - 1.0, (a - 1.0) * (rate - cache.petz_divergence(a)), s)
                   for a, s in cache.petz_slopes.items() if a < 1.0]
                  + [(0.0, 0.0, cache.holevo())])


def bracket(pts, rate):
    """Of samples (u, g, f') sorted by u: the last a with f' < R, the first b
    with f' >= R (None if none), and where the tangents of g at a and b meet,
    an upper bound on sup g (inf without both)."""
    a = next((q for q in reversed(pts) if q[2] < rate), None)
    b = next((q for q in pts if q[2] >= rate), None)
    if a is None or b is None:
        return a, b, math.inf
    (ua, ga, da), (ub, gb, db) = a, b
    cut = (gb - ga + (rate - da) * ua - (rate - db) * ub) / (db - da)
    return a, b, ga + (rate - da) * (cut - ua)


def _tangent_search(samples, probe, rate, lo, hi):
    """The supremum of a concave g(u) = uR - f(u) over [lo, hi], at f' = R.
    Each step adds to the ``samples()`` (u, g, f'), u = 0 among them, one
    ``probe(u)`` (False if it failed) at the secant root of f' = R through
    the two samples with slopes nearest R, clamped inside `bracket`'s (a, b),
    else at its missing end or middle; a failed probe moves halfway to a,
    else b.  With u = 0 the only sample it probes halfway to the far end,
    but not below u = -1 (alpha = 1/2).  Stops once the bracket bound is
    within 1e-13 max(1, |g|) of the best g or b - a < _XATOL, or with
    nothing left to probe: (samples, a, b)."""
    failed = set()
    while True:
        pts = samples()
        a, b, upper = bracket(pts, rate)
        best = max(q[1] for q in pts)
        if upper - best <= 1e-13 * max(1.0, abs(best)) or a and b and b[0] - a[0] < _XATOL:
            return pts, a, b
        ua, ub = lo if a is None else a[0], hi if b is None else b[0]
        cand = max(-1.0, 0.5 * (ua + ub))  # one sample: no secant yet
        if len(pts) > 1:
            (u1, _, d1), (u2, _, d2) = sorted(pts, key=lambda q: abs(q[2] - rate))[:2]
            cand = u1 + (rate - d1) * (u2 - u1) / (d2 - d1) if d2 != d1 else math.inf
        if not ua < cand < ub:
            cand = hi if b is None else lo if a is None else 0.5 * (ua + ub)
        pad = 0.5 * _XATOL
        cand = None if ua == ub else min(max(cand, ua if a is None else ua + pad),
                                         ub if b is None else ub - pad)
        anchor = ub if a is None else ua
        while cand in failed:
            cand = 0.5 * (anchor + cand) if abs(cand - anchor) >= 2.0 * _XATOL else None
        if cand is None:
            return pts, a, b
        if not probe(cand):
            failed.add(cand)


def sc_exponent(w: GcqChannel, p: InputDistribution, rate: float,
                cache: RadiusCache | None = None):
    """Strong converse exponent sup_{alpha>1} (1-1/alpha)(R - chi*_alpha).

    Exactly 0, with no solve, for R at or below chi_1; else the
    `_tangent_search` over u in [0, 1 - 1/top], the top order
    DEFAULT_ALPHA_MAX doubling up to 1024 while f' < R there; past 64 the
    endpoint R - chi_inf is solved, the value if no sample beats it.
    Returns (value, argmax_alpha), argmax_alpha 1.0 for a zero value and inf
    when the endpoint dominates.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    cache = _cache_for(w, p, cache)
    if rate <= cache.holevo():
        return 0.0, 1.0
    top, g_inf = DEFAULT_ALPHA_MAX, -math.inf
    while True:
        hi = 1.0 - 1.0 / top
        pts, a, b = _tangent_search(lambda: radius_samples(cache, rate, 0.0, hi),
                                    lambda u: _solved(cache, u), rate, 0.0, hi)
        if b is not None or top >= _ALPHA_TAIL_MAX:
            break
        if a[0] == 0.0:
            raise NonConvergenceError("no sandwiched radius evaluation converged")
        g_inf, top = rate - cache.chi_inf(), 2.0 * top
    u, g, _ = max(pts, key=lambda q: q[1])
    value, argmax = max((g_inf, math.inf), (g, 1.0 / (1.0 - u)))
    return float(value), float(argmax)


def sc_curve(w: GcqChannel, p: InputDistribution, rates,
             cache: RadiusCache | None = None) -> ExponentCurve:
    """Strong converse exponent over a rate grid, sharing one radius cache."""
    cache = _cache_for(w, p, cache)
    rates = np.asarray(list(rates), dtype=float)
    values = np.zeros_like(rates)
    argmax = np.zeros_like(rates)
    for i, r in enumerate(rates):
        values[i], argmax[i] = sc_exponent(w, p, float(r), cache=cache)
    return ExponentCurve(rates, values, argmax,
                         params="strong converse exponent (sandwiched radius)")


def cutoff_rate(w: GcqChannel, p: InputDistribution, kappa: float,
                cache: RadiusCache | None = None) -> float:
    """Generalized cutoff rate C_kappa = chi*_{1/(1-kappa)}."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    cache = _cache_for(w, p, cache)
    return cache.chi(1.0 / (1.0 - kappa))


def sphere_packing_bound(w: GcqChannel, p: InputDistribution, rate: float,
                         cache: RadiusCache | None = None) -> float:
    """sup_{0<alpha<1} ((alpha-1)/alpha)(R - chi_{alpha,1}), clamped at 0.

    Exactly 0, with no solve, for R >= chi_1, since chi_{alpha,1} <= chi_1;
    else the `_tangent_search` over u = 1 - 1/alpha in [1 - 1/SP_ALPHA_MIN, 0].
    The supremum may diverge as alpha -> 0: a warning is emitted when it
    sits at the lowest order solved.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    cache = _cache_for(w, p, cache)
    if rate >= cache.holevo():
        return 0.0
    lo = 1.0 - 1.0 / SP_ALPHA_MIN
    pts, a, _ = _tangent_search(lambda: radius_samples(cache, rate, lo, 0.0),
                                lambda u: _solved(cache, u), rate, lo, 0.0)
    if len(pts) == 1:
        raise NonConvergenceError("no Petz radius evaluation converged")
    if a is None:
        warnings.warn("sphere-packing supremum attained at the alpha grid floor; "
                      "the true supremum may be +inf")
    return max(q[1] for q in pts)  # u = 0 holds g = 0


def _random_coding_sup(cache, rate, penalty):
    """The random-coding supremum, clamped at 0: the `_tangent_search` at rate
    R + penalty over t = alpha - 1 in [-1, 0] (log Tr W(x)^alpha W(P)^(1-alpha)
    is convex), 0 for R + penalty >= chi_1."""
    rate += penalty
    if rate >= cache.holevo():
        return 0.0
    pts, _, _ = _tangent_search(lambda: moment_samples(cache, rate),
                                lambda t: math.isfinite(cache.petz_divergence(1.0 + t)),
                                rate, -1.0, 0.0)
    return max(q[1] for q in pts)


def random_coding_exponent(w: GcqChannel, p: InputDistribution, rate: float,
                           cache: RadiusCache | None = None) -> float:
    """Achievable error exponent sup_{0<=alpha<=1} (alpha-1)(R - sum_x P(x)
    D_{alpha,1}(W(x)||W(P))), the divergences memoized in the cache."""
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    return _random_coding_sup(_cache_for(w, p, cache), rate, 0.0)


def finite_n_random_coding_bound(w: GcqChannel, p_n: TypeClass, rate: float) -> float:
    """Blocklength-n achievability exponent for a constant-composition code;
    the type-counting penalty |supp| log(n+1)/n enters the bracket."""
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    penalty = len(p_n.support) * math.log(p_n.n + 1.0) / p_n.n
    return _random_coding_sup(RadiusCache(w, p_n.as_distribution), rate, penalty)


def finite_n_converse_bound(w: GcqChannel, p_n: TypeClass, rate: float,
                            params: RenyiParams | None = None, sigma=None,
                            cache: RadiusCache | None = None) -> float:
    """Upper bound on (1/n) log P_s for constant-composition codes at ``rate``.

    ``params``, if given, must be sandwiched (z = alpha) with alpha > 1.
    With ``sigma`` (and ``params``) the single-order bound
    -(1-1/alpha)[R - sum_x P_n(x) D_{alpha,alpha}(W(x)||sigma)] is returned;
    with only ``params`` the order is kept but the center is optimized; with
    neither, the bound is optimized over alpha > 1.  Always <= 0.
    """
    p = p_n.as_distribution
    if params is None:
        if sigma is not None:
            raise ValueError("sigma requires params fixing the order alpha")
        value, _ = sc_exponent(w, p, rate, cache=cache)
        return -value
    a = params.alpha
    if a <= 1.0 or params.z != a:
        raise ValueError("the converse bound needs sandwiched params with alpha > 1")
    if sigma is None:
        chi = _cache_for(w, p, cache).chi(a)
    else:
        chi = weighted_divergence(w, p, params, sigma)
    return -max(0.0, (1.0 - 1.0 / a) * (rate - chi))


def psi_curve(first_with_weights, second, alphas) -> PsiCurve:
    """Weighted log-moment curve of a matched family of state pairs.

    ``first_with_weights`` is a list of (state, weight); ``second`` the
    matched reference states.  For orders <= 1 the plain power trace is
    used, beyond 1 the sandwiched form.  One-sided difference quotients at 1
    (step 1e-4) estimate the weighted relative-entropy slope.
    """
    pairs = list(first_with_weights)
    refs = list(second)
    if len(pairs) != len(refs):
        raise ValueError("state lists must be matched")

    def psi(alpha):
        total = 0.0
        for (rho, weight), sigma in zip(pairs, refs):
            rho, sigma = herm(rho), herm(sigma)
            if alpha == 1.0:
                val = float(np.trace(support_projection(sigma).mat @ rho.mat).real)
            elif alpha < 1.0:
                val = q_alpha_z(rho, sigma, RenyiParams.petz(alpha))
            else:
                val = q_alpha_z(rho, sigma, RenyiParams.sandwiched(alpha))
            if val <= 0.0 or math.isinf(val):
                return math.inf if val > 0 else -math.inf
            total += weight * math.log(val)
        return total

    alphas = np.asarray(list(alphas), dtype=float)
    values = np.array([psi(a) for a in alphas])
    h = 1e-4
    psi_1 = psi(1.0)
    deriv_left = (psi_1 - psi(1.0 - h)) / h
    deriv_right = (psi(1.0 + h) - psi_1) / h
    return PsiCurve(alphas, values, float(deriv_left), float(deriv_right))


def clipped_trace(rho, sigma, t: float) -> float:
    """Tr (rho - t sigma)_+ : total weight of the positive part."""
    rho, sigma = herm(rho), herm(sigma)
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    w = np.linalg.eigvalsh(rho.mat - t * sigma.mat)
    return float(np.sum(w[w > 0.0]))


def convexity_probe(w: GcqChannel, p: InputDistribution, u_grid=None,
                    cache: RadiusCache | None = None) -> ConvexityReport:
    """Midpoint-convexity check of u -> u * chi*_{1/(1-u)} on a uniform grid."""
    if u_grid is None:
        u_grid = np.linspace(0.1, 0.9, 17)
    u = np.asarray(list(u_grid), dtype=float)
    if len(u) < 3:
        raise ValueError("need at least 3 grid points")
    if not np.allclose(np.diff(u), u[1] - u[0], rtol=0.0, atol=1e-12):
        raise ValueError("midpoint check needs a uniform grid")
    if u[0] <= 0.0 or u[-1] >= 1.0:
        raise ValueError("u grid must lie inside (0, 1)")
    cache = _cache_for(w, p, cache)
    f = np.array([ui * cache.chi(1.0 / (1.0 - ui)) for ui in u])
    violations = f[1:-1] - 0.5 * (f[:-2] + f[2:])
    return ConvexityReport(u, f, violations, float(violations.max()))
