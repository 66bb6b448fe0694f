"""The alpha-z Renyi divergence family and relatives.

Conventions: all logs are natural (values in nats); matrix powers act on
supports; for alpha > 1 a first argument leaking outside the support of the
second yields :data:`SUPPORT_INF`, a float subclass equal to +inf that is
distinguishable from an arithmetic overflow.

Q_{alpha,z} has one evaluation, in the log domain (`_log_q`): at finite z
from the singular values of the sandwich block between the two supports,
at z = inf by log-sum-exp over the spectrum of alpha log rho +
(1 - alpha) log sigma.  :func:`q_alpha_z` is its exponential,
:func:`d_alpha_z` its (log Q - log Tr rho)/(alpha - 1) and :func:`d_hat`
that value shifted by the log traces, so no order overflows into a support
violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    EIG_CUTOFF,
    SUPPORT_RTOL,
    HermitianOperator,
    herm,
    log_exp_log_trace,
    support_isometry,
    support_power,
    support_projection,
)

#: z value selecting the log-Euclidean case.
INF_Z = math.inf

# Relative weight of the first argument allowed outside the support of the
# second before the pair counts as a support violation.
SUPPORT_LEAK_RTOL = 1e-9


class SupportViolationInfinity(float):
    """+inf caused by a support violation (not by overflow).

    Instances behave as ``math.inf`` in arithmetic and comparisons; use
    ``isinstance(x, SupportViolationInfinity)`` to distinguish the origin.
    """

    def __new__(cls):
        return super().__new__(cls, math.inf)

    def __repr__(self):
        return "SUPPORT_INF"


SUPPORT_INF = SupportViolationInfinity()


@dataclass(frozen=True)
class RenyiParams:
    """Order pair (alpha, z); ``z = INF_Z`` selects the log-Euclidean case.

    ``alpha = 1`` is accepted only by the operations defining the alpha -> 1
    limit (the relative-entropy ones); everything else requires
    alpha in (0, inf) \\ {1}.
    """

    alpha: float
    z: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha}")
        if not self.z > 0.0:
            raise ValueError(f"z must be positive (possibly inf), got {self.z}")

    @classmethod
    def petz(cls, alpha: float) -> "RenyiParams":
        return cls(alpha, 1.0)

    @classmethod
    def sandwiched(cls, alpha: float) -> "RenyiParams":
        return cls(alpha, alpha)

    @classmethod
    def log_euclidean(cls, alpha: float) -> "RenyiParams":
        return cls(alpha, INF_Z)

    @property
    def s(self) -> int:
        """sign(alpha - 1); derived, never stored."""
        return -1 if self.alpha < 1.0 else 1

    @property
    def is_log_euclidean(self) -> bool:
        return math.isinf(self.z)

    def require_not_one(self, op: str):
        if self.alpha == 1.0:
            raise ValueError(f"{op} is undefined at alpha = 1; use the relative-entropy limit")


@dataclass(frozen=True)
class RegionReport:
    """Parameter-region flags for a given (alpha, z)."""

    regions: tuple
    monotone_cptp: bool
    jointly_convex_Qbar: bool
    second_arg_convex_D: bool
    second_arg_convex_Qbar: bool
    quasi_convex_D: bool
    in_Gamma_D: bool
    in_Gamma_Qbar: bool

    @property
    def region(self) -> str:
        return "|".join(self.regions) if self.regions else ""


def classify_region(p: RenyiParams) -> RegionReport:
    """Classify (alpha, z) into the K0..K7 regions and derived flags.

    Region boundaries are inclusive (points on an edge belong to every
    adjacent closed region).  For z = inf the K memberships and CPTP
    monotonicity are reported False, since the finite-z characterization
    does not cover the log-Euclidean case; the Gamma memberships follow the
    stated predicates (the alpha > 1 branch has no finiteness requirement).
    """
    p.require_not_one("classify_region")
    a, z = p.alpha, p.z
    finite = math.isfinite(z)

    member = {
        "K0": a < 1 and finite and z < min(a, 1.0 - a),
        "K1": a < 1 and finite and a <= z <= 1.0 - a,
        "K2": a < 1 and finite and max(a, 1.0 - a) <= z <= 1.0,
        "K3": a < 1 and finite and 1.0 - a <= z <= a,
        "K4": a < 1 and finite and z >= 1.0,
        "K5": a > 1 and finite and a / 2.0 <= z <= 1.0,
        "K6": a > 1 and finite and max(a - 1.0, 1.0) <= z <= a,
        "K7": a > 1 and finite and a <= z,
    }
    regions = tuple(name for name in sorted(member) if member[name])

    monotone = member["K2"] or member["K4"] or member["K5"] or member["K6"]
    conv2_d = member["K2"] or member["K3"] or member["K4"] or member["K6"] or member["K7"]
    conv2_q = conv2_d or member["K5"]
    quasi_d = conv2_d or monotone or member["K5"]

    gamma_d = (a < 1 and finite and z > 1.0 - a) or (a > 1 and z >= max(a / 2.0, a - 1.0))
    gamma_q = (a < 1 and finite and z > 1.0 - a) or (a > 1 and z >= a)

    return RegionReport(
        regions=regions,
        monotone_cptp=monotone,
        jointly_convex_Qbar=monotone,
        second_arg_convex_D=conv2_d,
        second_arg_convex_Qbar=conv2_q,
        quasi_convex_D=quasi_d,
        in_Gamma_D=gamma_d,
        in_Gamma_Qbar=gamma_q,
    )


def _check_nonzero(rho: HermitianOperator, op: str) -> float:
    tr = rho.trace()
    if tr <= 0.0:
        raise ValueError(f"{op} requires a nonzero PSD first argument")
    return tr


def support_dominated(rho: HermitianOperator, sigma: HermitianOperator) -> bool:
    """Whether the support of rho lies inside the support of sigma.

    Measured as the relative weight of rho outside ran(sigma^0), at most
    SUPPORT_LEAK_RTOL.
    """
    rho, sigma = herm(rho), herm(sigma)
    proj = support_projection(sigma).mat
    inside = float(np.trace(proj @ rho.mat @ proj).real)
    total = rho.trace()
    return total - inside <= SUPPORT_LEAK_RTOL * max(total, 1e-300)


def _log_q(rho, sigma, p: RenyiParams, op: str):
    """(log Q_{alpha,z}(rho||sigma), Tr rho), with log Q = SUPPORT_INF when
    alpha > 1 and rho leaks outside sigma's support, -inf when Q vanishes.

    At finite z, Q sums s^{2z} over the singular values s of the block
    V_sigma* sigma^{(1-a)/2z} rho^{a/2z} V_rho between the two supports, as
    2z log s_max + log sum (s/s_max)^{2z}.  Orthogonality is read off the
    supports, not the powered product: in a generic basis the product of
    orthogonal supports is roundoff, while a real overlap can sit far below
    SUPPORT_RTOL once raised to a/z or (1-a)/z > 1.  Supports whose
    projections overlap by at most SUPPORT_RTOL in Frobenius norm count as
    orthogonal.  A structural zero of the block comes out at roundoff of its
    norm, where the full-space product would leave null directions at 1e-16
    that s^{2z} magnifies for z < 1; past the orthogonality test only
    roundoff is cut: s^2 up to EIG_CUTOFF times s_max^2, the cutoff of the
    sweep kernel.
    """
    rho, sigma = herm(rho), herm(sigma)
    p.require_not_one(op)
    tr = _check_nonzero(rho, op)
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    a, z = p.alpha, p.z
    if a > 1.0 and not support_dominated(rho, sigma):
        return SUPPORT_INF, tr
    if p.is_log_euclidean:
        return log_exp_log_trace(rho, sigma, a), tr
    v_rho, v_sig = support_isometry(rho), support_isometry(sigma)
    if np.linalg.norm(v_rho.conj().T @ v_sig) <= SUPPORT_RTOL:
        return -math.inf, tr
    block = (v_sig.conj().T @ support_power(sigma, (1.0 - a) / (2.0 * z)).mat
             @ support_power(rho, a / (2.0 * z)).mat @ v_rho)
    s = np.linalg.svd(block, compute_uv=False)
    smax = float(s[0])
    if smax <= 0.0:
        return -math.inf, tr
    r = s / smax
    r = r[r > math.sqrt(EIG_CUTOFF)]
    return 2.0 * z * math.log(smax) + math.log(float(np.sum(r ** (2.0 * z)))), tr


def q_alpha_z(rho: HermitianOperator, sigma: HermitianOperator, p: RenyiParams) -> float:
    """Tr (rho^{a/2z} sigma^{(1-a)/z} rho^{a/2z})^z with powers on supports.

    The exponential of the log Q that :func:`d_alpha_z` reads.  For
    alpha > 1 with rho's support leaking outside sigma's, returns
    SUPPORT_INF; z = inf is the exp-log-trace form.  Orthogonal supports
    give 0 when alpha < 1, and a Q past the largest double a plain +inf.
    """
    log_q, _ = _log_q(rho, sigma, p, "q_alpha_z")
    if isinstance(log_q, SupportViolationInfinity):
        return SUPPORT_INF
    with np.errstate(over="ignore"):
        return float(np.exp(log_q))


def d_alpha_z(rho: HermitianOperator, sigma: HermitianOperator, p: RenyiParams) -> float:
    """alpha-z Renyi divergence (1/(alpha-1)) log(Q / Tr rho), in nats.

    ``alpha = 1`` delegates to the relative-entropy limit.  Support
    violations (alpha > 1) and orthogonal supports (alpha < 1) both give
    SUPPORT_INF.  log Q never passes through Q itself, so large orders give
    finite values rather than an overflow mistaken for a support violation.
    """
    if p.alpha == 1.0:
        return umegaki(rho, sigma)
    log_q, tr = _log_q(rho, sigma, p, "d_alpha_z")
    if math.isinf(log_q):
        return SUPPORT_INF
    return (log_q - math.log(tr)) / (p.alpha - 1.0)


def umegaki(rho: HermitianOperator, sigma: HermitianOperator) -> float:
    """Relative entropy Tr rho (log rho - log sigma) / Tr rho, on supports."""
    rho, sigma = herm(rho), herm(sigma)
    tr = _check_nonzero(rho, "umegaki")
    if not support_dominated(rho, sigma):
        return SUPPORT_INF
    w, v = rho.eig
    cut = float(w[-1]) * SUPPORT_RTOL
    on = w > cut
    ent = float(np.sum(w[on] * np.log(w[on])))
    ws, vs = sigma.eig
    cs = float(ws[-1]) * SUPPORT_RTOL
    ons = ws > cs
    log_sigma = (vs[:, ons] * np.log(ws[ons])) @ vs[:, ons].conj().T
    cross = float(np.trace(rho.mat @ log_sigma).real)
    return (ent - cross) / tr


def d_max(rho: HermitianOperator, sigma: HermitianOperator) -> float:
    """Max-relative entropy: log of the largest eigenvalue of
    sigma^{-1/2} rho sigma^{-1/2} on the support of sigma.

    rho is not normalized, so this is the alpha -> inf limit of
    :func:`d_alpha_z` also for Tr rho != 1.
    """
    rho, sigma = herm(rho), herm(sigma)
    _check_nonzero(rho, "d_max")
    if not support_dominated(rho, sigma):
        return SUPPORT_INF
    inv_half = support_power(sigma, -0.5).mat
    m = inv_half @ rho.mat @ inv_half
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    top = float(w[-1])
    if top <= 0.0:
        return SUPPORT_INF
    return math.log(top)


def tsallis(rho: HermitianOperator, sigma: HermitianOperator, p: RenyiParams) -> float:
    """Tsallis (alpha,z)-divergence (1/(1-alpha))(a Tr rho + (1-a) Tr sigma - Q).

    A support violation gives SUPPORT_INF; a Q that overflows gives a plain
    +inf.
    """
    p.require_not_one("tsallis")
    if p.is_log_euclidean:
        raise ValueError("tsallis requires finite z")
    rho, sigma = herm(rho), herm(sigma)
    q = q_alpha_z(rho, sigma, p)
    if isinstance(q, SupportViolationInfinity):
        return SUPPORT_INF
    a = p.alpha
    return (a * rho.trace() + (1.0 - a) * sigma.trace() - q) / (1.0 - a)


def d_hat(rho: HermitianOperator, sigma: HermitianOperator, p: RenyiParams) -> float:
    """Normalized divergence D(rho/Tr rho || sigma/Tr sigma); projective in both arguments.

    By homogeneity, D(rho/a || sigma/b) = D(rho || sigma) - log a + log b.
    """
    rho, sigma = herm(rho), herm(sigma)
    tr_rho = _check_nonzero(rho, "d_hat")
    tr_sigma = _check_nonzero(sigma, "d_hat")
    d = d_alpha_z(rho, sigma, p)
    if isinstance(d, SupportViolationInfinity):
        return SUPPORT_INF
    return d - math.log(tr_rho) + math.log(tr_sigma)


def q_alpha_z_regularized(rho: HermitianOperator, sigma: HermitianOperator,
                          p: RenyiParams) -> float:
    """Q evaluated on (sigma + eps I), eps = 1e-6, 1e-8, 1e-10, with Richardson
    extrapolation to eps -> 0.

    A cross-check for the support-projection path; finite z only.  A
    sequence growing without bound (support violation at alpha > 1) reports
    +inf.
    """
    p.require_not_one("q_alpha_z_regularized")
    if p.is_log_euclidean:
        raise ValueError("the regularized path is defined for finite z only")
    rho, sigma = herm(rho), herm(sigma)
    eye = np.eye(sigma.dim)
    q0, q1, q2 = (q_alpha_z(rho, HermitianOperator(sigma.mat + e * eye), p)
                  for e in (1e-6, 1e-8, 1e-10))
    if p.alpha > 1.0 and q2 > q1 > q0 and q1 > 0 and q2 / max(q1, 1e-300) > 10.0:
        return math.inf
    d1, d2 = q1 - q0, q2 - q1
    if abs(d2) < 1e-15 * max(abs(q2), 1.0) or abs(d1) <= abs(d2):
        return q2
    rate = abs(d1 / d2)
    return q2 + d2 / (rate - 1.0)
