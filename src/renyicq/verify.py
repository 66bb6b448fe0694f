"""Named property checks behind the ``verify`` CLI command.

One check per invariant of each module; every check raises AssertionError
with a diagnostic on violation.  The suite is deterministic given the seed.
"""

from __future__ import annotations

import math

import numpy as np

from . import centers, channels, divergences as dv, exponents, operators as ops
from .classical import ClassicalChannel
from .divergences import INF_Z, RenyiParams


def _random_herm(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


class VerifyContext:
    def __init__(self, seed: int = 42, channel=None):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.user_channel = channel  # optional (GcqChannel, InputDistribution)

    def random_pair(self, dim):
        return (channels.random_state(dim, self.rng),
                channels.random_state(dim, self.rng))

    def random_channels(self, n):
        out = []
        if self.user_channel is not None and self.user_channel[0].is_cq:
            out.append(self.user_channel)
        while len(out) < n:
            out.append(channels.random_cq_channel(2, 3, self.rng))
        return out[:n]

    def diagonal_channel(self):
        rows = self.rng.dirichlet(np.ones(3), size=3)
        outs = {str(i): ops.HermitianOperator(np.diag(rows[i]).astype(complex))
                for i in range(3)}
        weights = self.rng.dirichlet(np.ones(3))
        return (channels.GcqChannel(outs),
                channels.InputDistribution({str(i): weights[i] for i in range(3)}),
                rows, weights)


# ---------------------------------------------------------------------------
# operator core
# ---------------------------------------------------------------------------

def check_pinching_inequality(ctx):
    worst = 0.0
    for dim in (2, 3, 4):
        a = ops.HermitianOperator(_random_herm(ctx.rng, dim))
        x = channels.random_state(dim, ctx.rng)
        n_clusters = len(ops.spectral_clusters(a))
        gap = n_clusters * ops.pinch(a, x).mat - x.mat
        lam = float(np.linalg.eigvalsh(gap)[0])
        worst = min(worst, lam) if worst else lam
        assert lam >= -1e-9, f"pinching inequality violated by {lam:.2e} at dim {dim}"
    return f"min eigenvalue of |spec| F_A(X) - X over dims 2..4: {worst:.2e}"


def check_support_power_inverse(ctx):
    worst = 0.0
    for dim, rank in ((3, 3), (4, 2), (2, 1)):
        a = channels.random_state(dim, ctx.rng, rank=rank)
        proj = ops.support_projection(a).mat
        for x in (0.5, -1.0, 2.0, -0.3):
            prod = ops.support_power(a, x).mat @ ops.support_power(a, -x).mat
            err = float(np.abs(prod - proj).max())
            worst = max(worst, err)
            assert err <= 1e-9, f"A^x A^-x != A^0 by {err:.2e} (dim {dim} rank {rank} x {x})"
    return f"max deviation of A^x A^-x from A^0: {worst:.2e}"


def check_pinch_trace_positivity(ctx):
    for dim in (2, 4):
        a = ops.HermitianOperator(_random_herm(ctx.rng, dim))
        x = channels.random_state(dim, ctx.rng)
        y = ops.pinch(a, x)
        assert abs(y.trace() - x.trace()) <= 1e-12, "pinching changed the trace"
        assert y.eigenvalues[0] >= -1e-12, "pinching broke positivity"
    return "trace preserved to 1e-12 and positivity kept on random inputs"


def check_commuting_exp_log(ctx):
    worst = 0.0
    for alpha in (0.3, 2.0):
        r = np.append(ctx.rng.dirichlet(np.ones(3)), 0.0)
        s = np.append(ctx.rng.dirichlet(np.ones(3)), 0.0)
        rho = ops.HermitianOperator(np.diag(r).astype(complex))
        sig = ops.HermitianOperator(np.diag(s).astype(complex))
        got = ops.exp_log_trace(rho, sig, alpha)
        want = float(np.sum(r[:3] ** alpha * s[:3] ** (1.0 - alpha)))
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-10, f"commuting exp-log off by {abs(got-want):.2e}"
    return f"commuting reduction matches the scalar formula to {worst:.2e}"


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def _sample_params(rng):
    if rng.random() < 0.15:
        return RenyiParams(float(rng.uniform(1.05, 3.0)), INF_Z)
    alpha = float(rng.uniform(0.05, 3.0))
    if abs(alpha - 1.0) < 1e-3:
        alpha += 2e-3
    return RenyiParams(alpha, float(rng.uniform(0.05, 3.0)))


def check_nonnegativity(ctx):
    worst = math.inf
    for _ in range(40):
        rho, sig = ctx.random_pair(int(ctx.rng.integers(2, 4)))
        p = _sample_params(ctx.rng)
        dh = dv.d_hat(rho, sig, p)
        worst = min(worst, dh)
        assert dh >= -1e-10, f"d_hat negative: {dh:.2e} at ({p.alpha}, {p.z})"
        if not p.is_log_euclidean:
            ts = dv.tsallis(rho, sig, p)
            worst = min(worst, ts)
            assert ts >= -1e-10, f"tsallis negative: {ts:.2e} at ({p.alpha}, {p.z})"
    return f"40 random pairs nonnegative; smallest value {worst:.2e}"


def check_q_monotone_in_z(ctx):
    for alpha in (1.5, 2.5):
        rho, sig = ctx.random_pair(3)
        zs = [alpha / 2.0, alpha, 2.0 * alpha, INF_Z]
        qs = [dv.q_alpha_z(rho, sig, RenyiParams(alpha, z)) for z in zs]
        for a, b in zip(qs, qs[1:]):
            assert b <= a + 1e-9, f"Q increased in z at alpha={alpha}: {a} -> {b}"
    return "Q non-increasing along z in {a/2, a, 2a, inf} for alpha in {1.5, 2.5}"


def check_data_processing_pinching(ctx):
    for p in (RenyiParams(0.5, 1.0), RenyiParams(2.0, 2.0), RenyiParams(1.5, 1.0)):
        assert dv.classify_region(p).monotone_cptp
        rho, sig = ctx.random_pair(3)
        a = ops.HermitianOperator(_random_herm(ctx.rng, 3))
        before = dv.d_alpha_z(rho, sig, p)
        after = dv.d_alpha_z(ops.pinch(a, rho), ops.pinch(a, sig), p)
        assert after <= before + 1e-9, (
            f"pinching increased D at ({p.alpha}, {p.z}): {before} -> {after}"
        )
    return "divergence non-increasing under pinching in the monotone region"


def check_commuting_classical_reduction(ctx):
    r = ctx.rng.dirichlet(np.ones(4))
    s = ctx.rng.dirichlet(np.ones(4))
    rho = ops.HermitianOperator(np.diag(r).astype(complex))
    sig = ops.HermitianOperator(np.diag(s).astype(complex))
    worst = 0.0
    for alpha in (0.4, 2.2):
        want_q = float(np.sum(r ** alpha * s ** (1.0 - alpha)))
        for z in (0.7, 1.0, alpha, 3.0, INF_Z):
            p = RenyiParams(alpha, z)
            err = abs(dv.q_alpha_z(rho, sig, p) - want_q)
            worst = max(worst, err)
            assert err <= 1e-10, f"commuting Q off by {err:.2e} at ({alpha}, {z})"
            if not math.isinf(z):
                want_t = (alpha + (1 - alpha) - want_q) / (1 - alpha)
                assert abs(dv.tsallis(rho, sig, p) - want_t) <= 1e-10
        err_d = abs(dv.d_alpha_z(rho, sig, RenyiParams(alpha, 1.0))
                    - math.log(want_q) / (alpha - 1.0))
        assert err_d <= 1e-10
    return f"diagonal inputs match the scalar formulas to {worst:.2e} for every z"


def check_alpha_to_one_continuity(ctx):
    rho, sig = ctx.random_pair(3)
    target = dv.umegaki(rho, sig)
    h = 1e-4
    for z_rule in ("alpha", "one"):
        lo_z = (1 - h) if z_rule == "alpha" else 1.0
        hi_z = (1 + h) if z_rule == "alpha" else 1.0
        lo = dv.d_alpha_z(rho, sig, RenyiParams(1 - h, lo_z))
        hi = dv.d_alpha_z(rho, sig, RenyiParams(1 + h, hi_z))
        assert lo <= target + 1e-3 and hi >= target - 1e-3, "alpha->1 bracket failed"
        assert abs(lo - target) <= 1e-3 and abs(hi - target) <= 1e-3, (
            f"alpha->1 values not within 1e-3: {lo}, {hi} vs {target}"
        )
    return f"values at alpha = 1 +/- 1e-4 bracket the relative entropy {target:.6f}"


def check_strict_positivity_outside_k0(ctx):
    count = 0
    while count < 15:
        rho, sig = ctx.random_pair(2)
        p = _sample_params(ctx.rng)
        if "K0" in dv.classify_region(p).regions:
            continue
        count += 1
        assert dv.d_hat(rho, sig, p) > 1e-6, f"d_hat not strictly positive at {p}"
        if not p.is_log_euclidean:
            assert dv.tsallis(rho, sig, p) > 1e-6, f"tsallis not strictly positive at {p}"
    return "15 unequal random pairs strictly positive outside K0"


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def check_lifted_marginals(ctx):
    w, p = ctx.random_channels(1)[0]
    lifted = channels.lifted_state(w, p)
    k = len(p.support)
    classical = ops.partial_trace(lifted, (k, w.dim), keep=0).mat
    want = np.diag([p.probability(s) for s in p.support]).astype(complex)
    err_c = float(np.abs(classical - want).max())
    quantum = ops.partial_trace(lifted, (k, w.dim), keep=1).mat
    err_q = float(np.abs(quantum - channels.average_output(w, p).mat).max())
    assert err_c <= 1e-12 and err_q <= 1e-12, f"marginals off by {err_c:.2e}/{err_q:.2e}"
    return f"classical/quantum marginals match to {max(err_c, err_q):.2e}"


def _all_types(n, k):
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _all_types(n - head, k - 1):
            yield (head,) + rest


def check_type_class_size_bounds(ctx):
    checked = 0
    for n in range(1, 13):
        for k in (2, 3):
            for combo in _all_types(n, k):
                t = channels.TypeClass.from_counts(
                    {str(i): c for i, c in enumerate(combo) if c}, n
                )
                size, _ = channels.type_class_size(t)
                kk = math.prod(c ** c for _, c in t.counts)
                s = len(t.support)
                assert size * kk <= n ** n, f"upper type bound failed for {combo}"
                assert size * (n + 1) ** s * kk >= n ** n, f"lower type bound failed for {combo}"
                checked += 1
    return f"exact integer bounds hold for {checked} types (n <= 12, binary/ternary)"


def check_type_probability_identity(ctx):
    for counts in ({"a": 2, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 3, "c": 1}):
        t = channels.TypeClass.from_counts(counts)
        p = t.as_distribution
        prob = math.prod(p.probability(s) ** c for s, c in t.counts)
        want = math.exp(-t.n * p.entropy())
        assert abs(prob - want) <= 1e-12 * want, f"type probability off for {counts}"
    return "P^(x)n(x) = e^(-n H) verified on binary and ternary types"


# ---------------------------------------------------------------------------
# centers
# ---------------------------------------------------------------------------

def check_fixed_point_certificate(ctx):
    worst_res, worst_grad = 0.0, 0.0
    for w, p in ctx.random_channels(2):
        for params in (RenyiParams(2.0, 2.0), RenyiParams(0.7, 1.0)):
            res = centers.solve_center_D(w, p, params)
            assert res.converged, f"solver failed at ({params.alpha}, {params.z})"
            assert res.residual <= 1e-10, f"residual {res.residual:.2e}"
            grad = centers.stationarity_residual(w, p, params, res.center,
                                                 rng=np.random.default_rng(ctx.seed))
            worst_res = max(worst_res, res.residual)
            worst_grad = max(worst_grad, grad)
            assert grad <= 1e-4, f"stationarity defect {grad:.2e}"
    return f"residual <= {worst_res:.1e}, directional derivative <= {worst_grad:.1e}"


def check_entropy_bound(ctx):
    for w, p in ctx.random_channels(2):
        for params in (RenyiParams(2.0, 2.0), RenyiParams(0.7, 1.0), RenyiParams(1.5, 1.0)):
            res = centers.solve_center_D(w, p, params)
            assert res.value <= p.entropy() + 1e-8, (
                f"chi {res.value} above H(P) {p.entropy()}"
            )
    return "chi <= H(P) + 1e-8 on random cq channels"


def check_additivity(ctx):
    w, p = ctx.random_channels(1)[0]
    ww = channels.product_channel(w, w)
    pp = channels.product_distribution(p, p)
    worst = 0.0
    for alpha in (1.5, 2.0):
        single = centers.solve_center_D(w, p, RenyiParams.sandwiched(alpha)).value
        double = centers.solve_center_D(ww, pp, RenyiParams.sandwiched(alpha)).value
        worst = max(worst, abs(double - 2.0 * single))
        assert abs(double - 2.0 * single) <= 1e-6, (
            f"additivity off by {abs(double - 2*single):.2e} at alpha={alpha}"
        )
    return f"chi(WxW, PxP) = 2 chi(W, P) within {worst:.1e}"


def check_weak_subadditivity(ctx):
    w, p = ctx.random_channels(1)[0]
    ww = channels.product_channel(w, w)
    pp = channels.product_distribution(p, p)
    params = RenyiParams(2.0, 1.0)
    single = centers.solve_center_D(w, p, params).value
    double = centers.solve_center_D(ww, pp, params).value
    assert double <= 2.0 * single + 1e-8, "subadditivity violated"
    return f"chi(WxW) = {double:.9f} <= 2 chi(W) = {2*single:.9f}"


def check_center_support_law(ctx):
    iso = np.zeros((3, 2), dtype=complex)
    iso[0, 0] = 1.0
    iso[1, 1] = 1.0
    outs = {}
    for i in range(3):
        small = channels.random_state(2, ctx.rng)
        outs[str(i)] = ops.HermitianOperator(iso @ small.mat @ iso.conj().T)
    w = channels.GcqChannel(outs)
    p = channels.InputDistribution.uniform(w.alphabet)
    res = centers.solve_center_D(w, p, RenyiParams(2.0, 2.0))
    proj_center = ops.support_projection(res.center).mat
    proj_avg = ops.support_projection(channels.average_output(w, p)).mat
    err = float(np.abs(proj_center - proj_avg).max())
    assert err <= 1e-6, f"center support differs from W(P)^0 by {err:.2e}"
    return f"center support equals W(P)^0 (projection gap {err:.1e}) on a rank-2 channel"


def check_oracle_equivalence(ctx):
    worst = 0.0
    for w, p in ctx.random_channels(3):
        params = RenyiParams(2.0, 2.0)
        solved = centers.solve_center_D(w, p, params).value
        oracle = centers.oracle_grid_center(w, p, params).value
        worst = max(worst, abs(solved - oracle))
        assert abs(solved - oracle) <= 1e-3, f"oracle gap {abs(solved-oracle):.2e}"
    return f"fixed point vs grid oracle gap <= {worst:.1e} on dim-2 channels"


def check_mutual_info_vs_radius(ctx):
    for w, p in ctx.random_channels(2):
        for params in (RenyiParams(0.6, 1.0), RenyiParams(2.0, 2.0)):
            chi = centers.solve_center_D(w, p, params).value
            info = centers.mutual_information(w, p, params)
            if params.alpha < 1.0:
                assert info <= chi + 1e-9, f"I > chi at alpha<1: {info} vs {chi}"
            else:
                assert info >= chi - 1e-9, f"I < chi at alpha>1: {info} vs {chi}"
    return "I <= chi for alpha < 1 and I >= chi for alpha > 1 (1e-9 slack)"


def check_mutual_info_direct(ctx):
    w, p = ctx.random_channels(1)[0]
    params = RenyiParams(2.0, 2.0)
    via_radius = centers.mutual_information(w, p, params)
    direct = centers.mutual_information_direct(w, p, params)
    assert abs(via_radius - direct) <= 1e-5, (
        f"mutual information mismatch {abs(via_radius-direct):.2e}"
    )
    return f"block formula vs direct minimization gap {abs(via_radius-direct):.1e}"


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def check_sc_exponent_shape(ctx):
    w, p = ctx.random_channels(1)[0]
    cache = exponents.RadiusCache(w, p)
    hol = cache.holevo()
    val, _ = exponents.sc_exponent(w, p, 0.5 * hol, cache=cache)
    assert val == 0.0, f"sc positive below the Holevo quantity: {val}"
    chi2 = cache.chi(2.0)
    rate = chi2 + 0.5
    val2, _ = exponents.sc_exponent(w, p, rate, cache=cache)
    assert val2 >= 0.5 * (rate - chi2) - 1e-9 and val2 > 0.0, "sc not positive above chi*_2"
    return f"sc = 0 at R = H/2 and sc = {val2:.6f} > 0 above chi*_2"


def check_sc_convexity(ctx):
    w, p = ctx.random_channels(1)[0]
    cache = exponents.RadiusCache(w, p)
    hol = cache.holevo()
    rates = np.linspace(0.5 * hol, 2.5 * hol + 1.0, 50)
    curve = exponents.sc_curve(w, p, rates, cache=cache)
    v = curve.values
    assert np.all(v >= 0.0), "negative exponent value"
    assert np.all(np.diff(v) >= -1e-10), "sc not non-decreasing in R"
    mid = v[1:-1] - 0.5 * (v[:-2] + v[2:])
    assert mid.max() <= 1e-8, f"midpoint convexity violated by {mid.max():.2e}"
    return f"50-point curve convex (max violation {mid.max():.1e}) and non-decreasing"


def check_cutoff_tangency(ctx):
    w, p = ctx.random_channels(1)[0]
    cache = exponents.RadiusCache(w, p)
    hol = cache.holevo()
    rates = np.linspace(0.5 * hol, 3.0 * hol + 1.0, 25)
    curve = exponents.sc_curve(w, p, rates, cache=cache)
    for kappa in np.linspace(0.1, 0.9, 9):
        c_k = exponents.cutoff_rate(w, p, float(kappa), cache=cache)
        gaps = curve.values - kappa * (curve.rates - c_k)
        assert gaps.min() >= -1e-6, f"cutoff line crosses sc at kappa={kappa:.1f}"
        assert gaps.min() <= 2e-2, f"cutoff line never near-tangent at kappa={kappa:.1f}"
    return "sc(R) >= kappa (R - C_kappa) with near-tangency for kappa in 0.1..0.9"


def check_classical_sc_consistency(ctx):
    worst = 0.0
    for _ in range(2):
        w, p, rows, weights = ctx.diagonal_channel()
        oracle = ClassicalChannel(rows, weights)
        cache = exponents.RadiusCache(w, p)
        hol = oracle.holevo()
        for rate in np.linspace(0.6 * hol, 2.0 * hol + 0.5, 6):
            mine, _ = exponents.sc_exponent(w, p, float(rate), cache=cache)
            ref = oracle.sc_exponent(float(rate))
            worst = max(worst, abs(mine - ref))
            assert abs(mine - ref) <= 1e-6, (
                f"classical mismatch {abs(mine-ref):.2e} at R={rate:.4f}"
            )
    return f"diagonal channels match the scalar implementation to {worst:.1e}"


def check_clipped_trace(ctx):
    rho, sig = ctx.random_pair(3)
    ts = np.linspace(0.0, 3.0, 40)
    vals = [exponents.clipped_trace(rho, sig, float(t)) for t in ts]
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-12), "clipped trace not non-increasing"
    slopes = np.abs(diffs) / (ts[1] - ts[0])
    assert slopes.max() <= sig.trace() + 1e-6, "clipped trace slope above Tr sigma"
    assert abs(vals[0] - rho.trace()) <= 1e-12, "value at t=0 must equal Tr rho"
    return f"non-increasing in t with slope <= Tr sigma ({slopes.max():.4f})"


def check_output_determinism(ctx):
    from .cli import render_curve
    curve = exponents.ExponentCurve(
        rates=np.array([0.1, 0.2]), values=np.array([0.0, 0.05]),
        maximizing_alpha=np.array([1.0, 2.5]), params="probe",
    )
    a = render_curve(curve, "csv", "nats")
    b = render_curve(curve, "csv", "nats")
    j1 = render_curve(curve, "json", "bits")
    j2 = render_curve(curve, "json", "bits")
    assert a == b and j1 == j2, "rendering is not deterministic"
    return "byte-identical renders for identical inputs"


CHECKS = [
    ("operator_core.pinching_inequality", check_pinching_inequality),
    ("operator_core.support_power_inverse", check_support_power_inverse),
    ("operator_core.pinch_trace_positivity", check_pinch_trace_positivity),
    ("operator_core.commuting_exp_log", check_commuting_exp_log),
    ("divergences.nonnegativity", check_nonnegativity),
    ("divergences.q_monotone_in_z", check_q_monotone_in_z),
    ("divergences.data_processing_pinching", check_data_processing_pinching),
    ("divergences.commuting_classical_reduction", check_commuting_classical_reduction),
    ("divergences.alpha_to_one_continuity", check_alpha_to_one_continuity),
    ("divergences.strict_positivity_outside_K0", check_strict_positivity_outside_k0),
    ("channels.lifted_marginals", check_lifted_marginals),
    ("channels.type_class_size_bounds", check_type_class_size_bounds),
    ("channels.type_probability_identity", check_type_probability_identity),
    ("centers.fixed_point_certificate", check_fixed_point_certificate),
    ("centers.entropy_bound", check_entropy_bound),
    ("centers.additivity", check_additivity),
    ("centers.weak_subadditivity", check_weak_subadditivity),
    ("centers.center_support_law", check_center_support_law),
    ("centers.oracle_equivalence", check_oracle_equivalence),
    ("centers.mutual_info_vs_radius", check_mutual_info_vs_radius),
    ("centers.mutual_info_direct_crosscheck", check_mutual_info_direct),
    ("exponents.sc_exponent_shape", check_sc_exponent_shape),
    ("exponents.sc_convexity", check_sc_convexity),
    ("exponents.cutoff_tangency", check_cutoff_tangency),
    ("exponents.classical_sc_consistency", check_classical_sc_consistency),
    ("exponents.clipped_trace", check_clipped_trace),
    ("cli.output_determinism", check_output_determinism),
]


def run_verify(seed: int = 42, channel=None, out=print) -> int:
    """Run every named check; returns 0 if all pass, 1 otherwise."""
    failures = 0
    for name, fn in CHECKS:
        ctx = VerifyContext(seed=seed, channel=channel)
        try:
            detail = fn(ctx)
            out(f"PASS {name}: {detail}")
        except AssertionError as exc:
            failures += 1
            out(f"FAIL {name}: {exc}")
    out(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed (seed {seed})")
    return 0 if failures == 0 else 1
