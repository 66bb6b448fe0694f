"""Batch command-line front end.

Subcommands: divergence, center, chi, exponent-curve, cutoff, verify.
Inputs are channel JSON files or preset tokens (``noiseless:d``,
``random:d:k[:seed]``, or the bare word ``random``).  Outputs are CSV or
JSON with 12-significant-digit floats, LF endings, UTF-8; identical config
and seed produce byte-identical files.

Exit codes: 0 success, 2 malformed input or config, 3 solver
non-convergence, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import exponents
from .centers import solve_center_D, weighted_radius_beta
from .channels import InputDistribution, load_channel, parse_preset
from .divergences import RenyiParams, d_alpha_z
from .exceptions import ChannelFormatError, NonConvergenceError, ResourceLimitError
from .exponents import ExponentCurve, RadiusCache

LN2 = math.log(2.0)


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.12g}"
    return str(value)


def _scale(units: str) -> float:
    return 1.0 / LN2 if units == "bits" else 1.0


def render_rows(columns, rows, fmt: str) -> str:
    """Render a rectangular table; CSV and JSON carry identical content."""
    if not rows:
        raise ValueError("refusing to emit an empty table")
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {
        "columns": list(columns),
        "rows": [[_json_number(v) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=1) + "\n"


def _json_number(value):
    if isinstance(value, float) and math.isfinite(value):
        return float(f"{value:.12g}")
    return value


def render_curve(curve: ExponentCurve, fmt: str, units: str) -> str:
    """Deterministic column order (R, value, argmax_alpha)."""
    s = _scale(units)
    rows = [
        [float(r) * s, float(v) * s, float(a)]
        for r, v, a in zip(curve.rates, curve.values, curve.maximizing_alpha)
    ]
    return render_rows(["R", "value", "argmax_alpha"], rows, fmt)


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _resolve_channel(args):
    token = args.preset or args.input
    if token is None:
        raise ChannelFormatError("a channel is required (--input or --preset)", field="input")
    if args.preset is None and os.path.exists(token):
        w, p = load_channel(token)
    else:
        w, p = parse_preset(token, seed=args.seed)
    if p is None:
        p = InputDistribution.uniform(w.alphabet)
    return w, p


def _params(args, alpha: float) -> RenyiParams:
    """The order pair (alpha, --z), with z = alpha when --z is not given."""
    return RenyiParams(alpha, args.z if args.z is not None else alpha)


def _parse_floats(text: str, what: str):
    try:
        return [float(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of reals") from None


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_divergence(args) -> int:
    w, _ = _resolve_channel(args)
    s = _scale(args.units)
    rows = []
    for alpha in args.alpha:
        params = _params(args, alpha)
        for x in w.alphabet:
            for y in w.alphabet:
                val = d_alpha_z(w.output(x), w.output(y), params)
                rows.append([x, y, alpha, params.z, float(val) * s])
    _write(render_rows(["x", "y", "alpha", "z", "value"], rows, args.format), args.output)
    return 0


def _cmd_center(args) -> int:
    w, p = _resolve_channel(args)
    params = _params(args, args.alpha[0])
    res = solve_center_D(w, p, params).require_converged(params)
    s = _scale(args.units)
    if args.format == "json":
        doc = {
            "alpha": params.alpha,
            "z": params.z,
            "units": args.units,
            "value": _json_number(res.value * s),
            "iterations": res.iterations,
            "residual": _json_number(res.residual),
            "converged": res.converged,
            "method": res.method,
            "heuristic": res.heuristic,
            "center": [[[_json_number(float(e.real)), _json_number(float(e.imag))]
                        for e in row] for row in res.center.mat],
        }
        _write(json.dumps(doc, indent=1) + "\n", args.output)
    else:
        rows = [[params.alpha, params.z, res.value * s, res.iterations,
                 res.residual, res.converged, res.method, res.heuristic]]
        _write(render_rows(
            ["alpha", "z", "value", "iterations", "residual", "converged",
             "method", "heuristic"], rows, args.format), args.output)
    return 0


def _cmd_chi(args) -> int:
    w, p = _resolve_channel(args)
    s = _scale(args.units)
    rows = []
    for alpha in args.alpha:
        params = _params(args, alpha)
        if args.beta is None:
            res = solve_center_D(w, p, params).require_converged(params)
            rows.append([alpha, params.z, res.value * s])
        else:
            value = weighted_radius_beta(w, p, params, args.beta)
            rows.append([alpha, params.z, args.beta, value * s])
    columns = ["alpha", "z", "chi"] if args.beta is None else ["alpha", "z", "beta", "value"]
    _write(render_rows(columns, rows, args.format), args.output)
    return 0


def _cmd_exponent_curve(args) -> int:
    w, p = _resolve_channel(args)
    curve = exponents.sc_curve(w, p, np.linspace(args.rmin, args.rmax, args.steps))
    _write(render_curve(curve, args.format, args.units), args.output)
    return 0


def _cmd_cutoff(args) -> int:
    w, p = _resolve_channel(args)
    s = _scale(args.units)
    cache = RadiusCache(w, p)
    rows = []
    for kappa in args.kappa:
        value = exponents.cutoff_rate(w, p, kappa, cache=cache)
        rows.append([kappa, 1.0 / (1.0 - kappa), value * s])
    _write(render_rows(["kappa", "alpha", "value"], rows, args.format), args.output)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verify  # imported here: verify pulls in classical
    # The bare token "random" (the default) lets verify draw its own channels.
    token = args.preset or args.input or "random"
    channel = None if token == "random" else _resolve_channel(args)
    return run_verify(seed=args.seed, channel=channel)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on the first `main` call and kept."""
    parser = argparse.ArgumentParser(
        prog="renyicq",
        description="Quantum Renyi divergence centers and coding exponents for cq channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, needs_output=True):
        sp.add_argument("--input", help="channel JSON path or preset token")
        sp.add_argument("--preset", help="noiseless:d or random:d:k[:seed]")
        sp.add_argument("--units", choices=["nats", "bits"], default="nats")
        sp.add_argument("--seed", type=int, default=42)
        if needs_output:
            sp.add_argument("--output", help="output path (default: stdout)")
            sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("divergence", help="pairwise divergences between channel outputs")
    common(sp)
    sp.add_argument("--alpha", required=True, help="comma-separated orders")
    sp.add_argument("--z", type=float, help="z parameter (default: z = alpha)")

    sp = sub.add_parser("center", help="weighted divergence center and radius")
    common(sp)
    sp.add_argument("--alpha", required=True, help="order alpha")
    sp.add_argument("--z", type=float, help="z parameter (default: z = alpha)")

    sp = sub.add_parser("chi", help="weighted radius chi for a list of orders")
    common(sp)
    sp.add_argument("--alpha", required=True, help="comma-separated orders")
    sp.add_argument("--z", type=float, help="z parameter (default: z = alpha)")
    sp.add_argument("--beta", type=float, help="compute the (P, beta)-weighted radius")

    sp = sub.add_parser("exponent-curve", help="strong converse exponent over a rate grid")
    common(sp)
    sp.add_argument("--rmin", type=float, required=True, help="lowest rate, in nats")
    sp.add_argument("--rmax", type=float, required=True, help="highest rate, in nats")
    sp.add_argument("--steps", type=int, required=True)

    sp = sub.add_parser("cutoff", help="generalized cutoff rates")
    common(sp)
    sp.add_argument("--kappa", required=True, help="comma-separated kappas in (0,1)")

    sp = sub.add_parser("verify", help="run the property suite")
    common(sp, needs_output=False)
    return parser


def _check_args(args):
    """Parse the comma-separated orders and kappas and check the values that
    argparse cannot: non-empty orders, kappas in (0, 1), an increasing rate
    range above 0 with at least 2 steps."""
    if getattr(args, "alpha", None) is not None:
        args.alpha = _parse_floats(args.alpha, "--alpha")
        if not args.alpha:
            raise ValueError("--alpha needs at least one value")
    if getattr(args, "kappa", None) is not None:
        args.kappa = _parse_floats(args.kappa, "--kappa")
        for k in args.kappa:
            if not 0.0 < k < 1.0:
                raise ValueError("--kappa values must lie in (0,1)")
    if args.command == "exponent-curve":
        if args.rmin <= 0.0:
            raise ValueError("rate range must start above 0")
        if args.steps < 2:
            raise ValueError("rate range needs at least 2 steps")
        if args.rmax <= args.rmin:
            raise ValueError("rate range must be increasing")


_HANDLERS = {
    "divergence": _cmd_divergence,
    "center": _cmd_center,
    "chi": _cmd_chi,
    "exponent-curve": _cmd_exponent_curve,
    "cutoff": _cmd_cutoff,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return _HANDLERS[args.command](args)
    except ChannelFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ResourceLimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except NonConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
