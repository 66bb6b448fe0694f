"""Checked benchmark of renyicq: exponent curves, radius solves and the
scalar cross-check.

Run from the repository root:

    python3 perfbench/run.py --workload radii --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` next to this directory.  One run sets
up the workload several times (reporting the median set-up time), then
repeats whole rounds of the workload within ``--seconds`` and checks every
output of every round against the reference code in
``reference.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 1``
the run measures untraced rounds for half the time and traced rounds for
the other half, prints the per-layer table and reports per-layer metrics;
the spans are written to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import weakref  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
from tracing import SpanStats, Tracer  # noqa: E402

SETUP_REPEATS = 15
LN2 = math.log(2.0)
# Errors an operation may raise; any of them counts the operation as failed.
OP_ERRORS = (ValueError, RuntimeError, ArithmeticError)
# Orders of the reference lower bounds on the strong converse exponent.
BOUND_ORDERS = (1.5, 2.0, 4.0, 16.0)
# Slack for comparisons of values printed with 12 significant digits.
CURVE_TOL = 1e-9


class Tally:
    """Collects failed operations and failed checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def fail(self, what, count=1):
        self.attempted += count
        self.failed += count
        sys.stderr.write(f"failed: {what}\n")

    def ok(self, count=1):
        self.attempted += count

    def expect(self, condition, what):
        if not condition:
            self.wrong.append(what)


def _channel_arrays(w, p):
    support = p.support
    states = np.stack([np.asarray(w.output(s).mat, dtype=complex) for s in support])
    probs = np.array([p.probability(s) for s in support])
    return states, probs


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class CurveWorkload:
    """renyicq.cli.main(["exponent-curve", ...]) in-process on fixed presets.

    The presets are fixed; the seed moves both ends of each rate grid.  The
    rates run from about half the Holevo quantity to just above log 2.
    """

    modules = ("cli",)

    def __init__(self, tag, presets, steps):
        self.tag = tag
        self.presets = presets
        self.steps = steps

    def prepare(self, rq, seed):
        rng = np.random.default_rng([seed, self.tag])
        self.cases = []
        for token in self.presets:
            w, p = rq.channels.parse_preset(token)
            states, probs = _channel_arrays(w, p)
            rmin = rng.uniform(0.45, 0.55) * ref.holevo(states, probs)
            rmax = LN2 + rng.uniform(0.02, 0.08)
            argv = ["exponent-curve", "--preset", token, "--rmin", repr(rmin),
                    "--rmax", repr(rmax), "--steps", str(self.steps)]
            self.cases.append({"token": token, "argv": argv, "states": states,
                               "probs": probs, "rates": np.linspace(rmin, rmax, self.steps)})

    def warm_up(self, rq):
        with contextlib.redirect_stdout(io.StringIO()):
            rq.cli.main(["center", "--preset", "noiseless:2", "--alpha", "2"])

    def reference(self):
        for case in self.cases:
            states, probs, rates = case["states"], case["probs"], case["rates"]
            avg = ref.average(states, probs)
            case["holevo"] = ref.holevo(states, probs)
            lower = rates - ref.weighted_d_max(states, probs, avg)
            for alpha in BOUND_ORDERS:
                f_avg = ref.radius_objective(states, probs, avg, alpha)
                lower = np.maximum(lower, (1.0 - 1.0 / alpha) * (rates - f_avg))
            case["lower"] = lower

    def run_round(self, rq):
        outputs = []
        for case in self.cases:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = rq.cli.main(case["argv"])
            outputs.append((code, buf.getvalue()))
        return outputs

    def check(self, outputs, tally: Tally):
        for case, (code, text) in zip(self.cases, outputs):
            token, rates = case["token"], case["rates"]
            lines = text.strip().split("\n")
            if code != 0 or len(lines) != self.steps + 1:
                tally.fail(f"{token}: exit code {code}", self.steps)
                continue
            tally.ok(self.steps)
            tally.expect(lines[0] == "R,value,argmax_alpha", f"{token}: header {lines[0]!r}")
            table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            r, sc = table[:, 0], table[:, 1]
            tally.expect(np.allclose(r, rates, rtol=1e-11, atol=0.0), f"{token}: rate column")
            excess = np.maximum(0.0, rates - case["holevo"])
            tally.expect(np.all(sc >= 0.0), f"{token}: negative exponent")
            tally.expect(np.all(sc <= excess + CURVE_TOL), f"{token}: above max(0, R - Holevo)")
            tally.expect(np.all(sc >= case["lower"] - CURVE_TOL),
                      f"{token}: below a reference lower bound")
            slopes = np.diff(sc) / np.diff(rates)
            tally.expect(np.all(slopes >= -CURVE_TOL) and np.all(slopes <= 1.0 + 1e-6),
                      f"{token}: slope outside [0, 1]")
            tally.expect(np.all(sc[1:-1] <= 0.5 * (sc[:-2] + sc[2:]) + CURVE_TOL),
                      f"{token}: midpoint convexity")
            if token.startswith("noiseless:"):
                tally.expect(np.allclose(sc, np.maximum(0.0, rates - LN2), rtol=0.0, atol=1e-9),
                          f"{token}: not max(0, R - log 2)")


class RadiiWorkload:
    """Cold solve_center_D calls, sandwiched rule, no warm start.

    The channels are the presets random:d:3:7 for d = 2, 4, 8, 16, each
    conjugated by a Haar-random unitary drawn from the seed.
    """

    modules = ()
    dims = (2, 4, 8, 16)
    orders = (0.5, 0.7, 0.9, 1.5, 4.0, 16.0, 64.0, 256.0)
    directions = 2
    value_tol = 1e-9
    # Bound on |F'| / max(1, F'') at the center along a unit traceless
    # direction, F' and F'' by central differences.  Converged solves
    # (residual 1e-10) give at most 3e-9 on these channels, while F' at
    # W(P), which is not stationary, ranges from 3e-3 to 0.6.
    stationary_tol = 1e-6

    def prepare(self, rq, seed):
        rng = np.random.default_rng([seed, 3])
        self.params = [rq.RenyiParams.sandwiched(a) for a in self.orders]
        self.cases = []
        for d in self.dims:
            w0, p = rq.channels.parse_preset(f"random:{d}:3:7")
            u = ref.haar_unitary(rng, d)
            w = rq.GcqChannel({s: rq.DensityOperator(u @ w0.output(s).mat @ u.conj().T)
                               for s in w0.alphabet})
            states, probs = _channel_arrays(w, p)
            dirs = [ref.random_traceless(rng, d) for _ in range(self.directions)]
            self.cases.append({"d": d, "w": w, "p": p, "states": states,
                               "probs": probs, "dirs": dirs})

    def warm_up(self, rq):
        w, p = rq.noiseless_channel(2)
        rq.solve_center_D(w, p, rq.RenyiParams.sandwiched(2.0))

    def reference(self):
        for case in self.cases:
            states, probs, d = case["states"], case["probs"], case["d"]
            case["holevo"] = ref.holevo(states, probs)
            avg = ref.average(states, probs)
            case["f_avg"] = [ref.radius_objective(states, probs, avg, a) for a in self.orders]
            case["f_mixed"] = [ref.radius_objective(states, probs, np.eye(d) / d, a)
                               for a in self.orders]

    def run_round(self, rq):
        outputs = []
        for case in self.cases:
            row = []
            for params in self.params:
                try:
                    row.append(rq.solve_center_D(case["w"], case["p"], params))
                except OP_ERRORS as exc:
                    row.append(exc)
            outputs.append(row)
        return outputs

    def check(self, outputs, tally: Tally):
        for case, row in zip(self.cases, outputs):
            d, states, probs = case["d"], case["states"], case["probs"]
            previous = -math.inf
            for i, (alpha, res) in enumerate(zip(self.orders, row)):
                label = f"d={d} alpha={alpha}"
                if isinstance(res, Exception) or not res.converged:
                    tally.fail(f"{label}: {res!r}")
                    continue
                tally.ok()
                sigma = np.asarray(res.center.mat, dtype=complex)

                def objective(s, a=alpha):
                    return ref.radius_objective(states, probs, s, a)

                value = res.value
                tol = self.value_tol * max(1.0, abs(value))
                tally.expect(abs(value - objective(sigma)) <= tol, f"{label}: value != F(center)")
                tally.expect(value <= case["f_avg"][i] + tol, f"{label}: above F(W(P))")
                tally.expect(value <= case["f_mixed"][i] + tol, f"{label}: above F(I/d)")
                tally.expect(-tol <= value <= math.log(d) + tol, f"{label}: outside [0, log d]")
                if alpha < 1.0:
                    tally.expect(value <= case["holevo"] + tol, f"{label}: above Holevo")
                else:
                    tally.expect(value >= case["holevo"] - tol, f"{label}: below Holevo")
                tally.expect(value >= previous - tol, f"{label}: smaller than at a lower order")
                previous = value
                step = 1e-4 * float(np.linalg.eigvalsh(sigma)[0])
                for h in case["dirs"]:
                    slope, curvature = ref.directional_derivative(objective, sigma, h, step)
                    tally.expect(abs(slope) <= self.stationary_tol * max(1.0, abs(curvature)),
                              f"{label}: not stationary (slope {slope:.2e})")


class CrosscheckWorkload:
    """Operator-path sc_curve against ClassicalChannel.sc_exponent on a
    diagonal d=3 channel.

    The channel is fixed; the seed moves both ends of the rate grid, which
    runs from about 0.6 to 2.2 times the mutual information.
    """

    modules = ("classical",)
    n_rates = 4
    agree_tol = 1e-6
    orders = (1.5, 2.0, 4.0, 16.0)

    def prepare(self, rq, seed):
        fixed = np.random.default_rng(7)
        self.rows = fixed.dirichlet(np.ones(3), size=3)
        self.weights = fixed.dirichlet(np.ones(3))
        self.w = rq.GcqChannel({str(i): rq.HermitianOperator(np.diag(row).astype(complex))
                                for i, row in enumerate(self.rows)})
        self.p = rq.InputDistribution({str(i): float(x) for i, x in enumerate(self.weights)})
        states = np.stack([np.diag(row).astype(complex) for row in self.rows])
        self.holevo = ref.holevo(states, self.weights)
        rng = np.random.default_rng([seed, 4])
        lo, hi = rng.uniform(0.55, 0.65), rng.uniform(2.1, 2.3)
        self.rates = np.linspace(lo * self.holevo, hi * self.holevo, self.n_rates)

    def warm_up(self, rq):
        rq.classical.ClassicalChannel([[0.5, 0.5], [0.25, 0.75]], [0.5, 0.5]).augustin_radius(2.0)
        w, p = rq.noiseless_channel(2)
        rq.solve_center_D(w, p, rq.RenyiParams.sandwiched(2.0))

    def reference(self):
        self.sibson = [ref.sibson_radius(self.rows, self.weights, a) for a in self.orders]

    def run_round(self, rq):
        oracle = rq.classical.ClassicalChannel(self.rows, self.weights)
        try:
            curve = rq.sc_curve(self.w, self.p, self.rates).values
        except OP_ERRORS as exc:
            curve = exc
        scalar = []
        for rate in self.rates:
            try:
                scalar.append(oracle.sc_exponent(float(rate)))
            except OP_ERRORS as exc:
                scalar.append(exc)
        return curve, scalar, oracle

    def check(self, outputs, tally: Tally):
        curve, scalar, oracle = outputs
        for i, (rate, ref_value) in enumerate(zip(self.rates, scalar)):
            label = f"R={rate:.6f}"
            if isinstance(curve, Exception) or isinstance(ref_value, Exception):
                tally.fail(f"{label}: {curve if isinstance(curve, Exception) else ref_value!r}")
                continue
            tally.ok()
            tally.expect(abs(curve[i] - ref_value) <= self.agree_tol,
                      f"{label}: operator path {float(curve[i])!r} vs oracle {ref_value!r}")
        for alpha, sibson in zip(self.orders, self.sibson):
            augustin = oracle.augustin_radius(alpha)
            tally.expect(self.holevo - 1e-9 <= augustin <= sibson + 1e-9,
                      f"alpha={alpha}: Holevo {self.holevo} <= Augustin {augustin} "
                      f"<= Sibson {sibson} fails")


WORKLOADS = {
    "curve-qubit": lambda: CurveWorkload(
        1, ("random:2:3:7", "random:2:3:8", "random:2:3:9", "noiseless:2"), steps=6),
    "curve-d4": lambda: CurveWorkload(2, ("random:4:4:7",), steps=5),
    "radii": RadiiWorkload,
    "crosscheck": CrosscheckWorkload,
}


# ---------------------------------------------------------------------------
# Set-up, tracing and the measurement loop
# ---------------------------------------------------------------------------

def set_up(workload, seed):
    """Import renyicq afresh, build the inputs and warm up, several times.

    Returns the package and the median set-up time.  numpy and scipy stay
    imported after the first repetition.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "renyicq" or m.startswith("renyicq.")]:
            del sys.modules[name]
        t0 = perf_counter()
        rq = importlib.import_module("renyicq")
        for sub in workload.modules:
            importlib.import_module(f"renyicq.{sub}")
        workload.prepare(rq, seed)
        workload.warm_up(rq)
        times.append(perf_counter() - t0)
    if Path(rq.__file__).resolve().parent != SRC / "renyicq":
        raise ImportError(f"renyicq was imported from {rq.__file__}, not from {SRC}")
    return rq, statistics.median(times)


# (module, attribute, span name) for functions, wrapped in every renyicq
# module that binds the same function object under that name.
TRACED_FUNCTIONS = (
    ("renyicq.cli", "main", "cli.main"),
    ("renyicq.exponents", "sc_exponent", "exponents.sc_exponent"),
    ("renyicq.centers", "solve_center_D", "centers.solve_center_D"),
    ("renyicq.backend", "center_sweep", "backend.center_sweep"),
    ("renyicq.backend", "q_sweep", "backend.q_sweep"),
    ("renyicq.divergences", "d_alpha_z", "divergences.d_alpha_z"),
)
# (module, class, method, span name)
TRACED_METHODS = (
    ("renyicq.exponents", "RadiusCache", "chi", "exponents.chi"),
    ("renyicq.exponents", "RadiusCache", "chi_inf", "exponents.chi_inf"),
    ("renyicq.classical", "ClassicalChannel", "sc_exponent", "classical.sc_exponent"),
    ("renyicq.classical", "ClassicalChannel", "augustin_radius", "classical.augustin_radius"),
    ("renyicq.classical", "ClassicalChannel", "dmax_radius", "classical.dmax_radius"),
)


def install_tracer(tracer):
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "renyicq" or n.startswith("renyicq.")]
    solved = weakref.WeakSet()

    def first_call(args, _result):
        # chi_inf solves once per RadiusCache and returns the cached value after.
        if args[0] in solved:
            return 0
        solved.add(args[0])
        return 1

    notes = {
        "centers.solve_center_D": lambda args, res: (res.iterations, res.method),
        "exponents.chi_inf": first_call,
    }
    for module, attr, name in TRACED_FUNCTIONS:
        if module not in sys.modules:
            continue
        fn = getattr(sys.modules[module], attr)
        for mod in modules:
            if getattr(mod, attr, None) is fn:
                tracer.patch(mod, attr, name, notes.get(name))
    for module, cls, attr, name in TRACED_METHODS:
        if module in sys.modules:
            tracer.patch(getattr(sys.modules[module], cls), attr, name, notes.get(name))


# (metric, unit) in the order of the per-layer table.
PER_LAYER = (
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("exponents.sc_exponent.calls", "count"),
    ("exponents.sc_exponent.self_s", "s"),
    ("exponents.chi.calls", "count"),
    ("exponents.chi.hit_ratio", "ratio"),
    ("exponents.chi_inf.solves", "count"),
    ("exponents.chi_inf.s", "s"),
    ("centers.solve_center_D.calls", "count"),
    ("centers.solve_center_D.s", "s"),
    ("centers.solve_center_D.self_s", "s"),
    ("centers.iterations", "count"),
    ("centers.iterations_per_solve", "count"),
    ("centers.fallbacks", "count"),
    ("backend.center_sweep.calls", "count"),
    ("backend.center_sweep.s", "s"),
    ("backend.center_sweep.us_per_call", "us"),
    ("backend.q_sweep.calls", "count"),
    ("backend.q_sweep.s", "s"),
    ("divergences.d_alpha_z.calls", "count"),
    ("divergences.d_alpha_z.s", "s"),
    ("classical.sc_exponent.self_s", "s"),
    ("classical.augustin_radius.calls", "count"),
    ("classical.augustin_radius.s", "s"),
    ("classical.dmax_radius.s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics(spans, rounds, overhead):
    """Per-layer metrics per traced round."""
    st = SpanStats(spans)
    solves = st.notes("centers.solve_center_D")
    iterations = sum(n[0] for n in solves)
    chi_calls = st.calls["exponents.chi"]
    chi_hits = st.count_without_child("exponents.chi", "centers.solve_center_D")
    sweeps = st.calls["backend.center_sweep"]
    values = {
        "cli.main.s": st.total["cli.main"],
        "cli.self_s": st.self_time["cli.main"],
        "exponents.sc_exponent.calls": st.calls["exponents.sc_exponent"],
        "exponents.sc_exponent.self_s": st.self_time["exponents.sc_exponent"],
        "exponents.chi.calls": chi_calls,
        "exponents.chi_inf.solves": sum(st.notes("exponents.chi_inf")),
        "exponents.chi_inf.s": st.total["exponents.chi_inf"],
        "centers.solve_center_D.calls": len(solves),
        "centers.solve_center_D.s": st.total["centers.solve_center_D"],
        "centers.solve_center_D.self_s": st.self_time["centers.solve_center_D"],
        "centers.iterations": iterations,
        "centers.fallbacks": sum(1 for n in solves if n[1] == "direct_minimization"),
        "backend.center_sweep.calls": sweeps,
        "backend.center_sweep.s": st.total["backend.center_sweep"],
        "backend.q_sweep.calls": st.calls["backend.q_sweep"],
        "backend.q_sweep.s": st.total["backend.q_sweep"],
        "divergences.d_alpha_z.calls": st.calls["divergences.d_alpha_z"],
        "divergences.d_alpha_z.s": st.total["divergences.d_alpha_z"],
        "classical.sc_exponent.self_s": st.self_time["classical.sc_exponent"],
        "classical.augustin_radius.calls": st.calls["classical.augustin_radius"],
        "classical.augustin_radius.s": st.total["classical.augustin_radius"],
        "classical.dmax_radius.s": st.total["classical.dmax_radius"],
    }
    values = {k: v / rounds for k, v in values.items()}
    # Ratios are per call, so they are taken before dividing by the rounds.
    values["exponents.chi.hit_ratio"] = chi_hits / chi_calls if chi_calls else 0.0
    values["centers.iterations_per_solve"] = iterations / len(solves) if solves else 0.0
    values["backend.center_sweep.us_per_call"] = (
        1e6 * st.total["backend.center_sweep"] / sweeps if sweeps else 0.0)
    values["trace.overhead_s"] = overhead
    return values


def measure(workload, rq, seconds, tally, tracer=None):
    """Run whole rounds within ``seconds``, at least one; return round times.

    A round is not started when the previous round's time says it would end
    past ``seconds``.  So a workload whose round takes more than half of
    ``seconds`` always runs exactly one round, however close that round's
    time is to ``seconds``.
    """
    times = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        outputs = workload.run_round(rq)
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        workload.check(outputs, tally)
        if perf_counter() - start + times[-1] > seconds:
            return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "renyicq" / "__init__.py").is_file():
        sys.stderr.write(f"error: no renyicq package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    rq, setup_s = set_up(workload, args.seed)
    workload.reference()
    tally = Tally()

    if not args.trace:
        times = measure(workload, rq, args.seconds, tally)
        metrics = {
            "wall_s": (statistics.median(times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"rounds: {len(times)}, round times (s): "
              + ", ".join(f"{t:.4f}" for t in times))
    else:
        untraced = measure(workload, rq, args.seconds / 2.0, tally)
        tracer = Tracer()
        install_tracer(tracer)
        traced = measure(workload, rq, args.seconds / 2.0, tally, tracer)
        tracer.restore()
        wall_untraced, wall_traced = statistics.median(untraced), statistics.median(traced)
        layer = per_layer_metrics(tracer.spans, len(traced), wall_traced - wall_untraced)
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"{args.workload}-seed{args.seed}.spans.csv"
        tracer.write(trace_path)
        print(f"traced rounds: {len(traced)}, untraced rounds: {len(untraced)}; "
              f"wall_s untraced {wall_untraced:.4f}, traced {wall_traced:.4f}, "
              f"tracing overhead {wall_traced - wall_untraced:+.4f} s; "
              f"spans: {len(tracer.spans)} in {trace_path.relative_to(HERE.parent)}")
        for name, unit in PER_LAYER:
            share = ""
            if unit == "s" and name != "trace.overhead_s":
                share = f"  {100.0 * layer[name] / wall_traced:5.1f}% of traced wall_s"
            print(f"  {name:34s} {layer[name]:14.6g} {unit}{share}")

    for what in tally.wrong[:20]:
        sys.stderr.write(f"wrong: {what}\n")
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
