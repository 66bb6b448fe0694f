"""Record what fixed sets of cases cost, or diff two such records.

* ``robust`` (765 cases, by kind): cold center solves on ``random:d:3:s``,
  d in {2, 4, 8} and s in 1..5: D sandwiched at ``SANDWICHED`` and 256, 600,
  1024; Q-bar and Tsallis sandwiched at ``SANDWICHED``; all three at ``PETZ``.
* ``small`` (225, by kind): the three Petz at {1e-3, 0.01, 0.03, 0.05, 0.09}.
* ``curves`` (4, by preset): a 24-rate strong converse curve from half the
  Holevo quantity to log d + 0.05 with one radius cache, also recording each
  rate's ``argmax``, its ``gap`` (the upper bound of the tangent bracket
  minus the value, null unless the argmax is a finite order above 1) and
  the ``chi_inf_solves``.
* ``bounds`` (8, by kind): ``sphere_packing_bound`` and
  ``random_coding_exponent`` at 24 rates from 0.3 to 1.1 times the Holevo
  quantity on each ``curves`` preset, with one radius cache per case, also
  recording each rate's tangent-bracket ``gap`` (null without a bracket).
* ``radii`` (88): ``divergence_radius`` (``grid``) and ``weighted_radius_beta``
  at beta = inf (``beta_inf``) on ``random_cq_channel(d, 3, default_rng(s))``.
* ``verify`` (24): ``renyicq verify --seed s`` for s = 1..24, in process.

Usage, from the repository root::

    python tools/record.py run robust out.json
    python tools/record.py diff parent.json change.json

``run`` imports renyicq from the ``src/`` next to this directory (exit 2 if it
got another copy) and writes one record per case: ``set``, ``case`` (its key),
``group``, the ``solves`` and ``sweeps`` counted at ``CenterProblem.solve``,
the wall ``seconds``, the ``value`` (or the ``error`` raised) and a ``flag``:
null, or why the case did not finish cleanly (a solve unconverged or not by
the fixed point, a radius ascent capped at 500 rounds, a bound's warning, a
non-zero verify exit).  Its last line is the set's totals, overall and per group, as JSON in
the shape of a ``BENCH_<n>.json`` tools entry.  ``diff`` compares two records
of one set; seconds are timings, never a changed value.
"""

import argparse
import contextlib
import io
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import renyicq  # noqa: E402
from renyicq import centers, cli, exponents  # noqa: E402
from renyicq.channels import parse_preset, random_cq_channel  # noqa: E402
from renyicq.divergences import RenyiParams  # noqa: E402

PRESETS = [f"random:{d}:3:{s}" for d in (2, 4, 8) for s in range(1, 6)]
SANDWICHED = (0.5, 0.7, 0.9, 1.5, 2.0, 4.0, 16.0, 64.0)
PETZ = (0.1, 0.3, 0.5, 0.7, 0.9, 1.5, 2.0, 4.0)
SOLVERS = {"D": centers.solve_center_D, "Qbar": centers.solve_center_Qbar,
           "T": centers.solve_center_tsallis}
ORDERS = {
    "robust": [("D", "sandwiched", a) for a in SANDWICHED + (256.0, 600.0, 1024.0)]
    + [(kind, "sandwiched", a) for kind in ("Qbar", "T") for a in SANDWICHED]
    + [(kind, "petz", a) for kind in SOLVERS for a in PETZ],
    "small": [(kind, "petz", a) for kind in SOLVERS for a in (1e-3, 0.01, 0.03, 0.05, 0.09)],
}
CURVES = ("random:2:3:7", "random:2:3:8", "random:3:3:1", "random:4:4:7")
RADII = {"grid": ((("sandwiched", 2.0), ("petz", 0.7), ("sandwiched", 16.0)), (2, 3, 4), range(8)),
         "beta_inf": ((("sandwiched", 2.0), ("petz", 0.7)), (2, 3), range(4))}


def cases(name):
    """The (group, case) pairs of one set, in run order."""
    if name in ORDERS:
        return [(kind, [preset, kind, rule, alpha])
                for preset in PRESETS for kind, rule, alpha in ORDERS[name]]
    if name == "curves":
        return [(preset, [preset]) for preset in CURVES]
    if name == "bounds":
        return [(kind, [preset, kind]) for preset in CURVES
                for kind in ("sphere_packing", "random_coding")]
    if name == "radii":
        return [(group, [group, rule, alpha, d, seed])
                for group, (rules, dims, seeds) in RADII.items()
                for rule, alpha in rules for d in dims for seed in seeds]
    return [("verify", [seed]) for seed in range(1, 25)]


def center(preset, kind, rule, alpha):
    """One cold center solve's value and flag."""
    params = RenyiParams(alpha, alpha if rule == "sandwiched" else 1.0)
    res = SOLVERS[kind](*parse_preset(preset), params)
    clean = res.converged and res.method == centers.FIXED_POINT
    return {"value": float(res.value),
            "flag": None if clean else f"{res.method}, residual {res.residual:.2e}"}


def curve(preset):
    """One 24-rate strong converse curve's values, argmaxes, gaps and chi_inf
    solves; each gap reads the bracket off the cache right after its rate."""
    w, p = parse_preset(preset)
    rates = np.linspace(0.5 * centers.holevo_quantity(w, p)[0], math.log(w.dim) + 0.05, 24)
    cache = exponents.RadiusCache(w, p)
    values, argmax, gaps = [], [], []
    for rate in rates:
        value, alpha = exponents.sc_exponent(w, p, float(rate), cache=cache)
        pts = exponents.radius_samples(cache, float(rate), 0.0, 1.0)
        upper = exponents.bracket(pts, float(rate))[2] if 1.0 < alpha < math.inf else None
        values.append(value)
        argmax.append(alpha)
        gaps.append(upper - value if upper is not None and math.isfinite(upper) else None)
    return {"value": values, "flag": None, "argmax": argmax, "gap": gaps,
            "chi_inf_solves": int(cache.chi_inf_center is not None)}


def bound(preset, kind):
    """One 24-rate sphere-packing or random-coding curve with each rate's
    gap, read off the cache's samples as in `curve`, flagged by the first
    warning it raised (a dropped order, or the sphere-packing floor)."""
    w, p = parse_preset(preset)
    cache = exponents.RadiusCache(w, p)
    lo = 1.0 - 1.0 / exponents.SP_ALPHA_MIN
    values, gaps = [], []
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        for rate in np.linspace(0.3, 1.1, 24) * cache.holevo():
            if kind == "sphere_packing":
                values.append(float(exponents.sphere_packing_bound(w, p, rate, cache=cache)))
                pts = exponents.radius_samples(cache, rate, lo, 0.0)
            else:
                values.append(float(exponents.random_coding_exponent(w, p, rate, cache=cache)))
                pts = exponents.moment_samples(cache, rate)
            upper = exponents.bracket(pts, rate)[2]
            gaps.append(upper - values[-1] if math.isfinite(upper) else None)
    return {"value": values, "flag": str(log[0].message) if log else None, "gap": gaps}


def radius(group, rule, alpha, d, seed):
    """One unweighted radius, flagged by the warning of an ascent capped at 500 rounds."""
    w, p = random_cq_channel(d, 3, np.random.default_rng(seed))
    params = RenyiParams(alpha, alpha if rule == "sandwiched" else 1.0)
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        if group == "grid":
            value = centers.divergence_radius(w, params)[0]
        else:
            value = centers.weighted_radius_beta(w, p, params, math.inf)
    caps = [str(e.message) for e in log if "after 500 rounds" in str(e.message)]
    return {"value": float(value), "flag": caps[0] if caps else None}


def verify(seed):
    """One ``renyicq verify --seed``: its exit code, flagged by its non-PASS lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(["verify", "--seed", str(seed)])
    notes = [ln for ln in out.getvalue().splitlines() if not ln.startswith("PASS")]
    return {"value": code, "flag": (f"exit {code}: " + "; ".join(notes)) if code else None}


@contextlib.contextmanager
def counting():
    """Count the block's ``CenterProblem.solve`` calls and sweeps into the
    yielded dict; the method is restored however the block ends."""
    tally = {"solves": 0, "sweeps": 0}
    solve = centers.CenterProblem.solve

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        tally["solves"] += 1
        tally["sweeps"] += res.iterations
        return res

    centers.CenterProblem.solve = counted
    try:
        yield tally
    finally:
        centers.CenterProblem.solve = solve


def measure(name, group, case):
    """The record of one case."""
    with counting() as tally:
        start = time.perf_counter()
        try:
            outcome = {"curves": curve, "bounds": bound, "radii": radius,
                        "verify": verify}.get(name, center)(*case)
        except Exception as exc:  # recorded, so a diff shows it
            error = f"{type(exc).__name__}: {exc}"
            outcome = {"error": error, "flag": f"raised {error}"}
        seconds = time.perf_counter() - start
    return {"set": name, "case": case, "group": group, **tally, "seconds": seconds, **outcome}


def totals(recs):
    """Solves, sweeps, flagged cases, seconds (and chi_inf solves) of records."""
    recs = list(recs)
    out = {key: sum(r.get(key, 0) for r in recs) for key in ("solves", "sweeps", "chi_inf_solves")
           if any(key in r for r in recs)}
    return {**out, "flagged": sum(r["flag"] is not None for r in recs),
            "seconds": round(sum(r["seconds"] for r in recs), 2)}


def run(name, out):
    records = []
    for group, case in cases(name):
        records.append(measure(name, group, case))
        if records[-1]["flag"] is not None:
            print(f"flagged {case}: {records[-1]['flag']}", flush=True)
    Path(out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} cases written to {out}")
    groups = dict.fromkeys(r["group"] for r in records)
    line = {**totals(records),
            "groups": {g: totals(r for r in records if r["group"] == g) for g in groups}}
    print(json.dumps({name: line}))


def _summary(recs):
    recs = list(recs)
    sums = totals(recs)
    us = f"{1e6 * sums['seconds'] / sums['sweeps']:.0f}" if sums["sweeps"] else "n/a"
    gaps = [g for r in recs for g in r.get("gap", ()) if g is not None]
    text = ", ".join(f"{v} {k}" for k, v in sums.items()) + f", {us} us per sweep"
    return text + (f", largest gap {max(gaps):.3g}" if gaps else "")


def _changes(old, new, keys):
    """How many of ``keys`` changed sweeps, value and argmax, and the largest
    argmax move |du| in u = 1 - 1/alpha (the tangent search's bracket stops at
    a width of 1e-7 in u, so a smaller move is no move to another order)."""
    text = (f"{sum(old[k]['sweeps'] != new[k]['sweeps'] for k in keys)} of {len(keys)} "
            f"with changed sweeps, {sum(old[k].get('value') != new[k].get('value') for k in keys)} "
            "with a changed value")
    pairs = [ab for k in keys for ab in zip(old[k].get("argmax", ()), new[k].get("argmax", ()))]
    if pairs:
        du = max((abs(1.0 / a - 1.0 / b) for a, b in pairs
                  if math.isfinite(a) and math.isfinite(b)), default=0.0)
        text += f", {sum(a != b for a, b in pairs)} argmaxes changed, largest |du| {du:.3g}"
    return text


def diff(old_path, new_path):
    """Both files' totals per group, with the microseconds per sweep, the
    largest curve gap and each flagged case; the newly flagged cases; the
    cases whose sweeps rose, largest ratio first; how many fell, and the
    largest fall by ratio; the changed sweeps and
    values (and argmaxes) per group; the largest value rise and drop,
    absolute and relative to max(1, |old|), the scale of the package's
    tolerances (radii are upper bounds, so the sign matters)."""
    old, new = ({tuple(r["case"]): r for r in json.loads(Path(path).read_text(encoding="utf-8"))}
                for path in (old_path, new_path))
    if old.keys() != new.keys():
        sys.exit("the two files hold different cases")
    groups = list(dict.fromkeys(r["group"] for r in old.values()))
    for label, recs in (("old", old), ("new", new)):
        print(f"{label}: {_summary(recs.values())}")
        for g in groups:
            print(f"  {g}: {_summary(r for r in recs.values() if r['group'] == g)}")
        for k, r in recs.items():
            if r["flag"] is not None:
                print(f"  flagged {k}: {r['flag']}")
    newly = [k for k in old if new[k]["flag"] is not None and old[k]["flag"] is None]
    print(f"{len(newly)} newly flagged")
    for k in newly:
        print(f"  {k}: {new[k]['flag']}")
    rose = sorted((k for k in old if new[k]["sweeps"] > old[k]["sweeps"]), reverse=True,
                  key=lambda k: new[k]["sweeps"] / max(old[k]["sweeps"], 1))
    print(f"{len(rose)} cases took more sweeps")
    for k in rose:
        print(f"  {k}: {old[k]['sweeps']} -> {new[k]['sweeps']}")
    fell = [k for k in old if new[k]["sweeps"] < old[k]["sweeps"]]
    print(f"{len(fell)} cases took fewer sweeps")
    if fell:
        k = max(fell, key=lambda k: old[k]["sweeps"] / max(new[k]["sweeps"], 1))
        print(f"  largest fall {k}: {old[k]['sweeps']} -> {new[k]['sweeps']}")
    for g in groups:
        print(f"{g}: {_changes(old, new, [k for k in old if old[k]['group'] == g])}")
    print(f"all: {_changes(old, new, list(old))}")
    moves = [(b - a, (b - a) / max(abs(a), 1.0), k) for k in old
             for a, b in zip(np.ravel(old[k].get("value", math.nan)),
                             np.ravel(new[k].get("value", math.nan)))
             if math.isfinite(a) and math.isfinite(b)]
    for word, sign in (("rise", 1.0), ("drop", -1.0)):
        for kind, i in (("absolute", 0), ("relative", 1)):
            move = max(moves, key=lambda m: sign * m[i], default=(0.0, 0.0, None))
            found = f"{sign * move[i]:.3g} at {move[2]}" if sign * move[i] > 0.0 else "none"
            print(f"largest {kind} value {word}: {found}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run one set and write its records")
    r.add_argument("set", choices=(*ORDERS, "curves", "bounds", "radii", "verify"))
    r.add_argument("out")
    d = sub.add_parser("diff", help="compare two record files of one set")
    d.add_argument("old")
    d.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "diff":
        diff(args.old, args.new)
    elif Path(renyicq.__file__).resolve().parent != SRC / "renyicq":
        sys.stderr.write(f"error: renyicq was imported from {renyicq.__file__}, not from {SRC}\n")
        return 2
    else:
        run(args.set, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
