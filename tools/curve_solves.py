"""Center solves per strong converse curve, for diffing an exponent change against its parent.

For each preset in ``random:2:3:7``, ``random:2:3:8``, ``random:3:3:1`` and
``random:4:4:7``, one ``sc_curve`` runs on 24 rates from half the Holevo
quantity to log d + 0.05, with one shared radius cache.

Usage, from the repository root::

    python tools/curve_solves.py run out.json
    python tools/curve_solves.py diff parent.json change.json

``run`` imports renyicq from the ``src/`` next to this directory and writes
one record per preset: the sandwiched center solves (``solves``, counted at
``centers.CenterProblem.solve``, the one entry of every D and Q-bar solve)
and their fixed-point sweeps (``sweeps``), the alpha -> inf endpoint solves
(``chi_inf_solves``, 0 or 1 per cache), the wall time, and each rate's
(value, argmax).  ``diff`` prints both files' totals, the largest absolute
value change, the number of changed argmaxes and the largest argmax move
|du| in u = 1 - 1/alpha over the rates whose two argmaxes are finite,
overall and per preset.  Most changed argmaxes are Brent moves at the level
of its ``xatol`` (1e-7 in u); |du| tells them from a move of grid point.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from renyicq import centers, exponents  # noqa: E402
from renyicq.channels import parse_preset  # noqa: E402

PRESETS = ("random:2:3:7", "random:2:3:8", "random:3:3:1", "random:4:4:7")
RATES = 24


def curve(preset):
    """One record: the solves, sweeps and values of one 24-rate curve."""
    w, p = parse_preset(preset)
    rates = np.linspace(0.5 * centers.holevo_quantity(w, p)[0], math.log(w.dim) + 0.05, RATES)
    solves = []
    solve = centers.CenterProblem.solve

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        solves.append(res.iterations)
        return res

    cache = exponents.RadiusCache(w, p)
    centers.CenterProblem.solve = counted
    try:
        start = time.perf_counter()
        out = exponents.sc_curve(w, p, rates, cache=cache)
        seconds = time.perf_counter() - start
    finally:
        centers.CenterProblem.solve = solve
    return {"preset": preset, "solves": len(solves), "sweeps": int(sum(solves)),
            "chi_inf_solves": int(cache.chi_inf_center is not None),
            "seconds": round(seconds, 3), "rates": out.rates.tolist(),
            "values": out.values.tolist(), "argmax": out.maximizing_alpha.tolist()}


def run(out):
    records = []
    for preset in PRESETS:
        rec = curve(preset)
        print(f"{preset}: {rec['solves']} solves, {rec['sweeps']} sweeps, "
              f"{rec['chi_inf_solves']} chi_inf, {rec['seconds']} s")
        records.append(rec)
    Path(out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} curves written to {out}")


def diff(old_path, new_path):
    old = {r["preset"]: r for r in json.loads(Path(old_path).read_text(encoding="utf-8"))}
    new = {r["preset"]: r for r in json.loads(Path(new_path).read_text(encoding="utf-8"))}
    if old.keys() != new.keys() or any(old[k]["rates"] != new[k]["rates"] for k in old):
        sys.exit("the two files hold different curves")
    for name, recs in (("old", old), ("new", new)):
        totals = [sum(r[f] for r in recs.values())
                  for f in ("solves", "sweeps", "chi_inf_solves")]
        print(f"{name}: {totals[0]} solves, {totals[1]} sweeps, {totals[2]} chi_inf solves")
    worst, moved, shift = 0.0, 0, 0.0
    for k in old:
        a, b = old[k], new[k]
        w = max(abs(x - y) for x, y in zip(a["values"], b["values"]))
        m = sum(x != y for x, y in zip(a["argmax"], b["argmax"]))
        du = max((abs(1.0 / x - 1.0 / y) for x, y in zip(a["argmax"], b["argmax"])
                  if math.isfinite(x) and math.isfinite(y)), default=0.0)
        worst, moved, shift = max(worst, w), moved + m, max(shift, du)
        print(f"  {k}: solves {a['solves']} -> {b['solves']}, sweeps {a['sweeps']} -> "
              f"{b['sweeps']}, chi_inf {a['chi_inf_solves']} -> {b['chi_inf_solves']}, "
              f"largest value change {w:.3g}, {m} argmaxes changed, largest |du| {du:.3g}")
    print(f"largest value change {worst:.3g}, {moved} argmaxes changed, largest |du| {shift:.3g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run the four curves and write their records")
    r.add_argument("out")
    d = sub.add_parser("diff", help="compare two record files")
    d.add_argument("old")
    d.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.out)
    else:
        diff(args.old, args.new)


if __name__ == "__main__":
    main()
