"""Cold center solves over fixed grids, for diffing a solver change against its parent.

Two grids, on the presets ``random:d:3:s`` with d in {2, 4, 8} and s in 1..5,
each solve cold (from W(P)) at the solvers' fixed budgets (trace-norm
residual 1e-10, at most 10000 sweeps):

* ``robust`` (765 solves): D sandwiched at alpha in
  {0.5, 0.7, 0.9, 1.5, 2, 4, 16, 64, 256, 600, 1024}; Q-bar and Tsallis
  sandwiched at {0.5, 0.7, 0.9, 1.5, 2, 4, 16, 64}; all three Petz at
  {0.1, 0.3, 0.5, 0.7, 0.9, 1.5, 2, 4}.
* ``small`` (225 solves): D, Q-bar and Tsallis Petz at alpha in
  {1e-3, 0.01, 0.03, 0.05, 0.09}.

Usage, from the repository root::

    python tools/center_sweep.py run robust out.json
    python tools/center_sweep.py diff parent.json change.json

``run`` imports renyicq from the ``src/`` next to this directory and writes
one JSON record per solve: the case, ``sweeps``, ``method``, ``converged``,
``value`` (or ``error``) and the solve's wall ``seconds``.  ``diff`` prints
the sweep totals, the solves left unconverged or not solved by the fixed
point, the solves whose sweeps rose (largest new/old ratio first), and the
largest relative value change; then, for each kind (D, Qbar, T), the sweep
totals, the microseconds per sweep (so "fewer sweeps" can be told from
"cheaper sweeps") and the number of solves whose sweeps or value changed.
Seconds are timings, never a changed value.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from renyicq.centers import (  # noqa: E402
    FIXED_POINT,
    solve_center_D,
    solve_center_Qbar,
    solve_center_tsallis,
)
from renyicq.channels import parse_preset  # noqa: E402
from renyicq.divergences import RenyiParams  # noqa: E402

SOLVERS = {"D": solve_center_D, "Qbar": solve_center_Qbar, "T": solve_center_tsallis}
PRESETS = [f"random:{d}:3:{s}" for d in (2, 4, 8) for s in range(1, 6)]
PETZ = (0.1, 0.3, 0.5, 0.7, 0.9, 1.5, 2.0, 4.0)
SANDWICHED_Q = (0.5, 0.7, 0.9, 1.5, 2.0, 4.0, 16.0, 64.0)
SANDWICHED_D = SANDWICHED_Q + (256.0, 600.0, 1024.0)
SMALL = (1e-3, 0.01, 0.03, 0.05, 0.09)


def cases(grid):
    """(kind, rule, alpha) of one grid, per preset."""
    if grid == "robust":
        yield from (("D", "sandwiched", a) for a in SANDWICHED_D)
        for kind in ("Qbar", "T"):
            yield from ((kind, "sandwiched", a) for a in SANDWICHED_Q)
        for kind in SOLVERS:
            yield from ((kind, "petz", a) for a in PETZ)
    else:
        for kind in SOLVERS:
            yield from ((kind, "petz", a) for a in SMALL)


def run(grid, out):
    records = []
    for preset in PRESETS:
        w, p = parse_preset(preset)
        for kind, rule, alpha in cases(grid):
            params = RenyiParams(alpha, alpha if rule == "sandwiched" else 1.0)
            rec = {"preset": preset, "kind": kind, "rule": rule, "alpha": alpha}
            start = time.perf_counter()
            try:
                res = SOLVERS[kind](w, p, params)
            except Exception as exc:  # recorded, so a diff shows it
                rec["error"] = f"{type(exc).__name__}: {exc}"
            else:
                rec.update(sweeps=res.iterations, method=res.method,
                           converged=bool(res.converged), value=float(res.value),
                           seconds=time.perf_counter() - start)
            records.append(rec)
    Path(out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} solves written to {out}")


def _key(rec):
    return rec["preset"], rec["kind"], rec["rule"], rec["alpha"]


def _unsolved(rec):
    return "error" in rec or not rec["converged"] or rec["method"] != FIXED_POINT


def diff(old_path, new_path):
    old = {_key(r): r for r in json.loads(Path(old_path).read_text(encoding="utf-8"))}
    new = {_key(r): r for r in json.loads(Path(new_path).read_text(encoding="utf-8"))}
    if old.keys() != new.keys():
        sys.exit("the two files hold different grids")
    for name, recs in (("old", old), ("new", new)):
        total = sum(r.get("sweeps", 0) for r in recs.values())
        bad = [k for k, r in recs.items() if _unsolved(r)]
        print(f"{name}: {total} sweeps, {len(bad)} not converged by the fixed point")
        for k in bad:
            print(f"  {k}: {recs[k].get('error') or recs[k]['method']}")
    rose = [(k, old[k]["sweeps"], new[k]["sweeps"]) for k in old
            if "sweeps" in old[k] and "sweeps" in new[k] and new[k]["sweeps"] > old[k]["sweeps"]]
    rose.sort(key=lambda r: r[2] / r[1], reverse=True)
    print(f"{len(rose)} solves took more sweeps")
    for k, a, b in rose:
        print(f"  {k}: {a} -> {b}")
    worst, where = 0.0, None
    for k in old:
        a, b = old[k].get("value"), new[k].get("value")
        if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
            continue
        rel = abs(b - a) / max(abs(a), 1e-300)
        if rel > worst:
            worst, where = rel, k
    print(f"largest relative value change {worst:.3g} at {where}")
    for kind in SOLVERS:
        keys = [k for k in old if k[1] == kind]
        totals = [sum(recs[k].get("sweeps", 0) for k in keys) for recs in (old, new)]
        sweeps = sum(old[k].get("sweeps") != new[k].get("sweeps") for k in keys)
        values = sum(old[k].get("value") != new[k].get("value") for k in keys)
        per_sweep = " -> ".join(_us_per_sweep(recs, keys) for recs in (old, new))
        print(f"{kind}: {totals[0]} -> {totals[1]} sweeps over {len(keys)} solves, "
              f"{per_sweep} us per sweep, "
              f"{sweeps} with changed sweeps, {values} with a changed value")


def _us_per_sweep(recs, keys):
    """Microseconds per sweep over the solves of ``keys`` (``n/a`` without timings)."""
    timed = [recs[k] for k in keys if "seconds" in recs[k]]
    sweeps = sum(r["sweeps"] for r in timed)
    if not sweeps:
        return "n/a"
    return f"{1e6 * sum(r['seconds'] for r in timed) / sweeps:.0f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="solve one grid and write its records")
    r.add_argument("grid", choices=("robust", "small"))
    r.add_argument("out")
    d = sub.add_parser("diff", help="compare two record files of one grid")
    d.add_argument("old")
    d.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.grid, args.out)
    else:
        diff(args.old, args.new)


if __name__ == "__main__":
    main()
