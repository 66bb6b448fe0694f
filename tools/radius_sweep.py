"""Unweighted divergence radii on fixed channels, for diffing a radius change against its parent.

The channels are ``random_cq_channel(d, 3, default_rng(s))``, each with its
random input law P.  Two sets:

* ``grid`` (72 cases): ``divergence_radius`` for s in 0..7 and d in
  {2, 3, 4}, at sandwiched alpha = 2, Petz alpha = 0.7 and sandwiched
  alpha = 16.
* ``beta_inf`` (16 cases): ``weighted_radius_beta(w, p, params, inf)`` for s
  in 0..3 and d in {2, 3}, at sandwiched alpha = 2 and Petz alpha = 0.7.

Usage, from the repository root::

    python tools/radius_sweep.py run out.json
    python tools/radius_sweep.py diff parent.json change.json

``run`` imports renyicq from the ``src/`` next to this directory and writes
one JSON record per case: the ``value`` (or ``error``), the weighted center
solves it made (``solves``, one per ascent round, counted at
``centers.CenterProblem.solve``, the one entry of every D and Q-bar solve,
as in ``tools/curve_solves.py``), whether it hit the 500-round cap
(``capped``, with the duality ``gap`` its warning reports), and the wall
``seconds``.  ``diff`` prints, per set and file, the solves, seconds and
capped cases, then the cases newly capped and the largest value rise and
drop.  The two sets take about 17 s on one core of a 2-vCPU VM with one
BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from renyicq import centers  # noqa: E402
from renyicq.channels import random_cq_channel  # noqa: E402
from renyicq.divergences import RenyiParams  # noqa: E402

RULES = {"grid": (("sandwiched", 2.0), ("petz", 0.7), ("sandwiched", 16.0)),
         "beta_inf": (("sandwiched", 2.0), ("petz", 0.7))}
SEEDS = {"grid": range(8), "beta_inf": range(4)}
DIMS = {"grid": (2, 3, 4), "beta_inf": (2, 3)}
_CAP = re.compile(r"gap (\S+) above tol after 500 rounds")


def cases():
    """(set, rule, alpha, d, seed) of every case."""
    for name, rules in RULES.items():
        for rule, alpha in rules:
            for d in DIMS[name]:
                for s in SEEDS[name]:
                    yield name, rule, alpha, d, s


def solve(name, rule, alpha, d, seed):
    """One case's record fields, counting the center solves it makes."""
    w, p = random_cq_channel(d, 3, np.random.default_rng(seed))
    params = RenyiParams(alpha, alpha if rule == "sandwiched" else 1.0)
    solves = 0
    inner = centers.CenterProblem.solve

    def counted(*args, **kwargs):
        nonlocal solves
        solves += 1
        return inner(*args, **kwargs)

    centers.CenterProblem.solve = counted
    try:
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            start = time.perf_counter()
            if name == "grid":
                value = centers.divergence_radius(w, params)[0]
            else:
                value = centers.weighted_radius_beta(w, p, params, math.inf)
            seconds = time.perf_counter() - start
    finally:
        centers.CenterProblem.solve = inner
    caps = [m for m in (_CAP.search(str(e.message)) for e in log) if m]
    return {"value": float(value), "solves": solves, "capped": bool(caps),
            "gap": float(caps[0].group(1)) if caps else None, "seconds": seconds}


def run(out):
    records = []
    for case in cases():
        rec = dict(zip(("set", "rule", "alpha", "d", "seed"), case))
        try:
            rec.update(solve(*case))
        except Exception as exc:  # recorded, so a diff shows it
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    Path(out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    for name in RULES:
        recs = [r for r in records if r["set"] == name]
        print(f"{name}: {len(recs)} cases, {sum(r.get('solves', 0) for r in recs)} solves, "
              f"{sum(r.get('capped', False) for r in recs)} capped, "
              f"{sum(r.get('seconds', 0.0) for r in recs):.1f} s")
    print(f"{len(records)} cases written to {out}")


def _key(rec):
    return rec["set"], rec["rule"], rec["alpha"], rec["d"], rec["seed"]


def diff(old_path, new_path):
    old = {_key(r): r for r in json.loads(Path(old_path).read_text(encoding="utf-8"))}
    new = {_key(r): r for r in json.loads(Path(new_path).read_text(encoding="utf-8"))}
    if old.keys() != new.keys():
        sys.exit("the two files hold different cases")
    for name in RULES:
        keys = [k for k in old if k[0] == name]
        print(f"{name}: {len(keys)} cases")
        for label, recs in (("old", old), ("new", new)):
            errors = [k for k in keys if "error" in recs[k]]
            capped = [k for k in keys if recs[k].get("capped")]
            print(f"  {label}: {sum(recs[k].get('solves', 0) for k in keys)} solves, "
                  f"{sum(recs[k].get('seconds', 0.0) for k in keys):.2f} s, "
                  f"{len(capped)} capped, {len(errors)} errors")
            for k in capped:
                print(f"    capped {k[1:]}: gap {recs[k]['gap']:.3g}")
            for k in errors:
                print(f"    error {k[1:]}: {recs[k]['error']}")
        newly = [k for k in keys if new[k].get("capped") and not old[k].get("capped")]
        print(f"  newly capped: {len(newly)}")
        for k in newly:
            print(f"    {k[1:]}")
        moves = [(new[k]["value"] - old[k]["value"], k) for k in keys
                 if "value" in old[k] and "value" in new[k]]
        rise, where = max(moves, default=(0.0, None))
        print(f"  largest value rise {max(rise, 0.0):.3g}"
              + (f" at {where[1:]}" if rise > 0.0 else ""))
        drop, where = min(moves, default=(0.0, None))
        print(f"  largest value drop {max(-drop, 0.0):.3g}"
              + (f" at {where[1:]}" if drop < 0.0 else ""))
        print(f"  values changed: {sum(m != 0.0 for m, _ in moves)} of {len(moves)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="solve both sets and write their records")
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
