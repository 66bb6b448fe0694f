"""Run ``renyicq verify --seed s`` for s = 1..24 and report each outcome.

Each seed runs in its own process, from the ``src/`` next to this directory.
The script prints one line per seed with the exit code (0 when every check
passes, 1 when a check fails, 3 when a solve does not converge) and the wall
time, followed, for a seed that did not exit 0, by its output lines other
than the passing checks.  The last line counts the seeds that did not exit
0, and the script exits 1 if there are any.  The sweep takes about 75 s.

Usage, from the repository root::

    python tools/verify_sweep.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SEEDS = range(1, 25)


def run_seed(seed):
    """(exit code, wall seconds, output lines other than PASS) of one verify run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "renyicq.cli", "verify", "--seed", str(seed)],
        env=env, capture_output=True, text=True, check=False,
    )
    wall = time.perf_counter() - start
    lines = (proc.stdout + proc.stderr).splitlines()
    return proc.returncode, wall, [ln for ln in lines if not ln.startswith("PASS")]


def main():
    failed = 0
    for seed in SEEDS:
        code, wall, notes = run_seed(seed)
        failed += code != 0
        print(f"seed {seed:3d}: exit {code}, {wall:.1f} s", flush=True)
        if code != 0:
            for line in notes:
                print(f"    {line}")
    print(f"{failed} of {len(SEEDS)} seeds did not exit 0")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
