"""Run presets over a range of seeds and report how often their checks pass.

    python tools/seed_sweep.py [--presets AC1 AC2 ...] [--seeds FIRST LAST]

By default AC1, AC2, AC4, AC5 and AC8 run at seeds 1 to 20.  Each preset
runs once per seed through this checkout's CLI (``--seed S``, one thread,
one BLAS thread), its output in a temporary directory.  A run's headroom
is 1 + margin / |limit| for the tightest of the checks its
``summary.json`` records: above 1 while the check passes with room, 1 at
its limit, below 1 when it fails.  A check with a zero limit has no
headroom and is left out of it.  One line per preset gives the fraction
of seeds whose run passed, the worst headroom with its seed, the median
headroom, and the seeds that failed.  The exit status is 0 unless a run
ended with neither a verdict nor a failed check (an exit other than 0
or 1, or no ``summary.json``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
from levymv.presets import PRESETS  # noqa: E402

DEFAULT_PRESETS = ["AC1", "AC2", "AC4", "AC5", "AC8"]


def headroom(checks):
    """1 + margin / |limit| of the tightest check with a nonzero limit, or None."""
    ratios = [c["margin"] / abs(c["limit"]) for c in checks if c["limit"] != 0]
    return 1.0 + min(ratios) if ratios else None


def run(preset, seed, tmp):
    """(exit code, summary or None) of one preset run at ``seed``."""
    out = os.path.join(tmp, f"{preset}-{seed}")
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "levymv.cli", PRESETS[preset]["command"], "--preset", preset,
           "--seed", str(seed), "--threads", "1", "--out", out]
    code = subprocess.run(cmd, env=env, cwd=tmp, capture_output=True).returncode
    path = os.path.join(out, "summary.json")
    if not os.path.exists(path):
        return code, None
    with open(path) as fh:
        return code, json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", nargs="+", default=DEFAULT_PRESETS, choices=sorted(PRESETS))
    parser.add_argument("--seeds", nargs=2, type=int, default=[1, 20],
                        metavar=("FIRST", "LAST"), help="an inclusive range of seeds")
    args = parser.parse_args(argv)
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    if not seeds:
        parser.error("--seeds needs FIRST <= LAST")
    ok = True
    with tempfile.TemporaryDirectory(prefix="seed_sweep-") as tmp:
        for preset in args.presets:
            passed, failed, rooms = 0, [], []
            for seed in seeds:
                code, summary = run(preset, seed, tmp)
                if code not in (0, 1) or summary is None:
                    print(f"{preset} --seed {seed}: exit {code} without a verdict", flush=True)
                    ok = False
                    failed.append(seed)
                    continue
                if summary["pass"]:
                    passed += 1
                else:
                    failed.append(seed)
                room = headroom(summary["checks"])
                if room is not None:
                    rooms.append((room, seed))
            line = f"{preset}: {passed}/{len(seeds)} seeds pass"
            if rooms:
                worst, worst_seed = min(rooms)
                median = statistics.median(r for r, _ in rooms)
                line += f"; headroom worst {worst:.3f} (seed {worst_seed}), median {median:.3f}"
            if failed:
                line += f"; failed at seeds {', '.join(map(str, failed))}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
