"""Run the benchmark over several seeds and summarize it into one JSON file.

    python3 perfbench/collect.py --label seed --seeds 1-10 [--workloads a,b]
        [--traced] [--out perfbench/results/BENCH_seed.json]

For each workload, one untraced run per ``--seed`` value (recorded by
run.py, the inputs stay the configs' own) gives every end-to-end
metric's median, quartiles and spread, the distance between the
quartiles as a share of the median (``statistics.quantiles(n=4)``), and
the spread is compared with the metric's bound in ``BENCHMARK.json``.
``--traced`` adds one traced run per workload at its configs' own seeds
for the per-layer metrics.  Runs go one at a time, through ``run.py``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(ln[4:] for ln in lines if ln.startswith("env ")))
    return json.loads(lines[-1]), env, lines[:-1]


def spread_stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs, entry = [], {}
        for seed in seeds(args.seeds):
            result, env, _ = bench(workload, seed, 0, spec["run_seconds"])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct {result['correct']} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        report["env"] = {k: v for k, v in env.items() if k != "seed"}
        entry["correct_runs"] = sum(r["correct"] for r in runs)
        entry["runs"] = len(runs)
        entry["end_to_end"] = {}
        for name, bound in bounds.items():
            stats = spread_stats([r["metrics"][name]["value"] for r in runs])
            stats.update(unit=runs[0]["metrics"][name]["unit"], bound=bound,
                         within_third_of_bound=stats["spread"] is not None
                         and stats["spread"] < bound / 3.0)
            entry["end_to_end"][name] = stats
            print(f"  {name:<14} median {stats['median']:.5g}  spread {stats['spread']:.4f}"
                  f"  bound {bound}", flush=True)
        if args.traced:
            result, _, lines = bench(workload, None, 1, spec["run_seconds"])
            entry["per_layer"] = {"correct": result["correct"], **result["metrics"]}
            entry["absent"] = [ln.strip() for ln in lines if "absent metric" in ln]
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
