"""levymv benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--workload-seed S]
        [--seconds T] [--trace 0|1]

Run from the root of a levymv checkout; the package is imported from
``src/``.  Every repetition is a fresh single-threaded process
(``--threads 1``, one BLAS/OpenMP thread), and repetitions run one at a
time as long as the next one would end within ``--seconds`` (at least one).

``--workload-seed S`` is forwarded to every invocation with ``--seed``;
without it each config keeps its own seed, so the inputs are the shipped
experiments and the check values are the same on every run.  ``--seed``
is only recorded: the chaos-rate checks are statistical, and across
workload seeds the AC4 slope check's headroom spreads too widely to bound
(it fails outright at seed 11), so a run seed must not change the inputs.
Use ``--workload-seed`` for a confirmation run on a fresh seed; a check
that fails there is counted in ``failed``, it does not stop the harness.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs an
untraced and a traced repetition back to back and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people.  Everything a run writes goes under
``.perfbench_runs/`` in the checkout, including a full record
(``result.json``) with the environment, per-repetition values, output
digests and, for traced runs, the spans.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = (3, 2)     # set-up-only processes before and after the repetitions
START_LIMIT_S = 150.0     # no repetition starts that would end past this, whatever --seconds
RUN_LIMIT_S = 175.0       # hard stop for any one child process

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "pass_frac": "ratio", "check_margin": "ratio"}


class HarnessError(RuntimeError):
    pass


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_reuse"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def environment(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit, "seed": args.seed, "workload_seed": args.workload_seed,
            "threads": 1}


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def run_child(args, work, tag, t_start, *flags):
    result = os.path.join(work, tag + ".json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--workload", args.workload, "--work", os.path.join(work, tag),
           "--result", result, *flags]
    if args.workload_seed is not None:
        cmd += ["--seed", str(args.workload_seed)]
    if args.tiny:
        cmd.append("--tiny")
    timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - t_start))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{tag} did not finish within {timeout:.0f} s") from exc
    with open(os.path.join(work, tag + ".log"), "w") as fh:
        fh.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise HarnessError(f"{tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result) as fh:
        return json.load(fh)


def repeat(args, t_start, body):
    """Call body(i) while one more call, taking as long as the calls so far
    took on average, would still end within --seconds (at least once)."""
    out, t_first = [], time.perf_counter()
    while True:
        out.append(body(len(out)))
        now = time.perf_counter()
        if now + (now - t_first) / len(out) - t_start > min(args.seconds, START_LIMIT_S):
            return out


def rep_wall(rec):
    return sum(r["wall_s"] for r in rec["runs"])


def outcome(rec):
    return [(r["source"], r.get("digest"), r.get("headrooms")) for r in rec["runs"]]


def tightest(rec):
    """(headroom, "source:check") of the repetition's tightest check."""
    return min(((v, f"{r['source']}:{k}") for r in rec["runs"]
                for k, v in r.get("headrooms", {}).items()), default=(-1.0, None))


def measure(args, work, t_start):
    def probe(i):
        return run_child(args, work, f"setup{i}", t_start, "--setup-only")["setup_s"]

    before, after = SETUP_PROBES
    probes = [probe(i) for i in range(before)]
    reps = repeat(args, t_start, lambda i: run_child(args, work, f"rep{i}", t_start))
    probes += [probe(i) for i in range(before, before + after)]
    first = outcome(reps[0])
    runs = [r for rec in reps for r in rec["runs"]]
    metrics = {
        "wall_s": statistics.median(rep_wall(r) for r in reps),
        "setup_s": statistics.median(probes + [r["setup_s"] for r in reps]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "pass_frac": sum(r["pass"] for r in runs) / len(runs),
        "check_margin": statistics.median(1.0 + tightest(r)[0] for r in reps),
    }
    # outputs and check values are deterministic at a fixed seed
    steady = all(outcome(rec) == first for rec in reps[1:])
    detail = {"reps": reps, "setup_probes": probes, "steady_outputs": steady,
              "tightest_check": tightest(reps[0])[1]}
    return metrics, runs, steady, detail


def measure_traced(args, work, t_start):
    def pair(i):
        return (run_child(args, work, f"plain{i}", t_start),
                run_child(args, work, f"traced{i}", t_start, "--trace"))

    pairs = repeat(args, t_start, pair)
    traced = [t for _, t in pairs]
    metrics = {name: statistics.median(t["layers"][name] for t in traced)
               for name in sorted(traced[0]["layers"])}
    metrics["trace.overhead_s"] = statistics.median(rep_wall(t) - rep_wall(p) for p, t in pairs)
    counts = [{k: v for k, v in t["layers"].items() if layer_unit(k) == "count"}
              for t in traced]
    # traced and untraced runs must write identical outputs, and counts repeat
    neutral = all(outcome(p) == outcome(t) for p, t in pairs)
    steady = all(c == counts[0] for c in counts[1:])
    runs = [r for p, t in pairs for r in p["runs"] + t["runs"]]
    detail = {"pairs": [{"plain": p, "traced": t} for p, t in pairs],
              "trace_neutral": neutral, "counts_repeat": steady,
              "absent": traced[0]["absent"], "count_errors": traced[0]["count_errors"]}
    return metrics, runs, neutral and steady, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, help="run seed, recorded only")
    ap.add_argument("--workload-seed", type=int,
                    help="forwarded to every invocation (default: each config's own)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="repeat while the next repetition would end within this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small configs, for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "levymv", "cli.py")):
        print(f"error: no levymv sources under {ROOT}/src", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    label = (f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}"
             f"-wseed{args.workload_seed}-trace{args.trace}")
    work = os.path.join(ROOT, ".perfbench_runs", label)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            metrics, runs, consistent, detail = measure_traced(args, work, t_start)
        else:
            metrics, runs, consistent, detail = measure(args, work, t_start)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(not r["pass"] for r in runs)
    env = environment(args)
    first = (detail["pairs"][0]["plain"] if args.trace else detail["reps"][0])
    env.update(first.get("versions", {}))
    units = {m: (layer_unit(m) if args.trace else END_TO_END[m]) for m in metrics}
    named = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    record = {"workload": args.workload, "tiny": args.tiny, "trace": args.trace,
              "seconds": args.seconds, "env": env, "consistent": consistent,
              "metrics": named, **detail}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  workload seed {args.workload_seed}  "
          f"trace {args.trace}  "
          f"record {os.path.relpath(work, ROOT)}/result.json")
    print("env " + json.dumps(env, sort_keys=True))
    for r in first["runs"]:
        print(f"  {r['source']:<22} seed {r['seed']}  exit {r['exit']}  pass {r['pass']}  "
              f"digest {r.get('digest')}")
    if args.trace:
        print(f"  traced outputs identical to untraced: {detail['trace_neutral']}  "
              f"counts repeat: {detail['counts_repeat']}")
        for name, ts in detail["absent"].items():
            print(f"  absent metric {name}: no wrap target found among {', '.join(ts)}")
        for name, n in detail["count_errors"].items():
            print(f"  count failed {n} times: {name}")
    else:
        print(f"  outputs identical across repetitions: {detail['steady_outputs']}  "
              f"tightest check: {detail['tightest_check']}")
    for name, v in metrics.items():
        print(f"  {name:<40} {v:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": len(runs),
                      "failed": failed, "metrics": named}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
