"""One repetition of a workload in a fresh process.

    python3 perfbench/child.py --root DIR --workload NAME --work DIR \
        --result FILE [--seed S] [--trace] [--tiny] [--setup-only]

``--seed`` is the workload seed, forwarded to every invocation.

Set-up (importing numpy, scipy and levymv from ``DIR/src``, resolving the
workload's configs) is timed from the first line of this file.  Then each
invocation runs through ``levymv.cli.main``; its wall time, exit code,
pass flag, check headrooms and output digest go into a JSON record at
``--result``, with the process's peak resident memory.  With ``--trace``
the layer wrappers are installed first and the spans are written next to
the record.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    import numpy
    import scipy
    import scipy.special  # noqa: F401
    import levymv.cli
    if os.path.commonpath([os.path.abspath(levymv.__file__), src]) != src:
        print(f"levymv imported from {levymv.__file__}, not from {src}", file=sys.stderr)
        return 3
    import workloads
    invocations = workloads.resolve(args.workload, args.seed, args.tiny, args.work)
    setup_s = time.perf_counter() - _T0
    record = {"setup_s": setup_s,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.setup_only:
        _write(args.result, record)
        return 0

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    runs = []
    for i, inv in enumerate(invocations):
        shutil.rmtree(inv["out"], ignore_errors=True)
        if tracer is not None:
            tracer.run = i
        start = time.perf_counter()
        try:
            code = levymv.cli.main(inv["argv"])
        except Exception:  # counted as a failed invocation; the rest still run
            traceback.print_exc()
            code = "exception"
        wall = time.perf_counter() - start
        run = {"argv": inv["argv"], "source": inv["source"], "seed": inv["seed"],
               "wall_s": wall, "exit": code, "pass": False}
        summary_path = os.path.join(inv["out"], "summary.json")
        if os.path.exists(summary_path):
            with open(summary_path) as fh:
                summary = json.load(fh)
            run["pass"] = code == 0 and summary.get("pass") is True
            run["headrooms"] = dict(workloads.headrooms(summary))
            run["digest"] = workloads.digest(inv["out"])
            run["bytes_written"] = workloads.bytes_written(inv["out"])
        runs.append(run)
    record["runs"] = runs
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["layers"]["exports.bytes_written"] = float(
            sum(r.get("bytes_written", 0) for r in runs))
        record["absent"] = tracer.absent_metrics()
        record["count_errors"] = dict(tracer.count_errors)
        with open(args.result + ".spans.json", "w") as fh:
            json.dump({"fields": ["id", "parent", "target", "run", "start", "end"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    _write(args.result, record)
    return 0


def _write(path, record):
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
