"""The benchmark's workloads, and how one invocation's outputs are judged.

A workload is a fixed list of ``levymv`` CLI invocations.  Each entry
names a shipped preset (``AC4``) or a config file under ``configs/``.
``--tiny`` swaps in the small configs under ``configs/tiny/``, which
exercise the same commands in a few seconds (the smoke test uses them).
"""

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "configs")

WORKLOADS = {
    "chaos-sine": [("chaos-rate", "AC4")],
    "chaos-smoothed": [("chaos-rate", "AC5")],
    "compare": [("compare", "AC8")],
    "pde": [("pde", "pde_ac6_rk4.json"), ("pde", "pde_ac6_ifrk4.json"),
            ("pde", "AC7"), ("pde", "AC9")],
}

TINY = {
    "chaos-sine": [("chaos-rate", "tiny/chaos_sine.json")],
    "chaos-smoothed": [("chaos-rate", "tiny/chaos_smoothed.json")],
    "compare": [("compare", "tiny/compare.json")],
    "pde": [("pde", "tiny/pde_rk4.json"), ("pde", "tiny/pde_ifrk4.json"),
            ("pde", "tiny/pde_oracle.json"), ("pde", "tiny/pde_duality.json")],
}


def resolve(workload, seed, tiny, outroot):
    """The workload's invocations as dicts with ``argv``, ``out`` and ``seed``.

    ``seed`` None keeps each config's own seed; otherwise it is forwarded
    to every invocation with ``--seed``.
    """
    from levymv.presets import PRESETS

    table = TINY if tiny else WORKLOADS
    invocations = []
    for i, (command, source) in enumerate(table[workload]):
        out = os.path.join(outroot, f"{i}-{command}")
        if source in PRESETS:
            cfg = PRESETS[source]
            argv = [command, "--preset", source]
        else:
            path = os.path.join(CONFIGS, source)
            with open(path) as fh:
                cfg = json.load(fh)
            argv = [command, path]
        if seed is not None:
            argv += ["--seed", str(seed)]
        argv += ["--out", out, "--threads", "1"]
        invocations.append({"argv": argv, "out": out, "source": source,
                            "seed": cfg["seed"] if seed is None else seed})
    return invocations


def digest(outdir):
    """sha256 over every file the invocation wrote (names and bytes)."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def bytes_written(outdir):
    return sum(os.path.getsize(os.path.join(outdir, n)) for n in os.listdir(outdir))


def headrooms(summary):
    """(check, headroom) for every numeric check a ``summary.json`` records.

    Headroom is (limit - value) / |limit| for a check ``value <= limit``
    (and the mirror image for a lower limit): positive while the check
    passes, 0 at the limit.  Where the CLI applies a default limit that the
    summary does not echo, the CLI's default is repeated here.
    """
    out = []

    def upper(name, value, limit):
        out.append((name, (limit - value) / abs(limit)))

    cfg = summary.get("config", {})
    result = summary.get("result")
    if isinstance(result, dict):                         # chaos-rate
        crit = result.get("criterion")
        if isinstance(crit, dict):
            upper("slope", crit["fitted"], crit["slope_max"])
        if "monotone_within_2se" in result:
            rows = result["rows"]
            for a, b in zip(rows, rows[1:]):
                upper(f"monotone_n{b['n']}", b["mean_sq_gap"],
                      a["mean_sq_gap"] + 2.0 * math.hypot(a["stderr"], b["stderr"]))
    if "l1_at_largest" in summary:                       # compare
        if summary.get("l1_max_at_largest") is not None:
            upper("l1_at_largest", summary["l1_at_largest"], summary["l1_max_at_largest"])
        t_final = max(r["time"] for r in summary["rows"])
        l1s = [(r["n"], r["l1_distance"]) for r in summary["rows"] if r["time"] == t_final]
        for (_, a), (n, b) in zip(l1s, l1s[1:]):
            upper(f"l1_decreasing_n{n}", b, a)
        upper("pde_mass_drift", summary["pde_mass_max_drift"], 1e-9)
    if "mass_max_drift" in summary:                      # pde solve
        upper("mass_drift", summary["mass_max_drift"], cfg.get("mass_tolerance", 1e-9))
        upper("boundary_density", summary["boundary_density_max"],
              cfg.get("boundary_density_tol", 1e-4))
    if "linear_oracle" in summary:                       # pde linear oracle
        oracle = cfg["linear_oracle"]
        lo, hi = oracle.get("order_ratio_range", [12.0, 20.0])
        for row in summary["linear_oracle"]:
            tag = f"alpha{row['alpha']}"
            upper(f"sup_error_{tag}", row["sup_error"], oracle.get("sup_tolerance", 1e-6))
            upper(f"order_ratio_hi_{tag}", row["order_ratio"], hi)
            out.append((f"order_ratio_lo_{tag}", (row["order_ratio"] - lo) / abs(lo)))
    if "adjoint_checks" in summary:                      # pde duality
        checks = summary["adjoint_checks"]
        for i, case in enumerate(checks["cases"]):
            upper(f"duality_rel_error_{i}", case["rel_error"], checks["tolerance"])
    return out
