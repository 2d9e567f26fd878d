"""Tabular and binary output formats shared by the simulation modules.

Binary container (little-endian), used for marginal flows and density
snapshot stacks alike:

    bytes 0..3    magic  b"LMVF"
    uint32        version (1)
    uint32        kind   (0 = flow samples, 1 = density rows)
    uint32        reserved (0)
    uint64        n      columns per row (particles or grid points)
    uint64        M      number of recorded rows
    float64[M]    row times
    float64[M*n]  payload, row-major

CSV formats: flows are written as one row per time (time, then the n
sorted samples); chaos tables as (n, mean_sq_gap, stderr).
"""

import struct

import numpy as np

from .measures import EmpiricalMeasure
from .particles import MarginalFlow

MAGIC = b"LMVF"
VERSION = 1
KIND_FLOW = 0
KIND_DENSITY = 1


def flow_to_csv(flow, path):
    n = len(flow.marginals[0])
    with open(path, "w") as fh:
        fh.write("time," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
        row = ",".join(["%.17g"] * (n + 1)) + "\n"  # one format per row, on floats
        for t, m in zip(flow.times, flow.marginals):
            fh.write(row % (t, *m.samples.tolist()))


def _write_block(path, kind, times, rows):
    times = np.asarray(times, dtype="<f8")
    rows = np.ascontiguousarray(rows, dtype="<f8")
    m, n = rows.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", VERSION, kind, 0))
        fh.write(struct.pack("<QQ", n, m))
        fh.write(times.tobytes())
        fh.write(rows.tobytes())


def _read_block(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"not a levymv binary file (magic {magic!r})")
        version, kind, _ = struct.unpack("<III", fh.read(12))
        if version != VERSION:
            raise ValueError(f"unsupported version {version}")
        n, m = struct.unpack("<QQ", fh.read(16))
        times = np.frombuffer(fh.read(8 * m), dtype="<f8")
        rows = np.frombuffer(fh.read(8 * m * n), dtype="<f8").reshape(m, n)
    return kind, times, rows


def flow_to_binary(flow, path):
    rows = np.vstack([m.samples for m in flow.marginals])
    _write_block(path, KIND_FLOW, flow.times, rows)


def flow_from_binary(path):
    kind, times, rows = _read_block(path)
    if kind != KIND_FLOW:
        raise ValueError("binary file does not hold a marginal flow")
    return MarginalFlow(times=times.copy(),
                        marginals=[EmpiricalMeasure(r) for r in rows])


def density_stack_to_binary(times, grids, path):
    rows = np.vstack([g.values for g in grids])
    _write_block(path, KIND_DENSITY, times, rows)


def density_stack_from_binary(path):
    kind, times, rows = _read_block(path)
    if kind != KIND_DENSITY:
        raise ValueError("binary file does not hold density snapshots")
    return times.copy(), rows.copy()


def chaos_table_to_csv(table, path):
    """The rows of a :func:`~levymv.particles.chaos_rate_experiment` payload."""
    with open(path, "w") as fh:
        fh.write("n,mean_sq_gap,stderr\n")
        for r in table["rows"]:
            fh.write(f"{r['n']},{r['mean_sq_gap']:.17g},{r['stderr']:.17g}\n")


def curve_to_csv(xs, ys, path, names=("x", "y")):
    """Two-column plot-data file, the declared plotting surface."""
    with open(path, "w") as fh:
        fh.write(f"{names[0]},{names[1]}\n")
        for a, b in zip(xs, ys):
            fh.write(f"{a:.17g},{b:.17g}\n")
