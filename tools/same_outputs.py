"""Check that every preset writes the same bytes as at a base revision.

    python tools/same_outputs.py BASE

BASE is any git revision of this repository.  It is exported with
``git archive`` into a temporary directory, and every preset AC1..AC10
is run there and in this checkout (its working tree, uncommitted edits
included), each at ``--threads 1``.  The checkout also runs AC4 and AC5
at ``--threads 3``, compared against the base's ``--threads 1`` output.
Each pair of output directories is compared file by file; one line per
run is printed, and the exit status is 0 only if every pair is identical
and every run exited as its base run did.  Under a ``DIFFERS`` line, each
differing file gets one line with the largest relative difference among
its numbers and the pair of values where it falls: a text file (CSV,
JSON) is read number by number, a binary container of
:mod:`levymv.exports` as its float64 row times and payload.
"""

import filecmp
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from levymv.exports import MAGIC, _read_block  # noqa: E402

PRESETS = [f"AC{k}" for k in range(1, 11)]
THREADED = ["AC4", "AC5"]


def _command(src, preset):
    # the preset's subcommand, as the tree being run defines it
    code = f"from levymv.presets import PRESETS; print(PRESETS[{preset!r}]['command'])"
    return subprocess.run([sys.executable, "-c", code], env=_env(src), check=True,
                          capture_output=True, text=True).stdout.strip()


def _env(src):
    env = dict(os.environ, PYTHONPATH=src)
    # one BLAS thread, so runs side by side do not contend
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _run(src, preset, threads, out, work):
    cmd = [sys.executable, "-m", "levymv.cli", _command(src, preset), "--preset", preset,
           "--threads", str(threads), "--out", out]
    return subprocess.run(cmd, env=_env(src), cwd=work, capture_output=True).returncode


# a number standing alone, not the digits of a name such as x1 or cf_gap_0
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|nan|inf(?:inity)?)(?![\w.])", re.IGNORECASE)


def _numbers(path):
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    if head == MAGIC:
        _, times, rows = _read_block(path)
        return np.concatenate([times, rows.ravel()])
    with open(path, errors="replace") as fh:
        return np.array([float(t) for t in _NUMBER.findall(fh.read())])


def _files(top):
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names}


def differences(base_dir, head_dir):
    """One line per file that differs between the two output directories."""
    base_files, head_files = _files(base_dir), _files(head_dir)
    lines = []
    for rel in sorted(base_files | head_files):
        if rel not in head_files or rel not in base_files:
            lines.append(f"{rel}: only {'at base' if rel in base_files else 'here'}")
            continue
        a, b = os.path.join(base_dir, rel), os.path.join(head_dir, rel)
        if filecmp.cmp(a, b, shallow=False):
            continue
        x, y = _numbers(a), _numbers(b)
        if x.shape != y.shape or not x.size:
            lines.append(f"{rel}: {x.size} numbers at base, {y.size} here")
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            rel_diff = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
        # equal values, nan included, differ by 0; a nan against a number by inf
        rel_diff[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
        rel_diff[np.isnan(rel_diff)] = np.inf
        i = int(np.argmax(rel_diff))
        lines.append(f"{rel}: largest relative difference {rel_diff[i]:.2g} among "
                     f"{x.size} numbers ({float(x[i])!r} at base, {float(y[i])!r} here)")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/same_outputs.py BASE", file=sys.stderr)
        return 2
    base = argv[0]
    head_src = os.path.join(ROOT, "src")
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tree = os.path.join(tmp, "base")
        os.makedirs(tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", base], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        ok = True
        for preset in PRESETS:
            base_out = os.path.join(tmp, f"base-{preset}")
            base_code = _run(os.path.join(tree, "src"), preset, 1, base_out, tmp)
            for threads in [1, 3] if preset in THREADED else [1]:
                out = os.path.join(tmp, f"head-{preset}-t{threads}")
                code = _run(head_src, preset, threads, out, tmp)
                lines = differences(base_out, out)
                same = not lines and code == base_code
                ok &= same
                detail = f", {len(lines)} differing files" if lines else ""
                print(f"{preset} --threads {threads}: {'identical' if same else 'DIFFERS'} "
                      f"(exit {base_code} at {base}, {code} here{detail})", flush=True)
                for line in lines:
                    print(f"    {line}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
