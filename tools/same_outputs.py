"""Check that every preset writes the same bytes as at a base revision.

    python tools/same_outputs.py BASE

BASE is any git revision of this repository.  It is exported with
``git archive`` into a temporary directory, and every preset AC1..AC10
is run there and in this checkout (its working tree, uncommitted edits
included), each at ``--threads 1``.  The checkout also runs AC4 and AC5
at ``--threads 3``, compared against the base's ``--threads 1`` output.
Each pair of output directories is compared with ``diff -r``; one line
per run is printed, and the exit status is 0 only if every pair is
identical and every run exited as its base run did.
"""

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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
                diff = subprocess.run(["diff", "-r", base_out, out], capture_output=True,
                                      text=True)
                same = diff.returncode == 0 and code == base_code
                ok &= same
                detail = "" if diff.returncode == 0 else (
                    f", {len(diff.stdout.splitlines())} lines of diff")
                print(f"{preset} --threads {threads}: {'identical' if same else 'DIFFERS'} "
                      f"(exit {base_code} at {base}, {code} here{detail})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
