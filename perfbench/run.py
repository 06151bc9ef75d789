#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload live_taxi --seed 1 --seconds 30 --trace 0

The library (src/) and the benchmark driver are configured and built
under $CARGO_TARGET_DIR, or .bench_build when it is unset (a relative
path is taken from the repository root). Build output goes to stderr, so
the driver's last stdout line stays its JSON result. Durable directories
live under <build>/work and are removed at the end of the run; a traced
run (--trace 1) writes its spans to <build>/traces/<workload>-seed<n>.json.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The benchmark binary exits on its own well before this; the guard only
# stops a wedged run from outliving the caller's time limit.
RUN_TIMEOUT_S = 170


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def run_quiet(cmd):
    """Runs a build step with its output on stderr; False on failure."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build(out):
    tree = out / "perfbench"
    configure = ["cmake", "-S", str(HERE), "-B", str(tree),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (tree / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(configure):
        return None
    if not run_quiet(["cmake", "--build", str(tree), "--target", "perfbench",
                      "-j", jobs]):
        return None
    return tree / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    (out / "traces").mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--work-dir", str(out / "work" / args.workload),
           "--trace-out",
           str(out / "traces" / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def on_sigterm(signum, frame):
    raise SystemExit(1)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_sigterm)
    sys.exit(main())
