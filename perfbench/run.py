#!/usr/bin/env python3
"""Run one workload of the layered benchmark and print its result.

    python3 perfbench/run.py --workload fib --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  The script builds
perfbench/bench.exe from source with dune, runs the workload in its own
process, and relays that process's output; its last line is the result
object (correct, attempted, failed, metrics).  With --trace 1 the traced
mode also writes its spans to perfbench/out/spans-<workload>.jsonl.
It exits non-zero, without a result line, if the tree cannot be built or
the run fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
WORKLOADS = ("fib", "psort", "service", "sim")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """A hash of the library sources, to tell builds apart without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "lib").rglob("*.ml*")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail("run from the root of the source tree (dune-project and lib/ not found)")

    # Keep dune's shared cache off so the build writes only under _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                           cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    print(json.dumps({"host": {"nproc": os.cpu_count(), "commit": commit(),
                               "lib_digest": source_digest()}}), flush=True)
    cmd = [str(ROOT / "_build/default/perfbench/bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}.jsonl")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} exited with code {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
