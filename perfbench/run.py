#!/usr/bin/env python3
"""Build the perfbench package from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds into
.bench_build/ (Release); later calls only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON record. Exits non-zero, without a record, when the build fails or
the run does not finish in time.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["ycsb_a", "ycsb_e", "ingest_scan", "sharded_ingest"]
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds from 1 to 600")
    return args


def build():
    """Configure once, then build incrementally. True on success."""
    cmds = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    cmds.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def source_digest():
    """sha256 over the compiled sources, for runs outside a git checkout."""
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "bench", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    args = parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    work = os.path.join(BUILD, "run", args.workload)
    os.makedirs(work, exist_ok=True)
    print("# identity git_sha=%s source_sha256=%s" % (git_sha(), source_digest()), flush=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
