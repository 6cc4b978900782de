#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call builds the pathload library
and the benchmark binary from source into .bench_build/perfbench; later calls
rebuild only what changed. The binary's last stdout line is the JSON result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["pathload-sweep-v1", "probe-matrix-v2", "tcp-bulk-v2"]
# A run must end within 180 s; leave room for process start and exit.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, targets):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "scenario", "sweep_runner.hpp")):
        fail(f"no pathload sources under {os.path.join(root, 'src')}; run from a repo checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configure every time: it is quick once cached, and cmake refuses a
    # build tree that was configured for another source tree (a copied
    # checkout) instead of silently building the old sources.
    steps = [["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target", *targets]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def commit_id(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.selftest:
        out = build(root, ["perfbench_tests"])
        return subprocess.run([os.path.join(out, "perfbench_tests")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out = build(root, ["perfbench"])
    commit = commit_id(root)
    status = 0
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [os.path.join(out, "perfbench"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit]
        if args.trace:
            cmd += ["--spans-dir", os.path.join(root, ".bench_out")]
        sys.stdout.flush()
        try:
            r = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
        status = status or r.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
