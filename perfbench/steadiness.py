#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise how steady it is.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 30 \
        [--workloads a,b] [--held-out 9001] [--traced-seed 1] [--out perfbench/baseline.json]

For each workload: one --trace 0 run per seed, then the median of each
end-to-end metric and its spread, the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median. A spread at or above a third of the metric's bound in
BENCHMARK.json is flagged. --held-out adds one run on a seed outside the
list; --traced-seed adds one --trace 1 run. Run from the root of a checkout.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {r.returncode}:\n{r.stderr}")
    lines = r.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    out = {"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
           "failed": res["failed"],
           "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
    for line in lines:
        if line.startswith("digest "):
            out["digest"] = line.split("digest=")[1].split()[0]
        if line.startswith("manifest "):
            out["manifest"] = json.loads(line[len("manifest "):])
    return out


def src_commit(root):
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--held-out", type=int)
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = ([w for w in args.workloads.split(",")] if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)

    summary = {"src_commit": src_commit(root),
               "machine": f"{os.cpu_count()} CPUs, {platform.platform()}",
               "command": " ".join(["python3", "perfbench/steadiness.py"] + sys.argv[1:]),
               "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
               "seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            r = run(root, name, seed, seconds, 0)
            print(f"{name} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} digest={r.get('digest')}", flush=True)
            ok &= r["correct"] and r["failed"] == 0
            runs.append(r)
        entry = {"manifest": runs[0].get("manifest"), "runs": runs, "median": {}, "spread": {}}
        for metric in runs[0]["metrics"]:
            med, spr = spread([r["metrics"][metric] for r in runs])
            entry["median"][metric] = med
            entry["spread"][metric] = spr
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "  OVER BOUND" if spr > bound else ("  over bound/3" if spr >= bound / 3 else "")
            print(f"  {metric:20s} median {med:<14.6g} spread {spr:.4f}  bound {bound}{flag}",
                  flush=True)
        if args.held_out is not None:
            entry["held_out"] = run(root, name, args.held_out, seconds, 0)
            ok &= entry["held_out"]["correct"]
            print(f"  held-out seed {args.held_out}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in entry["held_out"]["metrics"].items()), flush=True)
        if args.traced_seed is not None:
            entry["traced"] = run(root, name, args.traced_seed, seconds, 1)
            ok &= entry["traced"]["correct"]
            print(f"  traced seed {args.traced_seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in entry["traced"]["metrics"].items()), flush=True)
        summary["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
