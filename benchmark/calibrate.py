#!/usr/bin/env python3
"""Runs the benchmark as the driver does and records how far its numbers
repeat: for every workload, `--runs` untraced runs, each with another seed;
for every end-to-end metric the median, the quartiles (Python's
statistics.quantiles(n=4), the driver's own rule), their distance as a share
of the median, and (max - min) / median. Then one traced run per workload
with the default seed, for the per-layer baseline. Writes calibration.json
beside this file, with the host it was measured on.

    python3 benchmark/calibrate.py [--runs 10] [--first-seed 1] [--workload W]...
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def sh(*cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def host():
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "kernel": platform.release(),
        "cpu_model": model,
        "rustc": sh("rustc", "-V"),
        "build_profile": "release (opt-level 3, the repo's own profile for fgcs-exp)",
        "git_commit": sh("git", "rev-parse", "HEAD") or "not a git checkout",
        "FGCS_PAR_WORKERS": os.environ.get("FGCS_PAR_WORKERS", f"unset ({nproc})"),
        "event_loops": max(1, nproc - 1),
    }


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    # The driver allows a run 180 s; a hang should fail here, not stall.
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        sys.exit(f"{workload} seed {seed}: {line}")
    return {name: m["value"] for name, m in line["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    record = {"host": host(), "runs": args.runs, "run_seconds": bench["run_seconds"],
              "workloads": {}, "per_layer": {}}
    if args.workload:
        # Re-measuring some workloads keeps the others' record.
        try:
            with open(os.path.join(HERE, "calibration.json")) as f:
                old = json.load(f)
            record["workloads"], record["per_layer"] = old["workloads"], old["per_layer"]
        except (OSError, KeyError, ValueError):
            pass
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            metrics = run(bench, w, seed, 0)
            for name in bounds:
                values[name].append(metrics[name])
        record["workloads"][w] = {}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            record["workloads"][w][name] = {
                "median": med, "q1": q1, "q3": q3,
                "iqr_share": round(spread, 4),
                "range_share": round((max(v) - min(v)) / med, 4),
                "bound": bounds[name],
            }
            flag = ""
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
                flag = "  <-- over a third of the bound" if spread > bounds[name] / 3 else ""
            print(f"{w:18} {name:16} median {med:14.4f}  iqr {spread:7.2%}  "
                  f"range {(max(v) - min(v)) / med:7.2%}  bound {bounds[name]:.2f}{flag}", flush=True)
    # The per-layer baseline: one traced run each, rows the workload has a
    # part in (the others read 0 by construction).
    for w in workloads:
        record["per_layer"][w] = {k: v for k, v in run(bench, w, 20060301, 1).items() if v != 0}
    with open(os.path.join(HERE, "calibration.json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"worst spread is {worst:.2f} of its bound; wrote benchmark/calibration.json")


if __name__ == "__main__":
    main()
