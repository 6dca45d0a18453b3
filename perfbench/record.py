#!/usr/bin/env python3
"""Runs the benchmark over many seeds and records the results.

Run from the repository root:

    python3 perfbench/record.py                      # every workload, seeds 1..10
    python3 perfbench/record.py --workloads cnn-dp --seeds 5
    python3 perfbench/record.py --trace 3            # and the traced run of seeds 1..3

For every workload it runs `bash perfbench/run.sh` once per seed, then
reports each end-to-end metric's median, quartiles and spread (the distance
between the first and third quartile as a share of the median, quartiles as
statistics.quantiles(values, n=4) gives them) against the metric's bound in
BENCHMARK.json. The run conditions and the summary are written to
perfbench/results.json.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
# The seed a single-run figure (a profile, a trace) is taken at, and a seed
# no recorded run uses, kept back to confirm later claims on inputs the
# claim was not tuned on.
WORKLOAD_SEED = 1
HELD_OUT_SEED = 7919


def run(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join("perfbench", "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, metavar="N", help="also run seeds 1..N traced")
    ap.add_argument("--out", default=os.path.join(HERE, "results.json"))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    nproc = os.cpu_count() or 1
    report = {
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "conditions": {
            "cpu": cpu_model(),
            "nproc": nproc,
            "GOMAXPROCS": min(2, nproc),
            "MaxParallel": min(2, nproc),
            "connections": 2,
            "scheduler": "syncall (closed loop: every round waits for both clients)",
            "run_seconds": args.seconds,
            "seeds": list(range(1, args.seeds + 1)),
            "workload_seed": WORKLOAD_SEED,
            "held_out_seed": HELD_OUT_SEED,
        },
        "workloads": {},
    }
    ok = True
    for name in args.workloads.split(","):
        why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
        per_metric, per_layer = {}, {}
        for seed in range(1, args.seeds + 1):
            res = run(name, seed, args.seconds, 0)
            if not res["correct"]:
                ok = False
            for k, m in res["metrics"].items():
                per_metric.setdefault(k, []).append(m["value"])
            if seed <= args.trace:
                for k, m in run(name, seed, args.seconds, 1)["metrics"].items():
                    per_layer.setdefault(k, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in sorted(per_metric.items())), flush=True)
        entry = {"why": why, "end_to_end": {}, "per_layer": {}}
        for k, vals in sorted(per_metric.items()):
            s = summarize(vals)
            s["bound"] = bounds[k]
            s["steady"] = k == "setup_s" or s["spread"] < bounds[k] / 3
            ok = ok and s["steady"]
            entry["end_to_end"][k] = s
            print(f"  {k:28s} median {s['median']:14.6g}  spread {100 * s['spread']:6.2f}%"
                  f"  (bound {100 * bounds[k]:.0f}%){'' if s['steady'] else '  NOT STEADY'}")
        for k, vals in sorted(per_layer.items()):
            entry["per_layer"][k] = {"median": statistics.median(vals), "values": vals}
        report["workloads"][name] = entry
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
