#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

Runs the benchmark command from BENCHMARK.json a number of times per
workload, each run with its own seed, and appends one set of results to
perfbench/steadiness.json: every run's end-to-end metrics, host-normalized
and raw, and per metric the median and the spread (the distance between the
first and third quartile over the median, as statistics.quantiles gives
them). With two or more sets recorded it also reports how far the last
set's medians moved from the first's, in the worse direction, against each
metric's bound. Run it from the root of a checkout:

    python3 perfbench/steadiness.py --label set-1 --runs 10 --seed-base 1000

Re-running a label with --workloads replaces those workloads' results in
that set.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EVIDENCE = os.path.join(HERE, "steadiness.json")


def spread(xs):
    if len(xs) < 2:
        return None
    q = statistics.quantiles(xs, n=4)
    m = statistics.median(xs)
    return (q[2] - q[0]) / m if m else 0.0


def run_once(command, workload, seed, seconds):
    p = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = {}
    for line in lines:
        if line.startswith("raw-metrics "):
            raw = json.loads(line[len("raw-metrics "):])
    return result, raw


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or names

    evidence = {"sets": []}
    if os.path.exists(EVIDENCE):
        with open(EVIDENCE) as f:
            evidence = json.load(f)
    evidence["host"] = {"nproc": os.cpu_count(), "machine": platform.machine(),
                        "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()}

    this = {"label": args.label, "run_seconds": bench["run_seconds"], "workloads": {}}
    for prev in evidence["sets"]:
        if prev["label"] == args.label:
            this = prev
    for wl in workloads:
        runs = []
        for k in range(args.runs):
            seed = args.seed_base + 100 * names.index(wl) + k
            result, raw = run_once(command, wl, seed, bench["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{wl} seed {seed}: answers differ from the oracle")
            runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "raw": raw})
            print(f"{args.label} {wl} seed {seed}: " +
                  " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(result["metrics"].items())), flush=True)
        summary = {}
        for name in bounds:
            xs = [r["metrics"][name] for r in runs]
            s = {"median": statistics.median(xs), "spread": spread(xs)}
            rs = [r["raw"][name] for r in runs if name in r["raw"]]
            if len(rs) == len(xs):
                s["raw_median"], s["raw_spread"] = statistics.median(rs), spread(rs)
            summary[name] = s
        for name, s in summary.items():
            rs = f"  raw spread {s['raw_spread']:.2%}" if s.get("raw_spread") is not None else ""
            print(f"  {wl:18s} {name:16s} median {s['median']:.6g} spread {s['spread']:.2%} "
                  f"(bound {bounds[name]['bound']:.0%}){rs}")
        # Saved per workload, so an interrupted set keeps what it finished.
        # Re-running a label replaces its workloads' results.
        this["workloads"][wl] = {"runs": runs, "summary": summary}
        if not any(s is this for s in evidence["sets"]):
            evidence["sets"].append(this)
        save(evidence)

    if len(evidence["sets"]) >= 2:
        first, last = evidence["sets"][0], evidence["sets"][-1]
        shifts = {}
        for wl, data in last["workloads"].items():
            if wl not in first["workloads"]:
                continue
            for name, s in data["summary"].items():
                m0 = first["workloads"][wl]["summary"][name]["median"]
                worse = (s["median"] - m0) / m0 if m0 else 0.0
                if bounds[name]["better"] == "higher":
                    worse = -worse
                shifts.setdefault(wl, {})[name] = worse
                print(f"  shift {wl:18s} {name:16s} {worse:+.2%} (bound {bounds[name]['bound']:.0%})")
        evidence["median_shift_first_to_last"] = shifts
        save(evidence)


def save(evidence):
    with open(EVIDENCE, "w") as f:
        json.dump(evidence, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
