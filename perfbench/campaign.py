#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 perfbench/campaign.py --seeds 1-10 [--workloads a,b] [--out FILE] [--against FILE]

Runs perfbench/run.py untraced, for BENCHMARK.json's run_seconds, once
per (seed, workload), seed-major so slow
drifts of the machine spread over all workloads, and prints per metric
the median, the quartiles and the spread (Q3 - Q1) / median, beside the
bound from BENCHMARK.json. --against compares these medians with an
earlier campaign's: a metric fails when it is worse by more than its
bound (a held-out seed is checked the same way, against one run).
--out keeps every value and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma-separated; default: those of BENCHMARK.json")
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    values = {w: {} for w in workloads}
    failures = []
    for seed in seed_list(args.seeds):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            ctx = next((json.loads(l[len("context "):]) for l in lines if l.startswith("context ")), {})
            values[w].setdefault("probe_ms", []).append(statistics.fmean(ctx.get("probe_ms", [0])))
            values[w].setdefault("slowdown", []).append(ctx.get("slowdown") or 0.0)
            if result is None or not result["correct"]:
                failures.append(f"{w} seed {seed}: exit {proc.returncode}, {proc.stderr.strip()[-300:]}")
                continue
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print(f"{w} seed {seed}: probe_ms={values[w]['probe_ms'][-1]:.4g}, "
                  f"slowdown={values[w]['slowdown'][-1]:.4g}, " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {w: {k: summarize(v) for k, v in ms.items()} for w, ms in values.items()}
    baseline = None
    if args.against:
        with open(args.against) as fh:
            baseline = json.load(fh)["summary"]
    print(f"\n{'workload':11s} {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}" + ("  vs baseline" if baseline else ""))
    for w, ms in summary.items():
        for name, s in ms.items():
            bound = bounds.get(name, {}).get("bound")
            line = (f"{w:11s} {name:18s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                    f"{s['spread']:7.3f} {bound if bound is not None else '-':>6}")
            if baseline and bound is not None and name in baseline.get(w, {}):
                base = baseline[w][name]["median"]
                lower = bounds[name]["better"] == "lower"
                worse = (s["median"] - base) / base if lower else (base - s["median"]) / base
                verdict = "FAIL" if worse > bound else "better than bound" if -worse > bound else "ok"
                line += f"  {worse:+.3f} worse, {verdict}"
                if worse > bound:
                    failures.append(f"{w} {name}: worse by {worse:.3f} > bound {bound}")
            print(line)
    for msg in failures:
        print("FAILED " + msg)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": seconds, "seeds": args.seeds, "context": ctx,
                       "values": values, "summary": summary, "failures": failures}, fh, indent=1)
            fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
