"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                 [--seconds S] [--out FILE]

For every workload and seed it runs perfbench/run.py once, sequentially,
from the root of the checkout.  Per metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json and a third of it, the level the benchmark
aims to stay under.  --out writes every value and the summary as JSON,
with the interpreter and machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in contract["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=contract["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"] + contract["per_layer"]}
    out = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    status = 0
    for name in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{name} seed {seed}: correct is false\n{proc.stdout}", file=sys.stderr)
                status = 1
            runs.append({"seed": seed, **res})
        summary = {}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{name}: {len(runs)} runs, fail_ratio {failed / attempted if attempted else 1.0:.6g} "
              f"({failed} failed of {attempted} attempted)")
        for metric in runs[0]["metrics"] if runs else ():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            unit = runs[0]["metrics"][metric]["unit"]
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "unit": unit}
            flag = ""
            if bound is not None:
                flag = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {metric:34s} {unit:12s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.4f}  {'' if bound is None else f'bound {bound} ({bound / 3:.4f})'}  {flag}")
        out["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
