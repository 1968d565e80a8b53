"""Benchmark for tropmono: four seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout that holds src/tropmono.  The
workloads, why each was chosen and which layer it loads, are listed in
BENCHMARK.json and perfbench/README.md.

--trace 0 measures the end-to-end metrics.  setup_s is the median over
several fresh interpreters of the time to import tropmono and finish the
workload's first, cold operation (for cli_batch: the wall time of a
one-line `factor --batch` child).  One more fresh interpreter then runs
whole rounds for --seconds; it reports per-item latency (median and a
fixed tail percentile, printed with the number of samples beyond it),
throughput over the timed calls, and peak RSS after a fixed number of
rounds, so that a faster program is not charged for the extra rounds it
fits in.

--trace 1 runs the workload's traced-run rounds twice, each in a fresh
interpreter: once with tracing off and once with spans recorded around
every call into the library.  It prints the per-layer metrics, the self
time of every layer, and trace.overhead_ratio, the traced over the
untraced wall time of the same rounds.

Every time is rescaled to a reference machine speed measured next to
it (refclock.py), so that the drift of a shared machine's speed does not
show as a change of the program.  Every correctness check runs outside
the timed region.  Failed items are counted, not fatal.  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  Without src/tropmono the benchmark exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PROBE = os.path.join(HERE, "setup_probe.py")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
from refclock import scale_factor  # noqa: E402
from workloads import WORKLOADS, format_rows  # noqa: E402

SETUP_SAMPLES = 11
TIME_LIMIT = 170.0


class BenchError(Exception):
    pass


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in contract["end_to_end"]},
        {m["name"]: m["unit"] for m in contract["per_layer"]},
    )


def build():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tropmono", "__init__.py")):
        raise BenchError(f"no tropmono package under {src}")
    # Byte-compile once, so that no timed import pays for compilation.
    if not compileall.compile_dir(src, quiet=1):
        raise BenchError("byte-compiling src/ failed")


def child(cmd, deadline, what, check=True):
    """Run one child to completion in a fresh interpreter; return its
    stdout's last line.  With check, a failed child is an error."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env,
                            start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # The child's own children share its session: stop them all.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{what} did not finish within the time limit") from None
    if check and (proc.returncode != 0 or not out.strip()):
        raise BenchError(f"{what} exited with status {proc.returncode}:\n{err[-3000:]}")
    return out.strip().splitlines()[-1] if out.strip() else ""


def worker(mode, args, deadline):
    cmd = [sys.executable, WORKER, mode, args.workload, str(args.seed), str(args.seconds),
           "1" if args.smoke else "0"]
    return json.loads(child(cmd, deadline, f"{mode} worker"))


def setup_samples(wl, count, deadline):
    """setup_s samples, each from a fresh interpreter: setup_probe.py for
    the library workloads, a one-line `factor --batch` child, timed
    from outside, for cli_batch.  Outputs are not checked here; the
    timed rounds check and count failures."""
    if wl.kind == "cli":
        monoid, _, inputs = wl.cold
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"setup-{os.getpid()}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(format_rows(rows) + "\n" for rows in inputs))
        cmd = [sys.executable, "-m", "tropmono.cli", "factor", "--monoid", monoid, "--batch", path, "--json"]
    elif wl.kind == "finite":
        cmd = [sys.executable, PROBE, "finite", "-"] + [format_rows(g) for g in wl.cold[2]]
    else:
        cmd = [sys.executable, PROBE, "library", wl.cold[0], format_rows(wl.cold[1])]
    samples = []
    try:
        for _ in range(count):
            t0 = time.perf_counter()
            out = child(cmd, deadline, "set-up", check=wl.kind != "cli")
            wall = time.perf_counter() - t0
            samples.append(wall * scale_factor() if wl.kind == "cli" else float(out))
    finally:
        if wl.kind == "cli":
            os.remove(path)
    return samples


def nearest_rank(sorted_values, q):
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def report_failures(res):
    fail_ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"fail_ratio        {fail_ratio:.6g}  ({res['failed']} failed of {res['attempted']} attempted)")
    print("checks            " + " ".join(f"{k}={v}" for k, v in sorted(res["checks"].items())))
    for what in res["failures"]:
        print(f"failure           {what}")
    if res["missing_checks"]:
        print("missing checks    " + " ".join(res["missing_checks"]))
    for note in res["notes"]:
        print(f"note              {note}")
    return res["failed"] == 0 and not res["missing_checks"] and res["attempted"] > 0


def end_to_end(args, wl, deadline):
    samples = setup_samples(wl, 1 if args.smoke else SETUP_SAMPLES, deadline)
    res = worker("run", args, deadline)
    lat = sorted(res["latencies"])
    print(f"workload          {wl.name}  seed {args.seed}  rounds {res['rounds']}  wall {res['wall_s']:.2f} s")
    print(f"times             rescaled to reference speed (refclock.py): run factor {res['speed_factor']:.4f}, "
          f"{res['raw_busy_s']:.3f} s of timed calls read {res['busy_s']:.3f} s")
    p50, _ = nearest_rank(lat, 0.5)
    tail, beyond = nearest_rank(lat, wl.tail_q)
    metrics = {
        "setup_s": statistics.median(samples),
        "throughput_per_s": res["verified"] / res["busy_s"] if res["busy_s"] else 0.0,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": res["rss_mb"],
    }
    unit_word = {"m3_grid": "matrices", "families_wide": "matrices", "cli_batch": "batch lines",
                 "boolean_finite": "tasks"}[wl.name]
    print(f"setup_s           {metrics['setup_s']:.6f} s  (median of {len(samples)} fresh interpreters)")
    print(f"throughput_per_s  {metrics['throughput_per_s']:.4f} 1/s  "
          f"({res['verified']} {unit_word} verified in {res['busy_s']:.3f} s of timed calls)")
    print(f"latency_p50_ms    {metrics['latency_p50_ms']:.4f} ms  ({len(lat)} samples)")
    print(f"latency_tail_ms   {metrics['latency_tail_ms']:.4f} ms  "
          f"(p{wl.tail_q * 100:g}, {beyond} of {len(lat)} samples beyond it)")
    print(f"peak_rss_mb       {metrics['peak_rss_mb']:.3f} MB  "
          f"({'CLI children' if wl.kind == 'cli' else 'worker'}, after round {res['rss_round']})")
    correct = report_failures(res)
    return correct, res["attempted"], res["failed"], metrics


def traced(args, wl, deadline):
    ref = worker("ref", args, deadline)
    tr = worker("trace", args, deadline)
    if ref["rounds"] != tr["rounds"]:
        raise BenchError("the traced and untraced workers ran different rounds")
    # Round times are rescaled and leave out the checks, which both run.
    untraced = ref["round_s"]
    metrics = dict(tr["per_layer"])
    metrics["trace.overhead_ratio"] = tr["round_s"] / untraced
    wall = tr["traced_wall"]
    layers = {}
    for name, t in tr["self_times"].items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + t
    print(f"workload          {wl.name}  seed {args.seed}  traced rounds {tr['rounds']}  "
          f"spans {tr['spans']}  written to {tr['spans_file']}")
    print(f"traced wall       {wall:.4f} s  (rescaled by {tr['speed_factor']:.4f}; rounds without checks "
          f"{tr['round_s']:.4f} s traced, {untraced:.4f} s untraced, "
          f"overhead ratio {metrics['trace.overhead_ratio']:.4f})")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"self time         {layer:10s} {t:10.4f} s  {100 * t / wall:6.2f} %")
    for name, t in sorted(tr["self_times"].items(), key=lambda kv: -kv[1]):
        print(f"  span            {name:24s} {t:10.4f} s")
    print(f"self time sum     {sum(layers.values()):.4f} s of {wall:.4f} s traced wall")
    correct = report_failures(tr) and ref["failed"] == 0 and not ref["missing_checks"]
    return correct, ref["attempted"] + tr["attempted"], ref["failed"] + tr["failed"], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny rounds, for the benchmark's own test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    try:
        e2e_units, layer_units = load_contract()
        build()
        wl = WORKLOADS[args.workload]
        if args.trace:
            correct, attempted, failed, values = traced(args, wl, deadline)
            units = layer_units
        else:
            correct, attempted, failed, values = end_to_end(args, wl, deadline)
            units = e2e_units
        if set(values) != set(units):
            raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
