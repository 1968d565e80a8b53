"""One measurement of one workload, in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SMOKE

MODE is one of

  run    warm up with the workload's cold operation, then run whole
         rounds until SECONDS have passed and the workload's minimum
         round count is reached; report per-item latencies, counts,
         checks and peak RSS;
  ref    warm up, then run the workload's traced-run rounds with
         tracing off;
  trace  warm up, then run the same rounds with the span recorder on;
         report the per-layer metrics and write the spans out.

setup_s is measured apart from this, by setup_probe.py.

The library workloads factor and evaluate in this process; cli_batch
runs `python3 -m tropmono.cli factor --batch FILE --json` as a child,
one at a time (a closed loop with one client), except in ref and trace
mode, which replay the CLI pipeline in-process through the same public
calls.  Every check runs outside the timed region; a failed item is
counted and the run goes on.  The last line on stdout is one JSON
object for run.py.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
import oracle  # noqa: E402
from refclock import ScaledClock  # noqa: E402
from spans import NullRecorder, Recorder  # noqa: E402
from workloads import BOOLEAN_MONOIDS, NEG_INF, WORKLOADS, format_rows  # noqa: E402

# Words longer than this are not flattened for the independent check.
CHECK_LETTER_LIMIT = 100_000
# Independent multiply-back checks per round (library) or per call (cli).
CHECKS_PER_ROUND = 2
CLI_CALL_TIMEOUT = 60.0
# In run mode the reference loop is timed after every this much work.
REFERENCE_CHUNK_S = 0.05

EXPECTED_CHECKS = {
    "library": ("evaluate_equal", "independent_product"),
    "cli": ("exit_code", "verified_flag", "letter_count", "matrix_echo", "independent_product"),
    "finite": ("closure_order", "closure_closed", "jclass_count", "prime", "rank2_none",
               "rank3_generates", "irredundant"),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


class Stats:
    def __init__(self, chunk_s=float("inf"), rec=None):
        self.attempted = 0
        self.failed = 0
        self.verified = 0
        self.failures = []
        self.checks = Counter()
        self.clock = ScaledClock(chunk_s, rec)
        self.samples = []  # (ok, items covered) per latency sample
        self.rounds = []  # (seconds, first sample, end sample) per round
        self.check_s = 0.0
        self.notes = []

    def note(self, what):
        if len(self.failures) < 5:
            self.failures.append(what[:400])

    def check(self, name, ok, what):
        """Count one run of the named check; keep the first few messages."""
        self.checks[name] += 1
        if not ok:
            self.note(f"{name}: {what}")
        return ok

    def sample(self, wall, ok, items=1):
        """One timed call covering `items` items."""
        self.clock.record(wall)
        self.samples.append((ok, items))

    def item(self, ok, wall):
        """Count one finished item and its timed call."""
        self.sample(wall, ok)
        if ok:
            self.verified += 1
        else:
            self.failed += 1

    def round_seconds(self):
        """Total time of the rounds without their checks and reference
        loops, each round rescaled by the factor its timed calls got."""
        scaled = self.clock.scaled()
        raw = self.clock.times
        total = 0.0
        for seconds, i, j in self.rounds:
            spent = sum(raw[i:j])
            total += seconds * (sum(scaled[i:j]) / spent if spent else self.clock.median_factor())
        return total

    def latencies(self):
        """Rescaled per-item latencies, and the rescaled total.  A failed
        call counts as missing any latency limit, so its latency is
        infinite; its time still counts in the total."""
        scaled = self.clock.scaled()
        lat = [t / k if ok else float("inf") for t, (ok, k) in zip(scaled, self.samples)]
        return lat, sum(scaled)


def import_library():
    """Import tropmono from this checkout's src/."""
    sys.path.insert(0, SRC)
    import tropmono

    where = os.path.abspath(tropmono.__file__)
    if not where.startswith(SRC + os.sep):
        raise RuntimeError(f"tropmono imported from {where}, not from {SRC}")
    return tropmono


# -- library workloads: factor + evaluate ------------------------------------

def dag_nodes(root):
    """Distinct nodes reachable from a word's root (read-only walk)."""
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        parts = getattr(node, "parts", None)
        if parts is not None:
            stack.extend(parts)
        else:
            inner = getattr(node, "node", None)
            if inner is not None:
                stack.append(inner)
    return len(seen)


def independent_check(stats, sample, w, monoid, n, rows):
    """Multiply a verified item's word back with oracle.py; a mismatch
    turns the item (its latency sample) into a failure."""
    if w.letter_count() > CHECK_LETTER_LIMIT:
        return False
    tokens = [g.text() for g in w.letters()]
    if not stats.check(
        "independent_product",
        oracle.word_product(tokens, monoid, n) == rows,
        f"{monoid} {format_rows(rows)}: word multiplies back to something else",
    ):
        stats.samples[sample] = (False, 1)
        stats.verified -= 1
        stats.failed += 1
    return True


class LibraryRound:
    """factor(m) then evaluate(w) per item; latency is those two calls."""

    def __init__(self, tm, rec, stats, sampler):
        self.tm, self.rec, self.stats, self.sampler = tm, rec, stats, sampler
        self.shape = Counter()

    def __call__(self, items):
        tm, rec, stats = self.tm, self.rec, self.stats
        b = rec.begin("matrix.build")
        mats = [tm.matrix(rows) for _, rows in items]
        rec.end(b)
        order = list(range(len(items)))
        self.sampler.shuffle(order)
        candidates = set(order[: 4 * CHECKS_PER_ROUND])
        kept = []
        for idx, ((monoid, rows), m) in enumerate(zip(items, mats)):
            iid = stats.attempted
            stats.attempted += 1
            z = tm.count_bottoms(m) if rec.enabled else None
            top = rec.begin("bench.item", iid)
            t0 = perf_counter()
            try:
                s = rec.begin("factorize.factor", iid, z)
                w = tm.factor(m, monoid)
                rec.end(s)
                if rec.enabled:
                    s = rec.begin("factorize.membership", iid)
                    alphabet = tm.generating_set(monoid, m.n)
                    member = all(alphabet.contains(g) for g in w.distinct_letters())
                    rec.end(s)
                s = rec.begin("factorize.evaluate", iid)
                v = tm.evaluate(w)
                rec.end(s)
            except Exception as exc:  # counted into fail_ratio; the run goes on
                rec.end(top)
                stats.item(False, perf_counter() - t0)
                stats.note(f"{monoid} {format_rows(rows)}: {type(exc).__name__}: {exc}")
                continue
            dt = perf_counter() - t0
            if rec.enabled:
                s = rec.begin("bench.shape", iid)
                self.shape["letters"] += w.letter_count()
                self.shape["nodes"] += dag_nodes(w.root)
                rec.end(s)
            rec.end(top)
            ok = stats.check("evaluate_equal", v == m, f"{monoid} {format_rows(rows)}: evaluate(factor(m)) != m")
            if rec.enabled:
                ok = stats.check("membership", member, f"{monoid} {format_rows(rows)}: letter outside alphabet") and ok
            stats.item(ok, dt)
            if ok and idx in candidates:
                kept.append((len(stats.samples) - 1, w, monoid, m.n, rows))
        c = rec.begin("bench.check")
        t0 = perf_counter()
        done = 0
        for sample, w, monoid, n, rows in kept:
            if done < CHECKS_PER_ROUND and independent_check(stats, sample, w, monoid, n, rows):
                done += 1
        stats.check_s += perf_counter() - t0
        rec.end(c)


def library_cold(tm, item):
    monoid, rows = item
    tm.evaluate(tm.factor(tm.matrix(rows), monoid))


# -- boolean_finite ------------------------------------------------------------

class FiniteRound:
    """One task per item: closure + J-classes, prime certificate, rank
    search or irredundancy; latency is the library calls of the task."""

    def __init__(self, tm, rec, stats):
        self.tm, self.rec, self.stats = tm, rec, stats
        self.elements = {}
        self.new = 0
        self.products = 0
        self.prime_pairs = 0

    def __call__(self, tasks):
        tm, rec, stats = self.tm, self.rec, self.stats
        fms = {}
        for kind, name, payload in tasks:
            iid = stats.attempted
            stats.attempted += 1
            b = rec.begin("matrix.build")
            if kind == "closure":
                gens = [tm.matrix(rows, tm.BOOLEAN) for rows in payload]
            elif kind == "prime":
                target = tm.matrix(payload, tm.BOOLEAN)
            rec.end(b)
            top = rec.begin("bench.item", iid)
            t0 = perf_counter()
            try:
                if kind == "closure":
                    s = rec.begin("finite.closure", iid, name)
                    fm = tm.closure(gens)
                    rec.end(s)
                    s = rec.begin("finite.jclasses", iid, name)
                    jc = tm.jclasses(fm)
                    rec.end(s)
                    result = (fm, jc)
                elif kind == "prime":
                    s = rec.begin("finite.prime", iid)
                    result = tm.prime_certificate(target, fms["m3"])
                    rec.end(s)
                elif kind == "rank":
                    s = rec.begin("finite.rank", iid, payload)
                    result = tm.rank_search(fms["m2"], payload)
                    rec.end(s)
                else:
                    s = rec.begin("finite.irredundant", iid)
                    result = tm.irredundant(fms["m3"], fms["m3"].gens)
                    rec.end(s)
            except Exception as exc:  # counted into fail_ratio; the run goes on
                rec.end(top)
                stats.item(False, perf_counter() - t0)
                stats.note(f"{kind} {name} {payload!r}: {type(exc).__name__}: {exc}")
                continue
            dt = perf_counter() - t0
            rec.end(top)
            c = rec.begin("bench.check")
            ok = self.check(kind, name, payload, result, fms)
            stats.check_s += perf_counter() - t0 - dt
            rec.end(c)
            stats.item(ok, dt)

    def check(self, kind, name, payload, result, fms):
        stats = self.stats
        if kind == "closure":
            fm, jc = result
            _, order, jcount = BOOLEAN_MONOIDS[name]
            ok = stats.check("closure_order", len(fm) == order, f"{name}: {len(fm)} elements, expected {order}")
            ok = stats.check("closure_closed", fm.closed, f"{name}: closure not closed") and ok
            ok = stats.check("jclass_count", len(jc) == jcount, f"{name}: {len(jc)} J-classes, expected {jcount}") and ok
            fms[name] = fm
            if self.rec.enabled:
                n = len(payload[0])
                ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
                self.elements[name] = len(fm)
                self.new += len(fm) - len(set(payload) | {ident})
                self.products += len(fm) * len(payload)
            return ok
        if kind == "prime":
            if result is True and self.rec.enabled:
                self.prime_pairs += len(fms["m3"]) ** 2
            return stats.check("prime", result is True, f"{payload}: not certified prime")
        if kind == "rank" and payload == 2:
            return stats.check("rank2_none", result is None, f"M_2(B): pair {result} reported generating")
        if kind == "rank":
            fm = fms["m2"]
            ok = result is not None and len(result) == 3
            if ok:
                gens = [fm.elements[i].rows for i in result]
                ok = oracle.generated_size(gens) == len(fm)
            return stats.check("rank3_generates", ok, f"M_2(B): triple {result} does not generate")
        return stats.check(
            "irredundant", result == [True] * len(fms["m3"].gens), f"M_3(B) generators: flags {result}"
        )


def finite_cold(tm, item):
    _, _, payload = item
    fm = tm.closure([tm.matrix(rows, tm.BOOLEAN) for rows in payload])
    tm.jclasses(fm)


# -- cli_batch -------------------------------------------------------------------

def write_batch(workdir, tag, rows_list):
    path = os.path.join(workdir, f"batch-{tag}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        for rows in rows_list:
            fh.write(format_rows(rows) + "\n")
    return path


def cli_command(monoid, path):
    return [sys.executable, "-m", "tropmono.cli", "factor", "--monoid", monoid, "--batch", path, "--json"]


def rows_from_json(rows):
    return tuple(tuple(NEG_INF if x == "-inf" else x for x in r) for r in rows)


def batch_items(stats, lines, good, wall):
    """Count one batch call of `lines` items, `good` of them verified.
    Its latency sample is the call's wall time per line."""
    stats.sample(wall, good == lines, lines)
    stats.verified += good
    stats.failed += lines - good


def check_reports(stats, sampler, monoid, n, inputs, reports):
    """Checks on one call's reports; returns the number of good lines."""
    if isinstance(reports, dict):
        reports = [reports]
    good = 0
    pick = sampler.randrange(len(inputs))
    for i, rows in enumerate(inputs):
        what = f"{monoid} line {i + 1} {format_rows(rows)}"
        if i >= len(reports):
            stats.note(f"{what}: no report")
            continue
        r = reports[i]
        word = r.get("word", "")
        ok = stats.check("verified_flag", r.get("verified") is True, f"{what}: verified is not true")
        ok = stats.check("letter_count", r.get("letters") == len(oracle.word_tokens(word)),
                         f"{what}: letters {r.get('letters')} != token count") and ok
        echo = r.get("matrix", {})
        ok = stats.check("matrix_echo", r.get("n") == n and rows_from_json(echo.get("rows", ())) == rows,
                         f"{what}: report matrix differs from the input") and ok
        if ok and i == pick:
            tokens = oracle.word_tokens(word)
            if len(tokens) <= CHECK_LETTER_LIMIT:
                ok = stats.check("independent_product", oracle.word_product(tokens, monoid, n) == rows,
                                 f"{what}: word multiplies back to something else")
        good += ok
    return good


class CliRound:
    """One `factor --batch` child per batch file, one at a time.  The
    latency sample of a call is its wall time over its line count."""

    def __init__(self, workdir, stats, sampler):
        self.workdir, self.stats, self.sampler = workdir, stats, sampler

    def call(self, monoid, n, inputs, tag):
        stats = self.stats
        path = write_batch(self.workdir, tag, inputs)
        stats.attempted += len(inputs)
        t0 = perf_counter()
        try:
            proc = subprocess.run(cli_command(monoid, path), capture_output=True, env=child_env(),
                                  cwd=ROOT, timeout=CLI_CALL_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc = None
        dt = perf_counter() - t0
        good = 0
        if proc is None:
            stats.note(f"{monoid} batch: timed out after {CLI_CALL_TIMEOUT} s")
        elif stats.check("exit_code", proc.returncode == 0,
                         f"{monoid} batch: exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"):
            try:
                reports = json.loads(proc.stdout)
            except ValueError as exc:
                stats.note(f"{monoid} batch: stdout is not JSON: {exc}")
            else:
                good = check_reports(stats, self.sampler, monoid, n, inputs, reports)
        stats.check_s += perf_counter() - t0 - dt
        batch_items(stats, len(inputs), good, dt)
        return dt, good

    def __call__(self, calls):
        for monoid, n, inputs in calls:
            self.call(monoid, n, inputs, monoid)


class CliReplay:
    """The CLI factor pipeline replayed in-process through public calls:
    read the batch file, parse_matrix, factor, evaluate(w) == m, then
    Word.text, letter_count, matrix_to_json and json.dumps."""

    def __init__(self, tm, rec, workdir, stats, sampler):
        self.tm, self.rec, self.workdir, self.stats, self.sampler = tm, rec, workdir, stats, sampler
        self.shape = Counter()
        self.stdout_bytes = 0

    def __call__(self, calls):
        tm, rec, stats = self.tm, self.rec, self.stats
        for monoid, n, inputs in calls:
            path = write_batch(self.workdir, monoid, inputs)
            iid = stats.attempted
            stats.attempted += len(inputs)
            top = rec.begin("bench.item", iid)
            t0 = perf_counter()
            try:
                s = rec.begin("cli.read", iid)
                with open(path, encoding="utf-8") as fh:
                    lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
                rec.end(s)
                reports = []
                for ln in lines:
                    s = rec.begin("matrix.parse", iid)
                    m = tm.parse_matrix(ln, tm.ZMAX)
                    rec.end(s)
                    z = tm.count_bottoms(m) if rec.enabled else None
                    s = rec.begin("factorize.factor", iid, z)
                    w = tm.factor(m, monoid)
                    rec.end(s)
                    s = rec.begin("factorize.evaluate", iid)
                    ok = tm.evaluate(w) == m
                    rec.end(s)
                    s = rec.begin("factorize.serialize", iid)
                    reports.append({
                        "command": "factor",
                        "monoid": monoid,
                        "n": m.n,
                        "matrix": tm.matrix_to_json(m),
                        "word": w.text(),
                        "letters": w.letter_count(),
                        "verified": ok,
                    })
                    rec.end(s)
                    if rec.enabled:
                        s = rec.begin("bench.shape", iid)
                        self.shape["letters"] += reports[-1]["letters"]
                        self.shape["nodes"] += dag_nodes(w.root)
                        rec.end(s)
                s = rec.begin("factorize.serialize", iid)
                out = json.dumps(reports if len(reports) > 1 else reports[0])
                rec.end(s)
            except Exception as exc:  # counted into fail_ratio; the run goes on
                rec.end(top)
                stats.note(f"{monoid} replay: {type(exc).__name__}: {exc}")
                batch_items(stats, len(inputs), 0, perf_counter() - t0)
                continue
            dt = perf_counter() - t0
            rec.end(top)
            self.stdout_bytes += len(out.encode("utf-8")) + 1
            c = rec.begin("bench.check")
            stats.checks["exit_code"] += 1
            good = check_reports(stats, self.sampler, monoid, n, inputs, json.loads(out))
            stats.check_s += perf_counter() - t0 - dt
            rec.end(c)
            batch_items(stats, len(inputs), good, dt)


# -- the measurement loop ----------------------------------------------------------

def measure(round_fn, rounds, stats, seconds, min_rounds, rss_round, rss_of, fixed_rounds=None):
    """Run whole rounds: fixed_rounds of them, or until `seconds` have
    passed and at least min_rounds are done.  A hard cap stops a very
    slow program from overrunning the benchmark's time limit."""
    start = perf_counter()
    deadline = start + seconds
    cap = start + 3 * seconds + 10
    rss = None
    done = 0
    while True:
        now = perf_counter()
        if fixed_rounds is not None:
            if done >= fixed_rounds:
                break
        elif done >= min_rounds and now >= deadline:
            break
        if done and now >= cap:
            stats.notes.append(f"time cap reached after {done} rounds")
            break
        r0 = perf_counter()
        extra0 = stats.check_s + stats.clock.ref_s
        first = len(stats.clock.times)
        round_fn(next(rounds))
        extra = stats.check_s + stats.clock.ref_s - extra0
        stats.rounds.append((perf_counter() - r0 - extra, first, len(stats.clock.times)))
        done += 1
        if done == rss_round:
            rss = rss_of()
    return done, (rss if rss is not None else rss_of()), perf_counter() - start


def per_layer_metrics(rec, f, shape, finite_round=None, stdout_bytes=0):
    """The per-layer metrics; every time is rescaled by the factor f."""
    def total(name):
        return rec.durations(name)[0] * f

    _, by_z = rec.durations("factorize.factor")
    out = {
        "factorize.factor_s": total("factorize.factor"),
        "factorize.factor_calls": rec.count("factorize.factor"),
    }
    for k in range(4):
        out[f"factorize.factor_s.z{k}"] = by_z.get(k, 0.0) * f
    out["factorize.factor_s.z4plus"] = sum((v for z, v in by_z.items() if z is not None and z >= 4), 0.0) * f
    out["factorize.evaluate_s"] = total("factorize.evaluate")
    out["factorize.membership_s"] = total("factorize.membership")
    out["factorize.serialize_s"] = total("factorize.serialize")
    out["matrix.parse_s"] = total("matrix.parse")
    out["cli.stdout_bytes"] = stdout_bytes
    letters, nodes = shape["letters"], shape["nodes"]
    out["factorize.letters_total"] = letters
    out["factorize.dag_nodes_total"] = nodes
    out["factorize.letters_per_node"] = letters / nodes if nodes else 0.0
    _, closure_by = rec.durations("finite.closure")
    _, jclass_by = rec.durations("finite.jclasses")
    for name in BOOLEAN_MONOIDS:
        out[f"finite.closure_s.{name}"] = closure_by.get(name, 0.0) * f
        out[f"finite.closure_elements.{name}"] = finite_round.elements.get(name, 0) if finite_round else 0
        out[f"finite.jclasses_s.{name}"] = jclass_by.get(name, 0.0) * f
    products = finite_round.products if finite_round else 0
    out["finite.closure_new_ratio"] = finite_round.new / products if products else 0.0
    out["finite.prime_s"] = total("finite.prime")
    out["finite.prime_pairs"] = finite_round.prime_pairs if finite_round else 0
    out["finite.rank_s"] = total("finite.rank")
    out["finite.irredundant_s"] = total("finite.irredundant")
    return out


def main(argv):
    mode, name, seed, seconds, smoke = argv[0], argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    wl = WORKLOADS[name]
    min_rounds = 1 if smoke else wl.min_rounds
    rss_round = 1 if smoke else wl.rss_round
    trace_rounds = 1 if smoke else max(1, round(wl.trace_rounds * seconds / 10))
    rounds = wl.rounds(seed, smoke)
    sampler = random.Random(f"checks-{seed}")
    rec = Recorder() if mode == "trace" else NullRecorder()
    stats = Stats(REFERENCE_CHUNK_S, rec)
    result = {}
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # The cold operation only warms up; the timed rounds check and count.
        if wl.kind == "cli" and mode == "run":
            CliRound(workdir, Stats(), sampler)([wl.cold])
            runner = CliRound(workdir, stats, sampler)
            rss_of = lambda: peak_rss_mb(resource.RUSAGE_CHILDREN)  # noqa: E731
        else:
            tm = import_library()
            if wl.kind == "cli":
                CliReplay(tm, NullRecorder(), workdir, Stats(), sampler)([wl.cold])
            else:
                try:
                    (finite_cold if wl.kind == "finite" else library_cold)(tm, wl.cold)
                except Exception:  # noqa: BLE001 -- a broken program fails in the rounds instead
                    pass
            if wl.kind == "library":
                runner = LibraryRound(tm, rec, stats, sampler)
            elif wl.kind == "finite":
                runner = FiniteRound(tm, rec, stats)
            else:
                runner = CliReplay(tm, rec, workdir, stats, sampler)
            rss_of = peak_rss_mb
        if mode == "run":
            done, rss, wall = measure(runner, rounds, stats, seconds, min_rounds, rss_round, rss_of)
            latencies, busy = stats.latencies()
            result.update(rounds=done, rss_mb=rss, rss_round=min(rss_round, done), wall_s=wall,
                          latencies=latencies, busy_s=busy, raw_busy_s=sum(stats.clock.times),
                          speed_factor=stats.clock.median_factor())
        else:
            root = rec.begin("bench.run")
            done, _, _ = measure(runner, rounds, stats, seconds, min_rounds, rss_round, rss_of,
                                 fixed_rounds=trace_rounds)
            stats.clock.mark()  # the last chunk's reference timing, inside the root span
            rec.end(root)
            _, busy = stats.latencies()
            f = busy / sum(stats.clock.times)
            result.update(rounds=done, round_s=stats.round_seconds(), speed_factor=f)
            if mode == "trace":
                spans_file = os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl")
                rec.write(spans_file)
                result.update(
                    per_layer=per_layer_metrics(
                        rec,
                        f,
                        getattr(runner, "shape", Counter()),
                        runner if wl.kind == "finite" else None,
                        getattr(runner, "stdout_bytes", 0),
                    ),
                    self_times={k: v * f for k, v in rec.self_times().items()},
                    traced_wall=(rec.spans[root][2] - rec.spans[root][1]) * f,
                    spans=len(rec.spans),
                    spans_file=os.path.relpath(spans_file, ROOT),
                )
        missing = [c for c in EXPECTED_CHECKS[wl.kind] if not stats.checks[c]]
        result.update(attempted=stats.attempted, failed=stats.failed, verified=stats.verified,
                      failures=stats.failures, checks=dict(stats.checks), missing_checks=missing,
                      notes=stats.notes)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
