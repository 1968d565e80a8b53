"""Machine-speed reference for the benchmark's timings.

On a shared machine the speed of a fixed piece of Python drifts by
10-30 % over tens of seconds, with other tenants' load and the clock
rate: a fixed pure-Python loop timed in half-second blocks for five
minutes on a shared 2-core x86_64 Linux VM (Python 3.11.7) gave block
means whose quartiles were 10-15 % apart, for blocks of 10 s and of
60 s alike.  Longer runs do not average that away.

So every timing is taken together with the duration of a fixed
reference loop run right next to it, outside the timed region, and is
reported rescaled to the loop's nominal duration REFERENCE_S: a time t
measured while the loop took k seconds is reported as
t * REFERENCE_S / k.  The loop is a run of 3x3 max-plus products in
plain Python, the operation the program spends its time on, and it
uses nothing from tropmono, so no change to the program can move it.
On that VM this cut the quartile distance of m3_grid and families_wide
throughput over six runs from 12-15 % to 2-3 %.
"""

from __future__ import annotations

from time import perf_counter

# The loop's duration at that VM's median speed, so that scaled
# figures read close to wall-clock figures there.
REFERENCE_S = 0.0023


def reference_loop():
    a = ((3, 1, 4), (1, 5, 9), (2, 6, 5))
    memo = {}
    acc = 0
    for i in range(200):
        cols = tuple(zip(*a))
        b = tuple(tuple(max(x + y for x, y in zip(r, c)) for c in cols) for r in a)
        memo[i & 31] = b
        acc += b[0][0]
        a = ((b[0][0] % 7, b[1][1] % 5, i % 3), (1, 5, 9), (2, 6, 5))
    return acc


def time_reference():
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def scale_factor(samples=5):
    """REFERENCE_S over the median of a few reference-loop timings."""
    time_reference()
    return REFERENCE_S / median([time_reference() for _ in range(samples)])


class ScaledClock:
    """Collects measured durations in chunks, times the reference loop
    after each chunk, and rescales every duration by the median of the
    five reference timings around its chunk."""

    def __init__(self, chunk_s, rec=None):
        self.chunk_s = chunk_s
        self.rec = rec  # a span recorder, to show the loop's time as its own span
        self.times = []
        self.chunk_ends = []
        self.refs = []
        self.ref_s = 0.0  # time spent in the reference loop
        self._since = 0.0
        time_reference()  # the first run of the loop is slower; discard it

    def record(self, t):
        self.times.append(t)
        self._since += t
        if self._since >= self.chunk_s:
            self.mark()

    def mark(self):
        """End the current chunk here and time the reference loop."""
        if self.chunk_ends and self.chunk_ends[-1] == len(self.times):
            return
        span = self.rec.begin("bench.refclock") if self.rec else None
        t0 = perf_counter()
        self.refs.append(time_reference())
        self.ref_s += perf_counter() - t0
        if span is not None:
            self.rec.end(span)
        self.chunk_ends.append(len(self.times))
        self._since = 0.0

    def factors(self):
        self.mark()
        n = len(self.refs)
        return [REFERENCE_S / median(self.refs[max(0, i - 2) : i + 3]) for i in range(n)]

    def scaled(self):
        """Every recorded duration, rescaled, in recording order."""
        out = []
        start = 0
        for end, f in zip(self.chunk_ends, self.factors()):
            out.extend(t * f for t in self.times[start:end])
            start = end
        return out

    def median_factor(self):
        return median(self.factors())
