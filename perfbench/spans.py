"""In-memory span recorder for the traced run.

A span is [name, start, end, parent, item, tag]: the layer call it
times (named "<module>.<what>", e.g. "factorize.factor"), perf_counter
start and end, the index of the enclosing span (-1 for the root), the
workload item it belongs to, and an optional tag such as the bottom
count of a factored matrix or the monoid of a closure.  Spans stay in
memory and are written out once, when the traced run ends.

Spans are recorded from the benchmark's own files around calls into
the library's public functions; nothing inside the library is
instrumented.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullRecorder:
    """Tracing off: the same call sites, no work."""

    enabled = False

    def begin(self, name, item=None, tag=None):
        return 0

    def end(self, idx):
        pass


class Recorder:
    enabled = True

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name, item=None, tag=None):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, item, tag])
        self._open.append(idx)
        return idx

    def end(self, idx):
        """Close span idx and any span still open inside it (a call
        that raised leaves its span open)."""
        now = perf_counter()
        while self._open:
            top = self._open.pop()
            self.spans[top][2] = now
            if top == idx:
                return
        raise ValueError(f"span {idx} is not open")

    def durations(self, name):
        """Total duration of the spans called name, and per tag."""
        total = 0.0
        by_tag = defaultdict(float)
        for s in self.spans:
            if s[0] == name:
                d = s[2] - s[1]
                total += d
                by_tag[s[5]] += d
        return total, by_tag

    def count(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def self_times(self):
        """Self time per span name: a span's duration minus the time its
        child spans cover.  Children of one span never overlap (one
        thread), so the covered time is the sum of their durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0]] += (s[2] - s[1]) - child[i]
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                name, start, end, parent, item, tag = s
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "item": item, "tag": tag}
                    )
                )
                fh.write("\n")
