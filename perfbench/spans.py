"""In-memory span recorder used by the traced run.

Spans are recorded by the benchmark around calls into the package: either
directly (``Tracer.span``) or by temporarily wrapping a public function or
method (``Tracer.wrapping``) so the calls the package makes itself are
timed too.  The recorder keeps one stack and is meant for single-threaded
passes; the traced run uses one thread on purpose.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class LayerError(RuntimeError):
    """A layer the traced run times is missing or is never called."""


class Tracer:
    """Spans as (name, start, end, parent index), all sharing one run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []            # [name, start, end, parent]
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrapping(self, targets):
        """Record a span around every call of each (owner, attr, name, observe).

        ``observe``, when not None, is called with each return value.  A
        target the package does not have, or one the pass never calls,
        raises LayerError: a renamed or bypassed layer fails the traced run
        instead of reading 0.
        """
        saved, calls = [], []
        try:
            for owner, attr, name, observe in targets:
                orig = owner.__dict__.get(attr)
                if orig is None:
                    raise LayerError(f"{owner.__name__}.{attr} does not exist")
                count = [0]
                calls.append((f"{owner.__name__}.{attr}", count))
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, observe, count))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
        never = [label for label, count in calls if not count[0]]
        if never:
            raise LayerError(f"never called during the traced pass: {never}")

    def _wrap(self, func, name, observe, count):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            count[0] += 1
            with self.span(name):
                result = func(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result
        return traced

    def duration(self, i):
        _, start, end, _ = self.spans[i]
        return end - start

    def self_times(self):
        """Each span's duration minus the part its child spans cover."""
        covered = [[] for _ in self.spans]
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent is not None:
                covered[parent].append((start, end))
        out = []
        for i in range(len(self.spans)):
            out.append(self.duration(i) - _union_length(covered[i]))
        return out

    def total(self, names, inclusive=True):
        """Summed duration (or self time) of the spans with one of these names."""
        names = {names} if isinstance(names, str) else set(names)
        times = None if inclusive else self.self_times()
        return sum(self.duration(i) if inclusive else times[i]
                   for i, rec in enumerate(self.spans) if rec[0] in names)

    def records(self):
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "run_id": self.run_id}
                for name, start, end, parent in self.spans]

    def write(self, path):
        with open(path, "a") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
