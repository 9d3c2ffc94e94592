"""Spans around the package's public entry points, recorded from outside.

:class:`Tracer` replaces module attributes with timing wrappers and restores
them on :meth:`Tracer.uninstall`. Each call becomes a span: name, parent span,
start, end and optional attributes. Spans stay in memory until
:meth:`Tracer.write`; the top-level span of each trial is the identifier its
spans share. Intervals listed in ``excluded`` (time the benchmark itself spent
inside a span) are left out of the self time of the innermost span around
them.
"""

from __future__ import annotations

import bisect
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # [name, parent index or -1, start, end, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.excluded: list[tuple[float, float]] = []

    def install(self, targets):
        """Wrap ``module.attr`` for each ``(module, attr, span_name, attrs)``;
        ``attrs(args, kwargs)`` returns the span's attributes or is None.
        Attributes a module does not have are skipped."""
        for module, attr, name, attrs in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, attrs))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (a trial's root span)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   attrs(args, kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans and the
        excluded intervals inside it cover."""
        spans = self.spans
        own = [s[3] - s[2] for s in spans]
        for s in spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        starts = [s[2] for s in spans]  # spans are recorded in start order
        for t0, t1 in self.excluded:
            i = bisect.bisect_right(starts, t0) - 1
            while i >= 0 and spans[i][3] < t1:
                i = spans[i][1]
            if i >= 0:
                own[i] -= t1 - t0
        return own

    def summary(self) -> dict:
        """Calls, total and self seconds per span name."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s, own in zip(self.spans, self.self_times()):
            row = out[s[0]]
            row["calls"] += 1
            row["total_s"] += s[3] - s[2]
            row["self_s"] += own
        return dict(out)

    def write(self, path):
        """One JSON line per span (``root`` is the trial identifier), then a
        summary line."""
        roots = []
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1, attrs) in enumerate(self.spans):
                roots.append(i if parent < 0 else roots[parent])
                fh.write(json.dumps({"id": i, "parent": parent, "root": roots[i],
                                     "name": name, "start": t0, "end": t1,
                                     "attrs": attrs}) + "\n")
            fh.write(json.dumps({"summary": self.summary()}) + "\n")
