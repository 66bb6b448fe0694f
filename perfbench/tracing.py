"""In-memory spans around the package's public functions.

A :class:`Tracer` replaces a function at the name its callers look it up by
(a module attribute or a class attribute) with a wrapper that records one
span per call: name, start, end, parent span and an optional note taken from
the call.  Spans stay in memory until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._patched = []

    def patch(self, owner, attr, name, note=None):
        """Wrap owner.attr so that each call records a span called ``name``.

        ``note(args, result)``, when given, stores a value on the span.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        """Save the spans as CSV: id, parent, name, start and end in seconds
        from the first span, note."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,note\n")
            for i, s in enumerate(self.spans):
                note = "" if s[NOTE] is None else str(s[NOTE])
                fh.write(f"{i},{s[PARENT]},{s[NAME]},{s[START] - t0:.9f},"
                         f"{s[END] - t0:.9f},{note}\n")


class SpanStats:
    """Calls, total time and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children.
    """

    def __init__(self, spans):
        self.spans = spans
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.child_names = defaultdict(set)
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            self.calls[s[NAME]] += 1
            self.total[s[NAME]] += dur
            self.self_time[s[NAME]] += dur
            if s[PARENT] >= 0:
                parent = spans[s[PARENT]]
                self.self_time[parent[NAME]] -= dur
                self.child_names[s[PARENT]].add(s[NAME])

    def notes(self, name):
        return [s[NOTE] for s in self.spans if s[NAME] == name]

    def count_without_child(self, name, child):
        """Spans called ``name`` that have no direct child called ``child``."""
        return sum(1 for i, s in enumerate(self.spans)
                   if s[NAME] == name and child not in self.child_names[i])
