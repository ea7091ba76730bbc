"""In-memory spans around calls into kslab's public functions.

A ``Tracer`` replaces each traced function at every module attribute that
holds it (``kslab.solver.radial_run``, ``kslab.sweep.radial_run``, ... and
aliases such as ``kslab.cli.rect_run``), records one span per call, and
puts the originals back on ``uninstall``.  A span is

    (iteration, label, start, end, parent index or -1, counts or None)

with ``perf_counter`` times.  ``counters`` maps a label to a function of
(bound arguments, result) that returns exact counts made at that boundary.
The benchmark calls kslab from one thread, so one span stack suffices.
"""

from __future__ import annotations

import csv
import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self, modules, targets, counters=None):
        self.modules = list(modules)
        self.targets = list(targets)  # (defining module, function name)
        self.counters = dict(counters or {})
        self.spans = []
        self.iteration = None
        self._stack = []
        self._patched = []

    def install(self) -> None:
        for module, fname in self.targets:
            original = getattr(module, fname)
            label = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
            wrapper = self._wrap(label, original)
            for mod in self.modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = self.counters.get(label)
        signature = inspect.signature(fn) if counter else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.iteration, label, start, end, parent, None)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[index] = (self.iteration, label, start, end, parent, counter(bound.arguments, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "iteration", "name", "start_s", "end_s", "parent", "counts"])
            for index, (it, label, start, end, parent, counts) in enumerate(self.spans):
                out.writerow([index, it, label, repr(start), repr(end), parent, counts or ""])


def _union_length(intervals) -> float:
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


def iteration_summary(spans, iteration) -> dict:
    """Per-label totals for one iteration.

    ``inclusive_s`` counts only the outermost span of a label (a nested call
    of the same function is not counted twice); ``self_s`` is each span's
    duration minus the part of it that its child spans cover; ``top_s`` is
    the time covered by spans that have no parent.
    """
    picked = [(i, s) for i, s in enumerate(spans) if s is not None and s[0] == iteration]
    children = defaultdict(list)
    for i, s in picked:
        if s[4] >= 0:
            children[s[4]].append((s[2], s[3]))
    labels = {}

    def inside_same_label(s):
        parent = s[4]
        while parent >= 0:
            if spans[parent][1] == s[1]:
                return True
            parent = spans[parent][4]
        return False

    top = []
    for i, s in picked:
        entry = labels.setdefault(
            s[1], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "durations": [], "starts": [], "counts": []}
        )
        duration = s[3] - s[2]
        entry["calls"] += 1
        entry["durations"].append(duration)
        entry["starts"].append((s[4], s[2]))
        entry["self_s"] += duration - _union_length(children.get(i, []))
        if s[5]:
            entry["counts"].append(s[5])
        if not inside_same_label(s):
            entry["inclusive_s"] += duration
        if s[4] < 0:
            top.append((s[2], s[3]))
    return {"labels": labels, "top_s": _union_length(top)}
