"""In-memory spans around calls into qdistill's public functions.

A `Tracer` wraps library functions from outside the library.  Every call to a
wrapped function records one span: name, start, end, parent span and the
tracer's run id.  Spans stay in memory; `Tracer.dump` writes them out as one
file when the run ends.

A name is wrapped where callers look it up.  `from .x import f` binds `f` in
the importing module, so `install` replaces every binding of the original
function object in every loaded `qdistill` module, not only the defining one.
Calls through a reference captured before `install` (a dict of callbacks, a
closure) are not seen.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# span record layout: [name, start, end, parent index or -1, counters or None]
NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    """Collects spans and count-only call counters for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.calls_only: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span_wrapper(self, name, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                try:
                    span[COUNTS] = count(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError,
                        OSError) as exc:
                    # the library changed shape: keep the span, not the count
                    span[COUNTS] = {"count_error": repr(exc)}
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counter = self.calls_only

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, module_name: str, func_name: str, count=None,
                span: bool = True) -> bool:
        """Wrap `module.func` at every place a qdistill module binds it.

        `count(args, kwargs, result)` may return a dict of numbers or strings
        stored on the span.  With `span=False` only the calls are counted;
        that is for per-gate helpers whose span would cost more than the work.
        Returns False, wrapping nothing, when the function does not exist, so
        a library that drops a function still runs and reads 0 for it.
        """
        original = getattr(sys.modules.get(module_name), func_name, None)
        if original is None:
            return False
        name = f"{module_name.rsplit('.', 1)[-1]}.{func_name}"
        if span:
            wrapper = self._span_wrapper(name, original, count)
        else:
            wrapper = self._count_wrapper(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qdistill"
                                   or mod_name.startswith("qdistill.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        return True

    def uninstall(self) -> None:
        """Put every original binding back."""
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Spans come from one thread and nest strictly, so direct children never
        overlap and their durations can simply be summed.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def dump(self, path: str, extra: dict) -> None:
        """Write every span plus `extra` as one JSON document."""
        origin = self.spans[0][START] if self.spans else 0.0
        doc = dict(extra)
        doc["run_id"] = self.run_id
        doc["spans"] = [
            {"id": i, "name": s[NAME], "start_s": s[START] - origin,
             "end_s": s[END] - origin, "parent": s[PARENT],
             "run": self.run_id, **({"counts": s[COUNTS]} if s[COUNTS] else {})}
            for i, s in enumerate(self.spans)]
        doc["calls_only"] = dict(self.calls_only)
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
