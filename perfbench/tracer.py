"""In-memory span tracer that wraps module functions from outside them.

A span is (id, name, start, end, parent). Spans are appended to a list
while the program runs and written out once, at the end. A span's parent
is the innermost span open when it starts. Traced calls run at one
thread, so one stack of open spans serves the whole call.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._open: list[int] = []

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        sid = next(self._ids)
        self._open.append(sid)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._open.pop()
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, module, attr: str, name, before=None, after=None, raises=None) -> None:
        """Replace ``module.attr`` with a traced wrapper.

        ``name`` is a span name, or a callable of (args, kwargs) giving
        one. ``before(args, kwargs)`` and ``after(result)`` update
        counters. ``raises`` is an (exception type, counter) pair: such an
        exception from the wrapped call is counted and re-raised.
        """
        fn = getattr(module, attr)
        name_of = name if callable(name) else (lambda _a, _k: name)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            with self.span(name_of(args, kwargs)):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if raises is not None and isinstance(exc, raises[0]):
                        self.add(raises[1])
                    raise
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)

    def write(self, path: Path) -> None:
        """Write every span once, as columns of a JSON object."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[sid, index[n], t0, t1, parent] for sid, n, t0, t1, parent in self.spans]
        columns = ["id", "name", "start", "end", "parent"]
        path.write_text(json.dumps({"names": names, "columns": columns, "spans": rows}))


def summarize(spans, window: tuple[float, float]) -> tuple[dict[str, dict], float]:
    """Per-name calls, total and self seconds, plus the time of ``window``
    that no root span covers.

    A span's self time is its duration minus its children's durations.
    The root spans must lie inside ``window``.
    """
    children_s: dict[int, float] = defaultdict(float)
    for _sid, _name, t0, t1, parent in spans:
        children_s[parent] += t1 - t0
    per_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, t0, t1, _parent in spans:
        entry = per_name[name]
        entry["calls"] += 1
        entry["total_s"] += t1 - t0
        entry["self_s"] += (t1 - t0) - children_s[sid]
    return dict(per_name), (window[1] - window[0]) - children_s[-1]
