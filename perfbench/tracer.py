"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the program from outside (no
program file changes) and keeps, per span name, the inclusive time,
the self time (the span minus the time its child spans cover) and the
call count.  Spans nest through a per-thread stack, so a span opened in
the snapshot-writer thread never becomes the child of one on the event
loop.  Everything stays in memory until :meth:`Tracer.dump`.

Only traced runs import this module; the untraced runs that report the
end-to-end metrics execute the program unmodified.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

perf_counter = time.perf_counter


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Start a new measured interval (counters and samples zeroed)."""
        with self._lock:
            self.self_s: Dict[str, float] = defaultdict(float)
            self.total_s: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.counts: Dict[str, float] = defaultdict(float)
            self.maxima: Dict[str, float] = defaultdict(float)
            self.samples: Dict[str, List[float]] = defaultdict(list)
            self.cpu0 = _cpu_seconds()
            self.wall0 = perf_counter()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, *, keep_samples: bool = False,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - begin
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tracer.self_s[name] += elapsed - children
                tracer.total_s[name] += elapsed
                tracer.calls[name] += 1
                if keep_samples:
                    tracer.samples[name].append(elapsed)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap(self, owner: Any, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by its span.

        A missing owner or attribute is skipped, so a later refactor of
        the program loses that span instead of breaking the traced run.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"tracer: no {attr} on {owner!r}; span {name} skipped",
                  file=sys.stderr)
            return
        setattr(owner, attr, self.span(name, fn, **options))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def report(self) -> Dict[str, Any]:
        """Everything recorded since the last :meth:`reset`."""
        with self._lock:
            return {
                "cpu_s": _cpu_seconds() - self.cpu0,
                "wall_s": perf_counter() - self.wall0,
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "maxima": dict(self.maxima),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }

    def dump(self, path: str) -> None:
        """Write :meth:`report` atomically (a reader never sees half)."""
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.report(), handle)
        os.replace(tmp, path)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
