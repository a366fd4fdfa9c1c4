"""Outside-in span tracer for the costap layers.

The tracer never edits the package. It replaces public functions at the
attribute the caller looks them up through (for example
`costap.am_driver.total_cov`, which is the name the driver's loop
resolves), records one span per call, and puts the originals back on
`restore()`. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children. Calls are strictly nested on one thread, so the self times of
all spans add up exactly to the duration of the outermost span.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Span:
    """One call at a layer boundary: name, interval, parent and counts."""

    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args=(), kwargs=None, prepare=None, observe=None):
        """Run fn(*args, **kwargs) inside a span called `name`.

        `prepare(span, args, kwargs)` may substitute the arguments (used
        to count callback evaluations); `observe(span, result)` may
        record counts taken from the result.
        """
        kwargs = {} if kwargs is None else kwargs
        span = Span(name, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        if prepare is not None:
            args, kwargs = prepare(span, args, kwargs)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if observe is not None:
            observe(span, result)
        return result

    def wrap(self, owner, attr: str, name: str, prepare=None, observe=None) -> None:
        """Replace `owner.attr` by a wrapper that records a span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, prepare, observe)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every original back, newest patch first, and check it."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, total_s and every summed count."""
        out: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += span.duration
            for key, value in span.counts.items():
                row[key] = row.get(key, 0) + value
        return out
