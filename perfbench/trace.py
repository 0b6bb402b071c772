"""Spans, self time and percentiles for the benchmark.

The traced run records one span per call into a layer's public
function or method: name, layer, start, end, the span that caused it
(its parent) and a unit count (run-epochs for decide and plant spans).
Spans stay in memory and are written out when the run ends.

Spans come from wrappers that the traced run swaps onto public methods
and functions (``EpochKernel.step``, each controller's ``decide``,
``repro.batch.simulate_batch`` ...) for its own duration and then
restores.  No source file of the program is changed; the untraced run
executes the program with nothing swapped in.

A span's *self time* is its duration minus the part of that interval
its children cover.  Children may overlap each other (spans opened on
the service's worker threads), so coverage is the length of the union
of the children's intervals, clipped to the parent.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "STANDARD_PERCENTILES",
    "Span",
    "Tracer",
    "percentile",
    "self_times",
    "tail_percentile",
    "union_length",
]

#: Percentiles a timing is reported at; the tail is the highest of these
#: that still has at least :data:`MIN_BEYOND` samples above it.
STANDARD_PERCENTILES: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest-rank position of percentile ``p`` in ``n`` samples."""
    return max(1, math.ceil(p / 100.0 * n))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """Highest standard percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it
    (fewer than 20 samples).
    """
    best: Optional[float] = None
    for p in STANDARD_PERCENTILES:
        if n - _rank(n, p) >= MIN_BEYOND:
            best = p
    return best


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "layer", "start", "end", "parent", "units")

    def __init__(
        self,
        name: str,
        layer: str,
        start: float,
        parent: Optional["Span"],
        units: int = 0,
    ) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.units = units

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of each span, in the order given."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out: List[float] = []
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(id(span), ())
        )
        out.append(span.duration - covered)
    return out


UnitsFn = Callable[[Tuple[Any, ...], Dict[str, Any], Optional[Span]], int]
NameFn = Callable[[Tuple[Any, ...]], str]


class Tracer:
    """In-memory span recorder with swap-in wrappers for public calls.

    Spans nest per thread.  A span opened on a thread with no open span
    (a worker thread of the service) takes the current root span as its
    parent, so every span of a traced unit hangs off that unit's root.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._root: Optional[Span] = None
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else self._root

    def open(self, name: str, layer: str, units: int = 0) -> Span:
        span = Span(name, layer, 0.0, self.current(), units)
        self.spans.append(span)
        self._stack().append(span)
        span.start = span.end = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    def root(self, name: str, layer: str) -> "_RootScope":
        """Context manager opening the root span of one traced unit."""
        return _RootScope(self, name, layer)

    def span(self, name: str, layer: str, units: int = 0) -> "_SpanScope":
        return _SpanScope(self, name, layer, units)

    # -- swap-in wrappers --------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        name: "str | NameFn",
        units: Optional[UnitsFn] = None,
    ) -> None:
        """Replace ``owner.attr`` (a function or method defined on
        ``owner`` itself) with a span-recording wrapper until
        :meth:`unwrap_all`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(args)
            count = units(args, kwargs, tracer.current()) if units else 0
            span = tracer.open(label, layer, count)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span as one JSON line (parent as a line index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self_times(self.spans)):
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "layer": span.layer,
                            "start_s": span.start - origin,
                            "end_s": span.end - origin,
                            "self_s": own,
                            "parent": (
                                index.get(id(span.parent))
                                if span.parent is not None
                                else None
                            ),
                            "units": span.units,
                        }
                    )
                    + "\n"
                )


class _SpanScope:
    def __init__(self, tracer: Tracer, name: str, layer: str, units: int) -> None:
        self._tracer = tracer
        self._args = (name, layer, units)
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer.open(*self._args)
        return self.span

    def __exit__(self, *exc: Any) -> None:
        assert self.span is not None
        self._tracer.close(self.span)


class _RootScope(_SpanScope):
    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        super().__init__(tracer, name, layer, 0)

    def __enter__(self) -> Span:
        span = super().__enter__()
        self._tracer._root = span
        return span

    def __exit__(self, *exc: Any) -> None:
        super().__exit__(*exc)
        self._tracer._root = None
