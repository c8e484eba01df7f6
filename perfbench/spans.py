"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, req]``: host seconds from
``time.perf_counter``, the index of the span that was open when it
started (or ``None``) and a request id shared by the spans of one request.
Spans are timed from outside the program: :meth:`Tracer.patched` swaps a
public function or method for a timing wrapper for the duration of a
traced phase and restores it afterwards, so no file of the program
changes and untraced runs execute the program exactly as shipped.

A layer is the part of a span name before the first ``.``; its self time
is the time its spans cover minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence


class Tracer:
    """Spans kept in memory; written out once, by :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, req: Optional[str] = None):
        """Time the ``with`` body as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        if req is None and parent is not None:
            req = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, req]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def record(self, name: str, start: float, end: float,
               req: Optional[str] = None) -> None:
        """Add a finished root span (concurrent asyncio callers use this,
        because an open-span stack cannot tell their requests apart)."""
        self.spans.append([name, start, end, None, req])

    def wrap(self, fn: Callable, name, after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span; ``name`` may be a function of the call's
        arguments, and ``after(result, args)`` sees every return value."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            with tracer.span(label):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple]):
        """Swap each ``(owner, attribute, name[, after])`` for a traced
        wrapper; classmethods stay classmethods.  Restores on exit."""
        saved = []
        try:
            for owner, attribute, name, *after in targets:
                raw = vars(owner)[attribute] if isinstance(owner, type) \
                    else getattr(owner, attribute)
                saved.append((owner, attribute, raw))
                if isinstance(raw, classmethod):
                    traced = classmethod(self.wrap(raw.__func__, name, *after))
                else:
                    traced = self.wrap(raw, name, *after)
                setattr(owner, attribute, traced)
            yield self
        finally:
            for owner, attribute, raw in reversed(saved):
                setattr(owner, attribute, raw)

    # ------------------------------------------------------------------
    # Derived numbers
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Position to pass as ``since`` to the readers below."""
        return len(self.spans)

    def _child_seconds(self, since: int) -> List[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans[since:]:
            if parent is not None:
                child[parent] += end - start
        return child

    def durations(self, name: str, since: int = 0, self_only: bool = False) -> List[float]:
        """Seconds of every span called ``name`` recorded after ``since``;
        with ``self_only``, less the time their children cover."""
        child = self._child_seconds(since) if self_only else None
        return [
            end - start - (child[index] if self_only else 0.0)
            for index, (label, start, end, _, _) in enumerate(self.spans)
            if index >= since and label == name
        ]

    def outermost_total(self, names: Sequence[str], since: int = 0) -> Dict[str, float]:
        """Seconds per name, counting only spans with no ancestor in
        ``names`` (a render that calls another render counts once, under
        the outer one)."""
        group = set(names)
        totals = {name: 0.0 for name in names}
        for label, start, end, parent, _ in self.spans[since:]:
            if label not in group:
                continue
            while parent is not None and self.spans[parent][0] not in group:
                parent = self.spans[parent][3]
            if parent is None:
                totals[label] += end - start
        return totals

    def self_times(self, since: int = 0) -> Dict[str, float]:
        """Self seconds per layer over the spans recorded after ``since``."""
        child = self._child_seconds(since)
        totals: Dict[str, float] = {}
        for index in range(since, len(self.spans)):
            label, start, end, _, _ = self.spans[index]
            layer = label.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child[index]
        return totals

    def dump(self, path: Path, metrics: Dict[str, dict]) -> None:
        """Write every span, the layer self times and the metrics."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "span_fields": ["name", "start_s", "end_s", "parent", "req"],
            "spans": self.spans,
            "self_s_by_layer": self.self_times(),
            "metrics": metrics,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
