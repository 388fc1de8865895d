"""In-memory spans around calls into blochpair, for the traced run.

The tracer wraps module attributes from outside the package: a call that
any code makes through ``module.attr`` opens a span while the wrapper is
installed, so calls the package makes internally (``purification_scan``
calling ``integrate``) nest under the span of their caller.  Nothing is
installed outside a ``patched()`` block.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    """Spans as dicts with ``id``, ``parent``, ``name``, ``start``, ``end``, ``units``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "units": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, units):
        def traced(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name) as rec:
                result = fn(*args, **kwargs)
            if units is not None:
                rec["units"] = units(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install a span wrapper on each ``(module, attr, name, units)`` target.

        ``name`` is a string or ``f(args, kwargs)``; ``units``, if given,
        is ``f(args, kwargs, result)`` returning a dict of exact counts.
        """
        saved = []
        try:
            for module, attr, name, units in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, units))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @staticmethod
    def span_cost(calls: int = 5_000, repeats: int = 5) -> float:
        """Seconds one span wrapper adds to a call, measured in this process.

        Times ``calls`` calls of a no-op function with and without a
        wrapper, ``repeats`` times, and returns the median difference per
        call.  A fresh tracer holds the calibration spans.
        """
        def noop():
            return None

        costs = []
        for _ in range(repeats):
            wrapped = Tracer()._wrap(noop, "calibrate", None)
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return sorted(costs)[len(costs) // 2]

    # -- analysis --------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def parent_name(self, span: dict) -> str | None:
        return None if span["parent"] is None else self.spans[span["parent"]]["name"]

    def ancestors(self, span: dict):
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
            yield span

    def under(self, span: dict, root_name: str) -> bool:
        return any(a["name"] == root_name for a in self.ancestors(span))

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part its direct children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_self_time(self, root_name: str) -> dict[str, float]:
        """Self time per layer (first dotted part of the name) under ``root_name`` spans."""
        own = self.self_times()
        totals: dict[str, float] = {}
        for s in self.spans:
            if s["name"] == root_name or self.under(s, root_name):
                layer = s["name"].split(".")[0]
                totals[layer] = totals.get(layer, 0.0) + own[s["id"]]
        return totals

    def uncovered_fraction(self, root_name: str) -> float:
        """Share of the ``root_name`` spans' time that no child span covers."""
        roots = self.named(root_name)
        own = self.self_times()
        total = sum(s["end"] - s["start"] for s in roots)
        return sum(own[s["id"]] for s in roots) / total

    def to_json(self) -> list[dict]:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans
        ]
