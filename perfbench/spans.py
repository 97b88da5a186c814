"""In-memory span recorder for the traced benchmark run.

The kingmesh package has no tracing of its own, so the traced run wraps the
package's functions from outside: :meth:`Tracer.replace` swaps one function
object for a wrapper under every name a ``kingmesh`` module binds it to (the
modules import each other's functions by name, so patching the defining module
alone would miss most callers).

A span records name, start, end, parent span and run id.  Functions called once
per host permutation (``occurrence_counts``, ``avoids``) would make millions of
spans, so they are recorded as aggregates instead: calls and seconds, charged
to the enclosing span so that its self time stays right.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.hot: dict[str, list] = {}  # name -> [calls, seconds]
        self._open: list[list] = []  # [span id, seconds covered by children]
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        frame = [next(self._ids), 0.0]
        parent = self._open[-1][0] if self._open else None
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            if self._open:
                self._open[-1][1] += end - start
            self.spans.append(
                {
                    "run": self.run_id,
                    "id": frame[0],
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "child_s": frame[1],
                    **attrs,
                }
            )

    def charge(self, name: str, seconds: float) -> None:
        """Record one call of a per-host function as an aggregate."""
        agg = self.hot.setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += seconds
        if self._open:
            self._open[-1][1] += seconds

    def spanned(self, fn, name: str):
        """Wrap fn so each call is a span with this name."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def replace(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "kingmesh" and not mod_name.startswith("kingmesh."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reading the record -------------------------------------------------

    def total(self, name: str) -> float:
        """Inclusive seconds over every span with this name."""
        return sum((s["end"] - s["start"] for s in self.spans if s["name"] == name), 0.0)

    def self_time(self, name: str) -> float:
        """Seconds inside spans with this name not covered by a child span."""
        return sum(
            (s["end"] - s["start"] - s["child_s"] for s in self.spans if s["name"] == name), 0.0
        )

    def layer_self(self) -> dict[str, float]:
        """Self time per layer, the layer being the span name up to its first
        dot.  Together the layers cover the traced wall time of the process."""
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"] - s["child_s"])
        for name, (_, seconds) in self.hot.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
            for name, (calls, seconds) in sorted(self.hot.items()):
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "aggregate": name, "calls": calls, "seconds": seconds},
                        sort_keys=True,
                    )
                    + "\n"
                )
