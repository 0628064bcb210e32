"""Spans recorded by the benchmark around its own calls into eprsim.

A span is (name, start, end, parent) plus counters. The layer of a span
is the part of its name before the first dot (``fock.normal_moment`` is
in layer ``fock``). Self time is a span's duration minus the time its
direct children cover.

``NullTracer`` calls straight through and is what the untraced passes
use; ``Tracer`` keeps every span in memory and also queues composite
calls for replay, where the benchmark calls their public constituents
one by one so that their cost lands on the layers that own them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

LAYERS = ("cli", "zoo", "homodyne", "fock", "network", "correlation", "inequalities", "classical")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counters: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Untraced: every call goes straight to the library."""

    def call(self, name, fn, *args, counters=None, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, **counters):
        return nullcontext(Span(name, 0.0, None, counters=dict(counters)))

    def count(self, name, **counters):
        pass

    def replay(self, fn, *args):
        pass


class Tracer:
    """Records spans in memory; composite calls are queued for replay."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._replays: list[tuple] = []

    @contextmanager
    def span(self, name, **counters):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent, counters=dict(counters))
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, counters=None, **kwargs):
        with self.span(name, **(counters or {})):
            return fn(*args, **kwargs)

    def count(self, name, **counters):
        """A zero-length span that only carries counters."""
        with self.span(name, **counters):
            pass

    def replay(self, fn, *args):
        self._replays.append((fn, args))

    def run_replays(self) -> None:
        """Run the queued constituent calls under one ``replay`` root span."""
        pending, self._replays = self._replays, []
        with self.span("replay"):
            for fn, args in pending:
                fn(self, *args)

    def self_times(self) -> list[float]:
        own = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.end - sp.start
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: calls and self_s."""
        out: dict[str, dict] = {}
        for sp, own in zip(self.spans, self.self_times()):
            row = out.setdefault(sp.name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
        return out

    def layer_counters(self) -> dict[tuple[str, str], float]:
        """Per (layer, counter): the sum, or the maximum for ``*_max`` counters."""
        out: dict[tuple[str, str], float] = {}
        for sp in self.spans:
            for key, val in sp.counters.items():
                slot = (sp.layer, key)
                if key.endswith("_max"):
                    out[slot] = max(out.get(slot, val), val)
                else:
                    out[slot] = out.get(slot, 0) + val
        return out

    def layer_table(self) -> dict[str, dict]:
        """Per layer: spans, self_s and errors."""
        table = {layer: {"spans": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        for sp, own in zip(self.spans, self.self_times()):
            row = table.get(sp.layer)
            if row is not None:
                row["spans"] += 1
                row["self_s"] += own
                row["errors"] += sp.error is not None
        return table
