"""Spans and counts recorded around the program's functions, from outside.

The tracer replaces module attributes (``fed3cr.federation.local_update``,
``fed3cr.autodiff.Tensor.backward``, ...) with wrappers that open a span on
entry and close it on return. Spans live in memory until the run ends. The
program itself is not edited: a wrapper is installed at the name the caller
looks up, so ``forward_pass`` is wrapped as ``fed3cr.federation.forward_pass``
because that is the binding ``local_update`` and ``evaluate_round`` call.

A target that no longer exists is recorded in ``absent`` instead of raising,
so a later refactor that moves a function reports the layer as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "counts")

    def __init__(self, id: int, name: str, start: float, parent: int | None):
        self.id = id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.parent = parent
        self.counts: dict[str, int] | None = None


class Tracer:
    """Single-threaded span recorder with attribute patching."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.absent: list[str] = []
        self.unattributed: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, self.clock(), parent)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """Close `span` and any descendant still open, all at the same instant."""
        now = self.clock()
        while self.stack:
            top = self.stack.pop()
            top.end = now
            if top is span:
                return
        raise RuntimeError(f"span {span.name!r} is not open")

    def current(self) -> Span | None:
        return self.stack[-1] if self.stack else None

    def count(self, name: str) -> None:
        """Attribute one event to the innermost open span."""
        top = self.current()
        if top is None:
            self.unattributed[name] += 1
            return
        if top.counts is None:
            top.counts = defaultdict(int)
        top.counts[name] += 1

    # -- patching -------------------------------------------------------------------

    def _resolve(self, module: str, attr: str):
        """Return (owner, leaf name, current value) or None when missing."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if not hasattr(owner, leaf):
            return None
        return owner, leaf, getattr(owner, leaf)

    def _patch(self, name: str, module: str, attr: str, make_wrapper) -> bool:
        found = self._resolve(module, attr)
        if found is None or not callable(found[2]):
            self.absent.append(name)
            return False
        owner, leaf, original = found
        # Read the raw class attribute so a staticmethod/classmethod is restored intact.
        raw = vars(owner).get(leaf, original) if isinstance(owner, type) else original
        self._restore.append((owner, leaf, raw))
        setattr(owner, leaf, functools.wraps(original)(make_wrapper(original)))
        return True

    def wrap(self, name: str, module: str, attr: str) -> bool:
        """Record a span named `name` around every call of `module.attr`."""

        def make(original):
            def traced(*args, **kwargs):
                span = self.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(span)

            return traced

        return self._patch(name, module, attr, make)

    def wrap_count(self, name: str, module: str, attr: str) -> bool:
        """Count calls of `module.attr` against the innermost open span, without a span."""

        def make(original):
            def counted(*args, **kwargs):
                self.count(name)
                return original(*args, **kwargs)

            return counted

        return self._patch(name, module, attr, make)

    def restore(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    # -- output ---------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every closed span as one JSON object per line, times relative
        to the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s.end is None:
                    continue
                row = {"id": s.id, "name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent}
                if s.counts:
                    row["counts"] = dict(s.counts)
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Child intervals are clipped to the parent and merged first, so children
    that overlap each other are not subtracted twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.end is not None:
            children[s.parent].append(s)
    out: dict[int, float] = {}
    for s in spans:
        if s.end is None:
            continue
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration `s` and total self time `self_s`,
    plus `s.<parent name>` / `calls.<parent name>` split by direct parent."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.end is None:
            continue
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own[s.id]
        parent = by_id[s.parent].name if s.parent is not None else "root"
        row[f"s.{parent}"] += s.end - s.start
        row[f"calls.{parent}"] += 1
    return {name: {k: int(v) if k.startswith("calls") else v for k, v in row.items()} for name, row in out.items()}


def counts_under(spans: list[Span], counter: str, ancestor: str) -> int:
    """Events named `counter` attributed to spans at or below any span named `ancestor`."""
    by_id = {s.id: s for s in spans}
    total = 0
    for s in spans:
        if not s.counts or counter not in s.counts:
            continue
        node: Span | None = s
        while node is not None and node.name != ancestor:
            node = by_id.get(node.parent) if node.parent is not None else None
        if node is not None:
            total += s.counts[counter]
    return total


def descendant_self_time(spans: list[Span], ancestor: str) -> float:
    """Summed self time of every span strictly below a span named `ancestor`."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.end is None or s.name == ancestor:
            continue
        node = by_id.get(s.parent) if s.parent is not None else None
        while node is not None and node.name != ancestor:
            node = by_id.get(node.parent) if node.parent is not None else None
        if node is not None:
            total += own[s.id]
    return total
