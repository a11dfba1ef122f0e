"""In-memory span recorder and the arithmetic over its spans.

A span is one timed call: name, start, end, parent span and run id.
Spans of one process nest strictly (the benchmark is single-threaded),
so a span's direct children never overlap each other and its self time
is its duration minus the sum of its direct children's durations.

The clock is injected, so the arithmetic is testable with a fake clock.
Nothing here reads the clock unless a span is opened.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the enclosing span, -1 at the top level
    end: float = float("nan")
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(
        self, run_id: str = "run", clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: List[Span] = []
        self.opened: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.opened[name] += 1
        self._stack.append(index)
        self.spans.append(Span(name, self.clock(), parent))
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while span {top} was open")

    def dump(self, path: str) -> None:
        """One JSON object per line: name, start, end, parent, run id."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "run": self.run_id, **s.attrs}
                    )
                    + "\n"
                )


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def outermost(spans: List[Span]) -> List[bool]:
    """True for spans with no ancestor of the same name.

    Totals and call counts use only these, so a recursive or re-entrant
    call (a composed variation model calling its components, a subclass
    method calling its base) is not counted twice.
    """
    flags = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        flags.append(p < 0)
    return flags


@dataclass
class NameTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def totals_by_name(spans: List[Span]) -> Dict[str, NameTotals]:
    """Outermost calls and time per span name, plus summed self time."""
    selfs = self_times(spans)
    top = outermost(spans)
    out: Dict[str, NameTotals] = defaultdict(NameTotals)
    for s, self_s, is_top in zip(spans, selfs, top):
        t = out[s.name]
        t.self_s += self_s
        if is_top:
            t.calls += 1
            t.total_s += s.duration
    return dict(out)


def subtree(spans: List[Span], index: int) -> List[Span]:
    """Span ``index`` and its descendants, re-rooted at index 0.

    Spans are appended in opening order, so the descendants are the run
    of spans right after ``index`` whose parent lies inside the subtree.
    """
    stop = index + 1
    while stop < len(spans) and spans[stop].parent >= index:
        stop += 1
    return [
        Span(s.name, s.start, s.parent - index if i else -1, s.end)
        for i, s in enumerate(spans[index:stop])
    ]


def self_share_within(spans: List[Span], index: int, name: str) -> float:
    """Self time of the spans called ``name`` in span ``index``'s subtree,
    as a share of span ``index``'s duration. With ``name`` equal to the
    span's own name this is the share not covered by any child span."""
    local = subtree(spans, index)
    duration = local[0].duration
    if duration <= 0:
        return 0.0
    selfs = self_times(local)
    return sum(t for s, t in zip(local, selfs) if s.name == name) / duration
