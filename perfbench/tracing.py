"""In-memory spans and counters recorded around calls into wsumdist.

Wrappers are installed from outside the package: each one replaces a name
in the namespace of the module that makes the call (``harness.mb_pmf``,
``weighted.power``), because that module bound the name when it imported
it.  A name that no longer exists is skipped and reported as absent, so
the benchmark keeps running after a later change removes a private helper.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans (name, start, end, parent, run id) and counters per run and per op.

    The op of a count is the outermost span open when it is made.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op_counts: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(float))
        )
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[self.run_id][name] += value
        if self._stack:
            op = self.spans[self._stack[0]][0]
            self.op_counts[self.run_id][op][name] += value

    def run_totals(self, run_id: int) -> tuple[dict, dict, dict]:
        """Inclusive seconds, self seconds and counters of one run, by name.

        Self time is a span's duration minus the union of the intervals its
        direct children cover.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent is not None:
                children[parent].append((start, end))
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            inclusive[name] += end - start
            own[name] += (end - start) - _union_length(children.get(index, []))
        return inclusive, own, dict(self.counts.get(run_id, {}))

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r in self.spans
            ],
            "counts": {str(r): dict(c) for r, c in self.counts.items()},
            "op_counts": {
                str(r): {op: dict(c) for op, c in ops.items()} for r, ops in self.op_counts.items()
            },
        }


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Patches:
    """Installed wrappers; ``restore`` puts every original back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, span_name: str, counter=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records ``span_name``.

        ``counter(tracer, args, result)`` may add counts after each call.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
