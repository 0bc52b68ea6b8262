"""Outside-in span tracing for the benchmark's traced runs.

Wrappers installed from this file around the program's public functions
and methods record one span per call: name, start, end and the span that
was open when the call began (its parent).  Nothing in the program is
edited; :class:`Wrappers` swaps attributes and puts the originals back.

Two kinds of span keep the per-packet hooks cheap:

* *kept* spans (the default) are stored whole and written out when the
  benchmark ends; their self time is computed afterwards by
  :func:`self_times`;
* *hot* spans (per-packet hooks such as ``trace.observe``) are folded
  into running totals as they close, and their time is charged to the
  enclosing frame, so a run of ~10^6 calls costs no memory.

A layer's self time is its span's duration minus the part of that
interval its direct children cover.  Children in the same process run
one after another; children in forked worker processes may overlap each
other and may outlive the parent, so :func:`self_times` subtracts the
*union* of the children's intervals, clipped to the parent's.

Forked workers inherit the wrappers and the open-span stack.  A worker
appends its spans (and its hot totals) to a spill file whenever its own
outermost span closes, because workers leave through ``os._exit`` and
run no exit hooks; :meth:`Tracer.collect_spills` folds those files back
in.  ``time.perf_counter`` reads the system-wide monotonic clock on
Linux, so worker and coordinator timestamps share one time base.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter
_ABSENT = object()


@dataclass
class Span:
    """One closed call into a layer."""

    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 = no enclosing span
    pid: int
    n: int = 0  # work count the call reported (events dispatched), if any
    hot_child_s: float = 0.0  # time of hot children, already folded

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Total:
    """Aggregate of every span of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    n: int = 0

    def add(self, calls: int, total_s: float, self_s: float, n: int) -> None:
        self.calls += calls
        self.total_s += total_s
        self.self_s += self_s
        self.n += n


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus what its children cover.

    Kept children are subtracted as the union of their intervals within
    the parent's; hot children were already summed into ``hot_child_s``
    (they ran in-process, one after another, so they never overlap).
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - covered_length(children.get(span.id, ()), span.start, span.end)
        - span.hot_child_s
        for span in spans
    }


def totals_by_name(spans: Iterable[Span], hot: Dict[str, Total]) -> Dict[str, Total]:
    """Per-name totals over kept spans plus the folded hot totals."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, Total] = {}
    for span in spans:
        out.setdefault(span.name, Total()).add(1, span.duration, own[span.id], span.n)
    for name, total in hot.items():
        out.setdefault(name, Total()).add(total.calls, total.total_s, total.self_s, total.n)
    return out


class Tracer:
    """Keeps spans in memory; forked workers spill theirs to ``spill_dir``."""

    def __init__(self, spill_dir: Optional[str] = None):
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.spans: List[Span] = []
        self.hot: Dict[str, Total] = {}
        # Open frames: [span id, pid, all-children seconds, hot-children seconds]
        self._stack: List[list] = []
        self._counter = 0
        self._pid_seen = self.pid

    def call(self, name: str, hot: bool, count, fn, args, kwargs):
        """Run ``fn`` inside a span called ``name``."""
        pid = os.getpid()
        if pid != self._pid_seen:
            self._adopt(pid)
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        self._counter += 1
        frame = [(pid << 32) | self._counter, pid, 0.0, 0.0]
        stack.append(frame)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(name, hot, frame, parent, start, 0)
            raise
        self._close(name, hot, frame, parent, start, count(result) if count else 0)
        return result

    def _close(self, name: str, hot: bool, frame: list, parent: int, start: float, n) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
            if hot:
                stack[-1][3] += duration
        if hot:
            total = self.hot.get(name)
            if total is None:
                total = self.hot[name] = Total()
            total.add(1, duration, duration - frame[2], int(n))
        else:
            self.spans.append(
                Span(frame[0], name, start, end, parent, frame[1], int(n), frame[3])
            )
        pid = frame[1]
        if pid != self.pid and not any(f[1] == pid for f in stack):
            self._spill(pid)

    def _adopt(self, pid: int) -> None:
        """First call in a freshly forked worker: drop the parent's copies."""
        self._pid_seen = pid
        if pid != self.pid:
            self.spans = []
            self.hot = {}

    def timed_iter(self, name: str, iterator):
        """Yield from ``iterator``, one kept span per item pulled."""
        iterator = iter(iterator)
        sentinel = object()
        while True:
            item = self.call(name, False, None, next, (iterator, sentinel), {})
            if item is sentinel:
                return
            yield item

    # -- forked workers ------------------------------------------------

    def _spill(self, pid: int) -> None:
        """Append this worker's spans and hot totals to its spill file."""
        if self.spill_dir is None:
            self.spans.clear()
            self.hot.clear()
            return
        record = {
            "spans": [asdict(span) for span in self.spans],
            "hot": {name: asdict(total) for name, total in self.hot.items()},
        }
        path = os.path.join(self.spill_dir, f"spans-{pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans.clear()
        self.hot.clear()

    def collect_spills(self) -> None:
        """Fold every worker spill file into this tracer, then delete it."""
        if self.spill_dir is None or not os.path.isdir(self.spill_dir):
            return
        for entry in sorted(os.listdir(self.spill_dir)):
            if not entry.startswith("spans-"):
                continue
            path = os.path.join(self.spill_dir, entry)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    self.spans.extend(Span(**span) for span in record["spans"])
                    for name, total in record["hot"].items():
                        self.hot.setdefault(name, Total()).add(
                            total["calls"], total["total_s"], total["self_s"], total["n"]
                        )
            os.remove(path)

    # -- results -------------------------------------------------------

    def totals(self) -> Dict[str, Total]:
        return totals_by_name(self.spans, self.hot)

    def reset(self) -> None:
        self.spans = []
        self.hot = {}

    def write(self, path: str, header: Dict[str, object]) -> None:
        """Write the header, the per-name totals and every kept span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for name, total in sorted(self.totals().items()):
                handle.write(json.dumps({"total": name, **asdict(total)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


# -- installing wrappers -------------------------------------------------


@dataclass(frozen=True)
class Hook:
    """Where to wrap and what to call the span.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``name`` is the span name, or a callable of the call's arguments
    returning it (per-family names).  ``count`` maps the return value to
    a work count.  ``iterator`` wraps a generator function so that each
    item pulled is one span.
    """

    target: str
    name: object
    hot: bool = False
    count: Optional[Callable[[object], int]] = None
    iterator: bool = False


class Wrappers:
    """Install hooks on the program's classes and modules; restore them.

    A module-level function is replaced in its defining module *and* in
    every loaded ``repro`` module that imported it by name, so callers
    that bound it with ``from ... import`` see the wrapper too.  Import
    the program's modules before :meth:`install`.
    """

    def __init__(self, tracer: Tracer, package: str = "repro"):
        self.tracer = tracer
        self.package = package
        self._saved: List[Tuple[object, str, object]] = []

    def install(self, hooks: Iterable[Hook]) -> None:
        for hook in hooks:
            module_name, _, qualname = hook.target.partition(":")
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            wrapper = self._make(hook, original)
            if path:
                self._swap(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", None) or ""
                ours = mod_name == module_name or mod_name == self.package or (
                    mod_name.startswith(self.package + ".")
                )
                if ours and getattr(module, attr, None) is original:
                    self._swap(module, attr, wrapper)

    def _swap(self, owner: object, attr: str, value: object) -> None:
        own = getattr(owner, "__dict__", {})
        self._saved.append((owner, attr, own.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, newest swap first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _ABSENT:
                delattr(owner, attr)  # it was inherited; uncover the base's
            else:
                setattr(owner, attr, original)

    def _make(self, hook: Hook, original):
        tracer = self.tracer
        name = hook.name
        hot = hook.hot
        count = hook.count
        if hook.iterator:

            @functools.wraps(original)
            def iter_wrapper(*args, **kwargs):
                return tracer.timed_iter(name, original(*args, **kwargs))

            return iter_wrapper
        if callable(name):
            namer = name

            @functools.wraps(original)
            def named_wrapper(*args, **kwargs):
                return tracer.call(namer(args), hot, count, original, args, kwargs)

            return named_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, hot, count, original, args, kwargs)

        return wrapper

    def __enter__(self) -> "Wrappers":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
