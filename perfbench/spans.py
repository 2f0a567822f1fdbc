"""In-memory span recorder, call-site wrapping and self-time arithmetic.

A span is one call into a layer's public function: its name, start and end
(``perf_counter`` seconds), the span that was open when it started, the pass
it belongs to ("run id") and a few counts read from the call's arguments or
result.  Spans stay in memory until the traced process ends.

Only the process that created the `Recorder` records: a forked pool worker
inherits the wrappers but calls straight through, because spans recorded in
a worker's memory would never reach the parent.
"""

import functools
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans = []
        self.run = "untraced"
        self._stack = []
        self._pid = os.getpid()

    def wrap(self, name, fn, counter=None):
        """Return `fn` wrapped so each call records a span named `name`.

        `counter(args, kwargs, result)` may return a dict of counts stored on
        the span; a call that raises records ``{"raised": 1}`` instead.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.run)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.counts = {"raised": 1}
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced


def patch_everywhere(modules, owner, attr, wrapper):
    """Rebind `owner.attr` to `wrapper` in `owner` and every module that imported it.

    Modules bind imported functions by name (``from .numeric import
    constant_value``), so patching only the defining module would miss those
    call sites.
    """
    original = getattr(owner, attr)
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def gaps(interval, children):
    """The sub-intervals of `interval` that no child covers, in time order."""
    lo, hi = interval
    out, cursor = [], lo
    for a, b in sorted(children):
        if a >= hi:
            break
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < hi:
        out.append((cursor, hi))
    return out


def covered(interval, children):
    """Length of the part of `interval` that the union of `children` covers."""
    return interval[1] - interval[0] - sum(b - a for a, b in gaps(interval, children))


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered((s.start, s.end), kids) for s, kids in zip(spans, children)]
