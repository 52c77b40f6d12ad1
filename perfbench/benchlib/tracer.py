"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the program at the name their
callers look up -- a module global such as
``repro.core.deterministic.max_cycle_ratio`` or a class attribute such as
``repro.markov.ctmc.CTMC.stationary_distribution`` -- and records one span
per call: name, start, end, parent span, unit id and thread. Spans stay
in memory until the run ends. Self time, the time no layer accounts for
and the nesting check are computed from the spans afterwards, so the
arithmetic can be tested on a patched clock.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    """One wrapped name.

    ``target`` is ``"package.module:Attr.path"``. ``layer`` names the
    spans and prefixes the counters. ``count`` maps a call's
    ``(args, kwargs, result)`` to extra counter increments: the work
    that call did.
    """

    layer: str
    target: str
    count: Callable[[tuple, dict, object], dict[str, float]] | None = None


class Span:
    """One traced call; ``end`` stays None while the call runs."""

    __slots__ = ("name", "start", "end", "parent", "unit", "thread")

    def __init__(self, name, start, parent, unit, thread) -> None:
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.unit = unit
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(target: str) -> tuple[object, str]:
    """The ``(owner, attribute)`` a hook target designates.

    Modules are reached through :func:`importlib.import_module` because
    a package attribute can shadow the subpackage of the same name
    (``repro.evaluate`` is both a function and a package). Raises
    ImportError or AttributeError when the name no longer exists.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"{target} does not exist")
    return owner, attr


class Tracer:
    """Spans and counters recorded around the wrapped names."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        #: Id of the unit being executed, stamped on the spans it opens.
        self.unit: object = None
        #: Hook targets that no longer exist in the program.
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, unit: object = None) -> Span:
        """Open a span under the calling thread's innermost open span."""
        stack = self._stack()
        span = Span(
            name,
            self.clock(),
            stack[-1] if stack else None,
            self.unit if unit is None else unit,
            threading.get_ident(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        """``fn`` inside a span named after the hook's layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(hook.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
                self.add(hook.layer + ".calls")
            if hook.count is not None:
                for key, amount in hook.count(args, kwargs, result).items():
                    self.add(key, amount)
            return result

        return traced

    def install(self, hooks: Sequence[Hook]) -> None:
        """Wrap every hook target; list the ones that no longer exist.

        A renamed function then shows up as a gap in the trace instead
        of a crash of the benchmark.
        """
        self.missing = []
        for hook in hooks:
            try:
                owner, attr = resolve(hook.target)
            except (ImportError, AttributeError):
                self.missing.append(hook.target)
                continue
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(hook, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped name back, the last wrapped first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    position = {id(span): i for i, span in enumerate(spans)}
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[position[id(span.parent)]] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def layer_busy(spans: Sequence[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    busy: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        busy[span.name] = busy.get(span.name, 0.0) + own
    return busy


def top_level_s(spans: Sequence[Span]) -> float:
    return sum(span.duration for span in spans if span.parent is None)


def unattributed_s(wall_s: float, spans: Sequence[Span]) -> float:
    """Wall time that no top-level span covers."""
    return wall_s - top_level_s(spans)


def nesting_violations(spans: Sequence[Span]) -> list[str]:
    """Spans left open or not covered by their parent (empty: they nest)."""
    bad = []
    for span in spans:
        if span.end is None:
            bad.append(f"{span.name} never ended")
            continue
        parent = span.parent
        if parent is None:
            continue
        if (
            parent.end is None
            or parent.thread != span.thread
            or not parent.start <= span.start <= span.end <= parent.end
        ):
            bad.append(
                f"{span.name} [{span.start}, {span.end}] is not covered by "
                f"its parent {parent.name} [{parent.start}, {parent.end}]"
            )
    return bad


def span_rows(spans: Sequence[Span]) -> list[list]:
    """JSON rows ``[name, start, end, parent row or None, unit, thread]``."""
    position = {id(span): i for i, span in enumerate(spans)}
    return [
        [
            span.name,
            span.start,
            span.end,
            None if span.parent is None else position[id(span.parent)],
            span.unit,
            span.thread,
        ]
        for span in spans
    ]
