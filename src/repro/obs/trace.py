"""Hierarchical tracing: spans and the tracer.

A **span** is one timed region of the pipeline — a resolve stage, a crowd
round, a serve request — carrying wall and CPU durations, arbitrary
attributes, an ok/error status, and child spans.  A **tracer** hands out
spans through a context manager (or decorator), maintaining a per-thread
stack so nesting falls out of lexical structure:

    with tracer.span("resolve", dataset="restaurant"):
        with tracer.span("resolve.join"):
            ...

Two properties matter for the rest of the repo:

* **near-zero cost when disabled** — a disabled tracer returns one shared
  no-op context manager; the hot paths pay an attribute check and a call.
* **thread safety** — each thread has its own span stack (a root started
  on a worker thread becomes its own trace root, tagged with the thread
  name); finished roots land in one ordered list under a lock.  Work that
  interleaves on one thread (asyncio requests) cannot use the stack, so
  it times itself and hands the tracer a finished span
  (:meth:`Tracer.record`).

Transparency contract: spans never touch the objects they observe.  The
``check_observability_transparent`` battery step runs the pipeline with
tracing on and off and demands byte-identical results; the
``obs-perturbs-selection`` mutant proves that check has teeth.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable

from ..exceptions import ObservabilityError
from .clock import SYSTEM_CLOCK


class Span:
    """One timed, attributed, nestable region of work."""

    __slots__ = (
        "name", "attributes", "children", "status", "error",
        "start_wall", "start_cpu", "wall_seconds", "cpu_seconds", "thread",
    )

    def __init__(self, name: str, attributes: dict[str, Any] | None = None) -> None:
        self.name = name
        self.attributes = dict(attributes or {})
        self.children: list[Span] = []
        self.status = "ok"
        self.error: str | None = None
        self.start_wall = 0.0
        self.start_cpu = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.thread: str | None = None

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def to_dict(self) -> dict:
        """Nested JSON-ready form."""
        payload: dict[str, Any] = {
            "name": self.name,
            "wall_seconds": round(self.wall_seconds, 9),
            "cpu_seconds": round(self.cpu_seconds, 9),
            "status": self.status,
        }
        if self.error:
            payload["error"] = self.error
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.thread:
            payload["thread"] = self.thread
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload


class _NullSpanContext:
    """The shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None


NULL_SPAN = _NullSpanContext()


class _SpanContext:
    """Context manager that opens *span* on enter and seals it on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc_type is not None:
            self.span.status = "error"
            self.span.error = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(self.span)
        return None  # never swallow the exception


class Tracer:
    """Span factory with a per-thread stack and an ordered root list."""

    def __init__(self, enabled: bool = True, clock=None) -> None:
        self.enabled = enabled
        self.clock = clock or SYSTEM_CLOCK
        self._local = threading.local()
        self._roots: list[Span] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attributes: Any):
        """Open a span context; a no-op singleton when tracing is off."""
        if not self.enabled:
            return NULL_SPAN
        span = Span(name, attributes)
        return _SpanContext(self, span)

    def trace(self, name: str | None = None) -> Callable:
        """Decorator form: trace every call of the wrapped function."""

        def decorate(function: Callable) -> Callable:
            span_name = name or function.__qualname__

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                with self.span(span_name):
                    return function(*args, **kwargs)

            return wrapper

        return decorate

    def record(self, name: str, start: float, end: float, **attributes: Any) -> None:
        """Add a finished root span from the caller's two wall-clock reads.

        For work that interleaves on one thread (asyncio requests): it
        never touches a stack.  CPU seconds stay 0, since the thread's CPU
        time between the reads was shared with other work.
        """
        if not self.enabled:
            return
        span = Span(name, attributes)
        span.start_wall = start
        span.wall_seconds = end - start
        with self._lock:
            self._roots.append(span)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = self._stack()
        span.start_wall = self.clock.wall()
        span.start_cpu = self.clock.cpu()
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise ObservabilityError(
                f"span stack corrupted: closing {span.name!r} but the stack "
                f"top is {stack[-1].name if stack else None!r}"
            )
        stack.pop()
        span.wall_seconds = self.clock.wall() - span.start_wall
        span.cpu_seconds = self.clock.cpu() - span.start_cpu
        if stack:
            stack[-1].children.append(span)
        else:
            thread = threading.current_thread()
            if thread is not threading.main_thread():
                span.thread = thread.name
            with self._lock:
                self._roots.append(span)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def export(self) -> list[dict]:
        """Finished root spans as nested dicts, in finish order."""
        with self._lock:
            return [span.to_dict() for span in self._roots]

    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()


def walk(spans: list[dict], depth: int = 0):
    """Pre-order ``(depth, span_dict)`` iteration over exported spans."""
    for span in spans:
        yield depth, span
        yield from walk(span.get("children", []), depth + 1)


def structure(spans: list[dict]) -> list[tuple[int, str]]:
    """The timing-free shape of a trace: ``(depth, name)`` in pre-order.

    Two traces of the same run have equal structures whatever their
    clocks read, so tests compare these instead of timings.
    """
    return [(depth, span["name"]) for depth, span in walk(spans)]


__all__ = ["NULL_SPAN", "Span", "Tracer", "structure", "walk"]
