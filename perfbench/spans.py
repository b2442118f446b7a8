"""Span recording for the traced benchmark run.

The benchmark measures the program from outside: for the traced run it
replaces a fixed list of public callables with wrappers that record one span
per call (name, start, end, parent span, request id, thread) and restores the
originals afterwards.  Nothing in the program changes; the untraced runs never
install a wrapper.

Parenting uses a :class:`contextvars.ContextVar`, so it follows the call
stack within a thread and, once :func:`propagate_context` is installed on the
event loop, across ``run_in_executor`` hops into the async engine's worker
pool.  Two overlapping children running on two worker threads therefore both
point at the coroutine span that fanned them out.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One timed call; ``attrs`` holds counts the wrapper read at exit."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    thread: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sid": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "thread": self.thread,
            "attrs": self.attrs,
        }


#: ``on_enter(args, kwargs) -> state`` runs before the call;
#: ``on_exit(span, state, args, kwargs, result)`` fills ``span.attrs``.
EnterHook = Callable[[tuple, dict], Any]
ExitHook = Callable[[Span, Any, tuple, dict, Any], None]


class SpanRecorder:
    """Keeps every finished span in memory until :meth:`write_jsonl`."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )

    # -- opening and closing -------------------------------------------------

    def _open(self, name: str) -> Tuple[Span, contextvars.Token]:
        parent = self._current.get()
        with self._lock:
            sid = next(self._ids)
        span = Span(
            sid=sid,
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.sid if parent is not None else None,
            request=self._request.get(),
            thread=threading.get_ident(),
        )
        return span, self._current.set(span)

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, request: Optional[int] = None) -> "_SpanScope":
        """Context manager for a span opened by the benchmark itself."""
        return _SpanScope(self, name, request)

    # -- wrapping ---------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_enter: Optional[EnterHook] = None,
        on_exit: Optional[ExitHook] = None,
    ) -> Callable:
        """A wrapper around ``fn`` recording one span per call.

        Coroutine functions get a coroutine wrapper whose span lasts until
        the awaited result arrives.  Hooks run inside the span, so their
        cost is charged to it (and shows up in the tracing overhead).
        """
        recorder = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                state = on_enter(args, kwargs) if on_enter else None
                span, token = recorder._open(name)
                try:
                    result = await fn(*args, **kwargs)
                    if on_exit:
                        on_exit(span, state, args, kwargs, result)
                    return result
                except BaseException as exc:
                    span.attrs["raised"] = type(exc).__name__
                    raise
                finally:
                    recorder._close(span, token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = on_enter(args, kwargs) if on_enter else None
            span, token = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
                if on_exit:
                    on_exit(span, state, args, kwargs, result)
                return result
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                recorder._close(span, token)

        return wrapper

    # -- output -----------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """Write every span, one JSON object per line, ordered by start."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: (s.start, s.sid)):
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


class _SpanScope:
    def __init__(self, recorder: SpanRecorder, name: str, request: Optional[int]):
        self._recorder = recorder
        self._name = name
        self._request = request

    def __enter__(self) -> Span:
        self._request_token = (
            self._recorder._request.set(self._request)
            if self._request is not None
            else None
        )
        self._span, self._token = self._recorder._open(self._name)
        return self._span

    def __exit__(self, *exc) -> bool:
        self._recorder._close(self._span, self._token)
        if self._request_token is not None:
            self._recorder._request.reset(self._request_token)
        return False


class Patcher:
    """Replaces attributes and puts the originals back on :meth:`restore`.

    ``owner`` is a class, a module or an instance; the attribute is looked
    up in the owner's own namespace, so an inherited method must be patched
    on the class that defines it.
    """

    def __init__(self):
        self._saved: List[Tuple[Any, str, bool, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        namespace = vars(owner)
        self._saved.append((owner, attr, attr in namespace, namespace.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, existed, original = self._saved.pop()
            if existed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def propagate_context(loop, patcher: Patcher) -> None:
    """Make ``loop.run_in_executor`` run its callable in a copy of the caller's
    context, as :func:`asyncio.to_thread` does, so spans opened in worker
    threads find their parent and request id."""
    original = loop.run_in_executor  # the bound method, before patching

    def run_in_executor(executor, func, *args):
        return original(executor, contextvars.copy_context().run, func, *args)

    patcher.replace(loop, "run_in_executor", run_in_executor)


# -- self time ------------------------------------------------------------------------


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    """Parent sid -> child spans."""
    kids: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        kids.setdefault(span.parent, []).append(span)
    return kids


def self_times(spans: List[Span]) -> Dict[int, float]:
    """sid -> the span's duration minus the part its children cover.

    Children may overlap each other (a concurrent fan-out) and may run on
    other threads; only the union of their intervals, clipped to the
    parent's, is subtracted, so self time is never negative.
    """
    kids = children_of(spans)
    out: Dict[int, float] = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in kids.get(span.sid, ())
        ]
        out[span.sid] = span.duration - covered_length(clipped)
    return out
