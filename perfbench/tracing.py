"""Spans around calls into the program, recorded from outside it.

A :class:`Tracer` replaces a function or method at the name its caller looks
it up under (a module attribute or a class attribute) with a wrapper that
records a span: name, start, end, and the index of the span that was open
when the call began.  Spans stay in memory until the benchmark reads them;
:meth:`Tracer.restore` puts every original object back.  Nothing inside the
program changes.

A span's layer is the part of its name before the first dot, which is the
module that defines the function; a span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    note: float = 0.0
    args: tuple | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self, owner, attr: str, name: str, note=None, keep_args: bool = False) -> None:
        """Wrap ``owner.attr``; ``note(args, kwargs, result)`` gives the span's number."""
        original = owner.__dict__[attr]
        spans, open_spans = self.spans, self._open

        def wrapper(*args, **kwargs):
            span = Span(name, open_spans[-1] if open_spans else -1)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            if keep_args:
                span.args = args
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped object, most recent first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def root(self, name: str):
        """Context manager that records a span around a block."""
        return _Root(self, name)


class _Root:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.span = Span(name, tracer._open[-1] if tracer._open else -1)

    def __enter__(self) -> Span:
        self.tracer._open.append(len(self.tracer.spans))
        self.tracer.spans.append(self.span)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = perf_counter()
        self.tracer._open.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def contexts(spans: list[Span], names) -> list[str | None]:
    """For each span, the name of its nearest enclosing span (itself included)
    whose name is in ``names``, or None.  Parents precede their children in
    ``spans``, so one forward pass suffices."""
    out: list[str | None] = []
    for s in spans:
        if s.name in names:
            out.append(s.name)
        else:
            out.append(out[s.parent] if s.parent >= 0 else None)
    return out
