"""Span-based tracing on the simulated clock.

Every instrumented fetch produces a nested timeline -- middleware ->
retriever -> coalesced run -> PLFS chunk read -> device -- with tags for
``(logical, tag, chunk, tier, cache_hit, retries)``.  Timestamps are the
DES clock (:attr:`Simulator.now`), never wall time, so a trace of a
seeded run is fully deterministic: identical seeds serialize to
byte-identical JSON, and a latency anomaly in a trace is a *modeled*
anomaly, reproducible forever.

Context propagation rides the engine's active-process tracking: within
one DES process a ``yield from`` chain is a single generator stack, so a
per-process span stack gives correct nesting; a process spawned while a
span is open inherits that span as its parent (the adaptive prefetcher's
background read therefore nests under the demand fetch that triggered
it).  The tracer attaches to the simulator (``sim.tracer``) so deep
layers -- PLFS, the storage devices -- can open spans without any
constructor threading; with no tracer attached, :func:`span` is a no-op
null context, leaving untraced runs untouched.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from typing import Dict, List, Optional

__all__ = ["NULL_SPAN", "Span", "Tracer", "span", "render_trace"]


class Span:
    """One timed operation; nests under a parent, carries tags."""

    __slots__ = (
        "tracer", "span_id", "name", "tags", "start_s", "end_s",
        "parent", "children", "status",
    )

    def __init__(self, tracer: "Tracer", span_id: int, name: str,
                 start_s: float, parent: Optional["Span"], tags: Dict):
        self.tracer = tracer
        self.span_id = span_id
        self.name = name
        self.tags = dict(tags)
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.parent = parent
        self.children: List["Span"] = []
        self.status = "ok"

    def tag(self, **tags) -> "Span":
        self.tags.update(tags)
        return self

    def finish(self, status: str = "ok") -> None:
        if self.end_s is None:
            self.end_s = self.tracer.sim.now
            self.status = status

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s if self.end_s is not None else self.start_s,
            "status": self.status,
            "tags": {k: self.tags[k] for k in sorted(self.tags)},
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id}, tags={self.tags})"


class _SpanContext:
    """``with tracer.span(...)`` body: push on enter, pop+finish on exit."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", sp: Span):
        self.tracer = tracer
        self.span = sp

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer._pop(self.span)
        if exc_type is None:
            self.span.finish("ok")
        elif exc_type is GeneratorExit:
            self.span.finish("cancelled")
        else:
            self.span.tag(error=exc_type.__name__)
            self.span.finish("error")
        return False


class _NullContext:
    """The tracer-less stand-in: absorbs the same calls, records nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def tag(self, **tags):
        return self

    def finish(self, status: str = "ok") -> None:
        pass


#: The null span: a hot site opens it when ``sim.tracer`` is None instead
#: of calling :func:`span`, so an untraced run builds no tags and no call.
NULL_SPAN = _NullContext()


class Tracer:
    """Collects spans into per-root timelines on one simulator.

    Construction attaches to the simulator (``sim.tracer``).
    ``max_traces`` bounds retained root timelines (oldest dropped first)
    so long soaks cannot grow without bound.
    """

    def __init__(self, sim, max_traces: int = 1024):
        self.sim = sim
        self.max_traces = int(max_traces)
        self.roots: "deque[Span]" = deque(maxlen=self.max_traces)
        self._ids = itertools.count(1)
        self._global_stack: List[Span] = []
        self.spans_started = 0
        sim.tracer = self

    # -- context plumbing --------------------------------------------------

    def _stack(self) -> List[Span]:
        proc = self.sim.active_process
        if proc is None:
            return self._global_stack
        stack = proc._span_stack
        if stack is None:
            stack = proc._span_stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span in the active process (or globally)."""
        proc = self.sim.active_process
        if proc is None:
            stack = self._global_stack
            return stack[-1] if stack else None
        stack = proc._span_stack
        return stack[-1] if stack else proc._trace_ctx

    def span(self, name: str, **tags) -> _SpanContext:
        """Open a child of the current span (context manager).

        The span is recorded at entry; nesting follows the per-process
        stack, and a root (no parent anywhere) starts a new timeline.
        """
        parent = self.current()
        sp = Span(self, next(self._ids), name, self.sim.now, parent, tags)
        self.spans_started += 1
        if parent is not None:
            parent.children.append(sp)
        else:
            self.roots.append(sp)
        self._stack().append(sp)
        return _SpanContext(self, sp)

    def _pop(self, sp: Span) -> None:
        stack = self._stack()
        if sp in stack:
            # Normally the top; tolerate out-of-order unwinds (interrupts).
            stack.remove(sp)

    # -- query / export ----------------------------------------------------

    def find(self, name: Optional[str] = None, **tags) -> List[Span]:
        """Every span (any timeline) matching name and tag equality."""
        out = []
        for root in self.roots:
            for sp in root.walk():
                if name is not None and sp.name != name:
                    continue
                if any(sp.tags.get(k) != v for k, v in tags.items()):
                    continue
                out.append(sp)
        return out

    def traces(self, logical: Optional[str] = None,
               tag: Optional[str] = None) -> List[Span]:
        """Root timelines, optionally filtered by dataset/tag.

        A root matches when *any* span in its tree carries the requested
        ``logical`` / ``tag`` tags -- so a device-level filter still
        returns the enclosing fetch timeline.
        """
        out = []
        for root in self.roots:
            if logical is None and tag is None:
                out.append(root)
                continue
            for sp in root.walk():
                if logical is not None and sp.tags.get("logical") != logical:
                    continue
                if tag is not None and sp.tags.get("tag") != tag:
                    continue
                out.append(root)
                break
        return out

    def to_json(self, logical: Optional[str] = None,
                tag: Optional[str] = None) -> str:
        """Deterministic JSON of the (filtered) timelines."""
        payload = {
            "schema_version": 1,
            "traces": [r.to_dict() for r in self.traces(logical, tag)],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def clear(self) -> None:
        self.roots.clear()


def span(sim, name: str, **tags):
    """Open a span on ``sim``'s tracer, or a free null context without one.

    The instrumentation idiom for deep layers (devices, file systems)
    that must not require observability wiring::

        with span(self.sim, "device.read", device=self.name) as sp:
            ...
            sp.tag(nbytes=total)
    """
    tracer = getattr(sim, "tracer", None)
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **tags)


def _render_span(sp: Span, depth: int, lines: List[str]) -> None:
    tags = " ".join(f"{k}={sp.tags[k]}" for k in sorted(sp.tags))
    duration = (sp.end_s if sp.end_s is not None else sp.start_s) - sp.start_s
    status = "" if sp.status == "ok" else f" [{sp.status}]"
    lines.append(
        f"{sp.start_s * 1e3:12.6f} ms  {'  ' * depth}{sp.name}"
        f" ({duration * 1e3:.6f} ms){status}"
        + (f"  {tags}" if tags else "")
    )
    for child in sp.children:
        _render_span(child, depth + 1, lines)


def render_trace(roots: List[Span]) -> str:
    """Human-readable nested timeline (simulated milliseconds)."""
    lines: List[str] = []
    for root in roots:
        _render_span(root, 0, lines)
    return "\n".join(lines)
