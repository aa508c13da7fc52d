"""Spans recorded from outside the program, around its public entry points.

A :class:`Tracer` wraps the functions named in :meth:`Tracer.install` at
run time: each call becomes a span ``[sid, name, start, end, parent,
rid, attrs]``, where ``parent`` is the span open on the same thread when
the call began and ``rid`` the request id where the entry point knows
it.  Spans stay in memory until the benchmark writes them out.  Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` restores every wrapped
attribute, so an untraced run pays nothing.

Calls made in another process (the parallel backends' forked workers
inherit the wrapped functions) pass straight through.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time

# Span fields, by index.
SID, NAME, START, END, PARENT, RID, ATTRS = range(7)


#: Spans kept per run, so memory stays bounded.  Past it the wrappers
#: pass calls straight through, and the workloads stop their traced
#: measurement (``Workload.windows``).
MAX_SPANS = 200_000


class Tracer:
    """The spans of one run, and the wrappers that record them."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid=None) -> list:
        stack = self._stack()
        parent = stack[-1][SID] if stack else None
        span = [next(self._ids), name, time.perf_counter(), 0.0, parent,
                rid, None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    @property
    def full(self) -> bool:
        return len(self.spans) >= MAX_SPANS

    def last_exec(self):
        """The ``execute_values`` span this thread finished last (the one
        whose results a done-callback on this thread is resolving)."""
        return getattr(self._local, "last_exec", None)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, rid=None, before=None,
             after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``rid(args)`` extracts the request id; ``before(args)`` returns
        the span's attributes, read before the call (which may consume
        its arguments); ``after(span, args, result)`` stamps more once
        the call returned.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid or tracer.full:
                return original(*args, **kwargs)
            attrs = before(args) if before is not None else None
            span = tracer.open(name, rid(args) if rid is not None else None)
            span[ATTRS] = attrs
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the serving stack's public entry points."""
        from repro.api.compiled import CompiledModel
        from repro.api.service import Service
        from repro.baselines import frameworks
        from repro.runtime import batching, codegen_backend
        from repro.runtime.parallel_backend import ParallelBackend
        from repro.runtime.session import Session

        def request_id(args):
            request = args[1]
            return getattr(request, "request_id", None)

        def before_exec(args):
            session, values_list = args[0], args[1]
            sym = session.symbolic
            first = session.program.input_names[0]
            extents = [int(v[first].shape[0]) for v in values_list]
            return {"rows": len(values_list), "extents": extents,
                    "base_extent": sym.base_extent if sym is not None
                    else extents[0]}

        def after_exec(span, args, result):
            span[ATTRS]["batched"] = bool(result[2])
            self._local.last_exec = span

        def before_sharded(args):
            return {"rows": len(args[2]), "workers": args[1].workers}

        def after_sharded(span, args, result):
            span[ATTRS]["sharded"] = result is not None
            if result is not None:
                span[ATTRS]["worker_s"] = sum(row[2] for row in result[0])

        def before_variant(args):
            return {"program": id(args[0]), "factor": int(args[1])}

        def after_optimize(span, args, result):
            span[ATTRS] = {"passes": dict(result.pass_timings)}

        self.wrap(CompiledModel, "admit", "admit", rid=request_id)
        self.wrap(Service, "submit", "submit", rid=request_id)
        self.wrap(Session, "execute_values", "execute_values",
                  before=before_exec, after=after_exec)
        self.wrap(ParallelBackend, "try_sharded", "try_sharded",
                  before=before_sharded, after=after_sharded)
        self.wrap(batching, "rebatch", "rebatch", before=before_variant)
        self.wrap(batching, "symbolize", "symbolize", before=before_variant)
        self.wrap(codegen_backend, "compile_program", "compile_program")
        # ``repro.compile`` reaches the pass pipeline through the
        # framework layer's binding of the function ``repro.optimize``
        # calls, so the wrapper sits there.
        self.wrap(frameworks, "smartmem_optimize", "optimize",
                  after=after_optimize)


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``
    (each clipped to the window first)."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    total = 0.0
    run_a = run_b = None
    for a, b in clipped:
        if run_b is None or a > run_b:
            if run_b is not None:
                total += run_b - run_a
            run_a, run_b = a, b
        elif b > run_b:
            run_b = b
    if run_b is not None:
        total += run_b - run_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part its children cover."""
    return (end - start) - covered(start, end, children)


def self_times(spans) -> dict[int, float]:
    """Self time of every span, from the parent links."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    return {span[SID]: self_time(span[START], span[END],
                                 children.get(span[SID], ()))
            for span in spans}


def self_time_by_name(spans) -> dict[str, dict]:
    """``{name: {count, total_ms, self_ms}}`` over a list of spans."""
    selfs = self_times(spans)
    summary: dict[str, dict] = {}
    for span in spans:
        entry = summary.setdefault(
            span[NAME], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += (span[END] - span[START]) * 1e3
        entry["self_ms"] += selfs[span[SID]] * 1e3
    return summary
