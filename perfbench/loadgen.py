"""Load generation: seeded schedules, one client thread, two loop shapes.

* :func:`burst` - closed loop: submit a burst, wait for every response,
  repeat.  Each request is timed from the start of its own ``submit``
  call to the moment its future resolved (stamped by a done-callback on
  the resolving thread, not when the client reads the result).
* :func:`open_loop` - Poisson arrivals on a schedule fixed in advance by
  the seed.  Each request is timed from its *due* time, so a stalled
  generator or service charges the wait to every later request, and the
  generator's own lateness is recorded.

Every loop fills a :class:`Phase` with sent/completed/failed counts
and per-request samples; responses are handed to a ``check`` callback
outside the timed region (between bursts, or in the generator's idle
time).
"""

from __future__ import annotations

import functools
import math
import random
import time
from array import array
from collections import deque
from dataclasses import dataclass, field

from repro.api.errors import DeadlineExceeded, QueueFull, ReproError

perf = time.perf_counter

#: Longest wait for one response before the service counts as hung and
#: the request as failed.
TIMEOUT_S = 60.0


def rng_for(*parts) -> random.Random:
    """A generator seeded by a string key (stable across processes and
    ``PYTHONHASHSEED``)."""
    return random.Random(":".join(str(p) for p in parts))


def poisson_offsets(rng: random.Random, rate: float,
                    duration: float) -> list[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process of
    ``rate`` per second over ``duration`` seconds."""
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def rate_grid(low: float, high: float, step: float) -> list[float]:
    """Geometric grid of offered rates from ``low`` to ``high``, each
    ``step`` (e.g. 0.04 = 4%) above the last."""
    count = int(math.floor(math.log(high / low) / math.log1p(step))) + 1
    return [round(low * (1.0 + step) ** k, 1) for k in range(count)]


@dataclass
class Phase:
    """What one phase of load sent and got back."""

    name: str
    sent: int = 0
    completed: int = 0
    failed: int = 0
    refused: int = 0
    expired: int = 0
    # Samples live in flat arrays, so the benchmark's own memory does
    # not grow with the request rate it measures (peak RSS is a metric).
    latencies_ms: array = field(default_factory=lambda: array("d"))
    lateness_ms: array = field(default_factory=lambda: array("d"))
    queued_ms: array = field(default_factory=lambda: array("d"))
    wall_s: float = 0.0
    drain_s: float = 0.0
    records: list = field(default_factory=list)
    """Per-request ``(rid, start, done, exec_span, queued_ms)`` for the
    trace."""

    @property
    def lost(self) -> int:
        return self.failed + self.refused + self.expired

    def counts(self) -> dict:
        return {"sent": self.sent, "completed": self.completed,
                "failed": self.lost}


def _stamp(done: list, links: list | None, tracer, index: int,
           _future) -> None:
    done[index] = perf()
    if links is not None:
        links[index] = tracer.last_exec()


def _settle(phase: Phase, future, key, check):
    """Count one resolved future; its response, or None on failure."""
    try:
        response = future.result()
    except DeadlineExceeded:
        phase.expired += 1
    except ReproError:
        phase.failed += 1
    else:
        phase.completed += 1
        phase.queued_ms.append(response.queued_ms)
        check(key, response)
        return response
    return None


def _wait(future, timeout_s: float) -> bool:
    """Wait for ``future`` to resolve; False when it is still pending
    after ``timeout_s``."""
    try:
        future.exception(timeout_s)
    except TimeoutError:
        return False
    return True


def burst(service, requests, keys, check, phase: Phase,
          tracer=None) -> None:
    """One closed-loop burst: submit ``requests`` back to back, wait for
    all of them, then check the responses (untimed)."""
    n = len(requests)
    starts = [0.0] * n
    done = [0.0] * n
    links = [None] * n if tracer is not None and not tracer.full \
        else None
    futures = []
    first = perf()
    for i, request in enumerate(requests):
        starts[i] = perf()
        try:
            future = service.submit(request)
        except QueueFull:
            phase.refused += 1
            futures.append(None)
            continue
        future.add_done_callback(
            functools.partial(_stamp, done, links, tracer, i))
        futures.append(future)
    for i, future in enumerate(futures):
        if future is not None and not _wait(future, TIMEOUT_S):
            phase.failed += 1
            futures[i] = None
    last = max(done)
    phase.wall_s += last - first
    phase.sent += n
    for i, future in enumerate(futures):
        response = None if future is None \
            else _settle(phase, future, keys[i], check)
        if response is None:
            continue
        phase.latencies_ms.append((done[i] - starts[i]) * 1e3)
        if links is not None:
            phase.records.append((requests[i].request_id, starts[i],
                                  done[i], links[i], response.queued_ms))


def open_loop(service, offsets, make, check, phase: Phase,
              tracer=None) -> None:
    """Send request ``make(i)`` at ``offsets[i]`` seconds after the phase
    starts (``make`` returns ``(key, request)``), then wait for every
    response.  Responses are checked in the generator's idle time and
    released once checked."""
    n = len(offsets)
    done = [0.0] * n
    links = [None] * n if tracer is not None and not tracer.full \
        else None
    pending = deque()  # (index, rid, key, future), unchecked, send order
    served = []  # (index, rid, queued_ms)

    def settle(entry) -> None:
        index, rid, key, future = entry
        response = _settle(phase, future, key, check)
        if response is not None:
            served.append((index, rid, response.queued_ms))

    start = perf() + 0.002
    for i, offset in enumerate(offsets):
        due = start + offset
        while True:
            gap = due - perf()
            if gap <= 0:
                break
            if gap > 0.001 and pending and pending[0][3].done():
                settle(pending.popleft())
                continue
            time.sleep(gap)
        phase.lateness_ms.append((perf() - due) * 1e3)
        key, request = make(i)
        phase.sent += 1
        try:
            future = service.submit(request)
        except QueueFull:
            phase.refused += 1
            continue
        future.add_done_callback(
            functools.partial(_stamp, done, links, tracer, i))
        pending.append((i, request.request_id, key, future))
    deadline = time.monotonic() + TIMEOUT_S
    while pending:
        entry = pending.popleft()
        if _wait(entry[3], max(0.0, deadline - time.monotonic())):
            settle(entry)
        else:
            phase.failed += 1
            entry[3].cancel()
    last_due = start + (offsets[-1] if offsets else 0.0)
    last_done = max((done[index] for index, _, _ in served),
                    default=last_due)
    phase.wall_s = last_done - start
    phase.drain_s = max(0.0, last_done - last_due)
    for index, rid, queued_ms in served:
        due = start + offsets[index]
        phase.latencies_ms.append((done[index] - due) * 1e3)
        if links is not None:
            phase.records.append((rid, due, done[index], links[index],
                                  queued_ms))
