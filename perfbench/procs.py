"""Every process a run starts ends, and is waited for, before it exits.

A run starts the program's worker processes, the fresh processes that
sample set-up time, and - whenever the program creates a shared-memory
segment - the ``multiprocessing`` resource tracker.  The tracker is
nobody's to join: left alone it outlives the run as an orphan.  So the
run makes itself the subreaper of its descendants (Linux), and
:func:`end_all` stops the tracker, then kills and reaps whatever is left.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
import time

#: ``prctl`` option that makes orphaned descendants this process's
#: children, so they can be reaped here.
PR_SET_CHILD_SUBREAPER = 36
#: How long descendants get to end by themselves before they are killed.
GRACE_S = 5.0


def adopt_orphans() -> None:
    """Reparent this process's orphaned descendants to it (Linux only;
    elsewhere a no-op)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER,
                                                1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def children() -> list[int]:
    """Pids of this process's live (or unreaped) children."""
    pids = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children") as f:
                pids.extend(int(pid) for pid in f.read().split())
        except (OSError, ValueError):
            pass
    return pids


def reap(deadline: float) -> bool:
    """Reap children until none is left or ``deadline`` passes; True
    when none is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)


def end_all() -> None:
    """Stop the program's workers and segments, then the resource
    tracker, then every other descendant; wait for each to end."""
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    shm = sys.modules.get("repro.runtime.shm")
    if shm is not None:
        # Unlinking after the tracker stopped would start a new one.
        shm.unlink_all()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    if not reap(time.monotonic() + GRACE_S):
        for pid in children():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        reap(float("inf"))
