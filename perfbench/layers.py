"""Per-layer metrics of a traced run, derived from spans and counters.

Layers are the repository's modules: compile (``core.passes``,
``runtime.program``, ``runtime.codegen_backend``, ``runtime.batching``),
admission (``api.compiled``), the scheduler (``api.service``), the
execution funnel (``runtime.session``, ``runtime.batching``,
``memory.pool``), kernels (``runtime.kernels`` by ``runtime.traffic``
family), the parallel backend (``runtime.parallel_backend``,
``runtime.shm``) and the benchmark's own load generator.
"""

from __future__ import annotations

from repro.runtime.batching import bucket
from repro.runtime.traffic import FAMILIES

from . import stats
from .tracing import ATTRS, END, NAME, START

#: The canonical pass pipeline, as ``OptimizeResult.pass_timings`` names it.
PASSES = ("lte", "dce", "index-simplify", "fusion", "layout-select",
          "tuning", "lower")


def _dur(span) -> float:
    return span[END] - span[START]


def _p(values, pct: float, scale: float = 1.0) -> float:
    values = list(values)
    return stats.percentile(values, pct) * scale if values else 0.0


def per_layer(run) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``run`` carries ``spans``, the traced window ``t0``/``t1``,
    ``import_s``, ``emissions``, the workload, its ``phases`` (the
    traced measurement's), service counter deltas ``counters``,
    ``kernels`` (the op_list walk), ``parallel_restarts``,
    ``leaked_segments`` and ``overhead_share``.
    """
    by_name: dict[str, list] = {}
    window: dict[str, list] = {}
    for span in run.spans:
        by_name.setdefault(span[NAME], []).append(span)
        if span[START] >= run.t0 and span[END] <= run.t1:
            window.setdefault(span[NAME], []).append(span)
    m: dict[str, float] = {}

    # compile
    m["compile.import_s"] = run.import_s
    optimize = by_name.get("optimize", [])
    m["compile.optimize_ms"] = sum(map(_dur, optimize)) * 1e3
    for name in PASSES:
        m[f"compile.pass.{name}_ms"] = sum(
            s[ATTRS]["passes"].get(name, 0.0) for s in optimize) * 1e3
    m["compile.codegen_ms"] = sum(
        map(_dur, by_name.get("compile_program", []))) * 1e3
    m["compile.emissions"] = run.emissions
    first_builds: dict = {}
    for name in ("rebatch", "symbolize"):
        for span in by_name.get(name, []):
            key = (name, span[ATTRS]["program"], span[ATTRS]["factor"])
            first_builds.setdefault(key, span)
    m["compile.variant_ms"] = sum(map(_dur, first_builds.values())) * 1e3
    m["compile.variants"] = len(first_builds)
    m["service.start_ms"] = run.workload.start_ms

    # admission and scheduler
    m["admission.admit_us"] = _p(map(_dur, window.get("admit", [])), 50, 1e6)
    m["service.submit_us"] = _p(map(_dur, window.get("submit", [])), 50, 1e6)
    phases = run.phases
    measured = phases["nominal"] + phases["probes"]
    queued = [q for p in measured for q in p.queued_ms]
    m["service.queued_ms_p50"] = _p(queued, 50)
    m["service.queued_ms_p99"] = _p(queued, 99)
    c = run.counters
    batches = c["batches"]
    m["service.batch_size_mean"] = c["requests"] / batches if batches else 0.0
    m["service.stacked_share"] = \
        c["stacked_batches"] / batches if batches else 0.0
    m["service.exec_busy_share"] = c["total_exec_s"] / (run.t1 - run.t0)
    m["service.queue_depth_peak"] = c["queue_depth_peak"]
    overheads = [
        (done - start) * 1e3 - queued_ms - _dur(span) * 1e3
        for p in measured for _rid, start, done, span, queued_ms in p.records
        if span is not None and span[START] >= start
    ] if run.workload.services else []
    m["service.overhead_ms"] = _p(overheads, 50)
    for name in ("failed", "expired", "retries", "isolated", "fallbacks",
                 "worker_restarts"):
        m[f"service.{name}"] = c[name]

    # execution funnel and stacking
    execs = window.get("execute_values", [])
    m["session.exec_ms_p50"] = _p(map(_dur, execs), 50, 1e3)
    m["session.exec_ms_p99"] = _p(map(_dur, execs), 99, 1e3)
    m["session.rows_per_invocation"] = stats.mean(
        s[ATTRS]["rows"] for s in execs)
    m["session.exec_us_per_row"] = _p(
        (_dur(s) / s[ATTRS]["rows"] for s in execs), 50, 1e6)
    padded = served = 0
    for span in execs:
        attrs = span[ATTRS]
        stacked = sum(e == attrs["base_extent"] for e in attrs["extents"])
        if attrs["batched"] and stacked > 1:
            padded += bucket(stacked) - stacked
            served += bucket(stacked)
    m["batching.pad_share"] = padded / served if served else 0.0
    m["batching.extents_per_invocation"] = stats.mean(
        len(set(s[ATTRS]["extents"])) for s in execs)
    checker = run.workload.checker
    m["pool.steady_allocations"] = checker.allocations

    # kernels
    for fam in FAMILIES:
        m[f"kernels.{fam}_ms"] = run.kernels["ms"][fam]
        m[f"kernels.{fam}_mb"] = run.kernels["mb"][fam]
    m["backend.fused_steps"] = \
        checker.fused_steps / checker.responses if checker.responses else 0.0

    # parallel
    tries = window.get("try_sharded", [])
    sharded = [s for s in tries if s[ATTRS]["sharded"]]
    m["parallel.sharded_share"] = len(sharded) / len(execs) if execs else 0.0
    m["parallel.sharded_ms"] = _p(map(_dur, sharded), 50, 1e3)
    m["parallel.dispatch_overhead_ms"] = _p(
        (_dur(s) - s[ATTRS]["worker_s"]
         / min(s[ATTRS]["workers"], s[ATTRS]["rows"]) for s in sharded),
        50, 1e3)
    m["parallel.worker_restarts"] = run.parallel_restarts
    m["parallel.leaked_segments"] = run.leaked_segments

    # load generator
    lateness = [x for p in measured for x in p.lateness_ms]
    m["loadgen.lag_p99_ms"] = _p(lateness, 99)
    groups = {"warmup": [phases["warmup"]], "nominal": phases["nominal"],
              "probes": phases["probes"]}
    for phase_name, group in groups.items():
        for count in ("sent", "completed", "failed"):
            m[f"loadgen.{phase_name}.{count}"] = sum(
                p.counts()[count] for p in group)
    m["trace.overhead_share"] = run.overhead_share
    return m
