"""The workloads: what each serves, how it is loaded, its reference.

Every workload draws its inputs from a pool of distinct
``make_request(seed=...)`` requests whose seeds, like the order the pool
is visited in, come from the ``--seed`` argument.  Every response is
checked byte-for-byte: against the first response seen for the same
pool entry while load runs, and that first response against a reference
computed after the timed phase by a solo, concrete-shape compile on the
``numpy`` backend at the same extent - never by the path under test.
"""

from __future__ import annotations

import itertools
import resource
import time

import numpy as np

import repro
from repro.api import InferenceRequest
from repro.models import build_smoke
from repro.runtime.executor import make_inputs
from repro.runtime.traffic import FAMILIES, family

from . import loadgen, stats
from .loadgen import Phase

perf = time.perf_counter

#: Measured phases are cut into windows of about this many seconds;
#: the end-to-end figures are medians over windows, so a disturbed
#: window cannot move them.
WINDOW_S = 1.0
#: Windows of the open loop's nominal phase are longer, so each holds
#: enough arrivals at the nominal rate for its own p99.
OPEN_WINDOW_S = 4.0
#: Pool entries the traced run's ``op_list`` walk covers, and how often
#: it walks each.
KERNEL_WALK_REQUESTS = 48
KERNEL_WALK_REPEATS = 3


def own_peak_rss_mb() -> float:
    """Peak RSS of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(outputs) -> tuple:
    """Everything byte-parity covers: names, dtypes, shapes, bytes."""
    return tuple((name, a.dtype.str, a.shape, a.tobytes())
                 for name, a in sorted(outputs.items()))


class Checker:
    """Byte-for-byte response check, settled against a later reference.

    Also tallies the per-response accounting the trace reports: pool
    allocations (a stacked pass shares one report across its
    batchmates, so each report counts once) and fused steps.
    """

    def __init__(self) -> None:
        self.first: dict = {}
        self.seen: dict = {}
        self.drifted: dict = {}
        self.mismatched = 0
        self.reset_tallies()

    def reset_tallies(self) -> None:
        self.responses = 0
        self.allocations = 0
        self.fused_steps = 0
        self._last_report = None

    def __call__(self, key, response) -> None:
        blob = fingerprint(response.outputs)
        self.seen[key] = self.seen.get(key, 0) + 1
        first = self.first.setdefault(key, blob)
        if first is not blob and first != blob:
            self.drifted[key] = self.drifted.get(key, 0) + 1
        stats_ = response.stats
        self.responses += 1
        self.fused_steps += stats_.fused_steps
        if stats_.pool is not self._last_report:
            self._last_report = stats_.pool
            self.allocations += stats_.pool.allocations

    def settle(self, expected) -> int:
        """Compare every first-seen response with ``expected(key)``;
        returns the number of mismatched responses."""
        mismatched = sum(self.drifted.values())
        for key, blob in self.first.items():
            if fingerprint(expected(key)) != blob:
                # Every response equal to the wrong first one is wrong.
                mismatched += self.seen[key] - self.drifted.get(key, 0)
        self.mismatched = mismatched
        return mismatched


class Workload:
    """Shared plumbing: the request pool, references, request ids."""

    name = ""
    models: tuple[str, ...] = ()
    pool_size = 128

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.checker = Checker()
        self.pool: list = []  # (key, inputs); key = (model, extent, index)
        self.start_ms = 0.0
        self._ids = itertools.count()
        self._order = loadgen.rng_for(self.name, seed, "order")
        self._references: dict = {}
        self._weights: dict = {}
        self.graphs: dict = {}  # model -> the served (optimized) graph
        self.services: list = []

    # -- inputs ------------------------------------------------------------

    def pool_seeds(self, count: int) -> list[int]:
        rng = loadgen.rng_for(self.name, self.seed, "pool")
        return rng.sample(range(1, 1_000_000), count)

    def request(self, inputs) -> InferenceRequest:
        return InferenceRequest(inputs=inputs, request_id=next(self._ids))

    def pick(self) -> tuple:
        return self.pool[self._order.randrange(len(self.pool))]

    # -- references --------------------------------------------------------

    def reference_model(self, model: str, extent: int):
        found = self._references.get((model, extent))
        if found is None:
            found = self._references[(model, extent)] = repro.compile(
                build_smoke(model, batch=extent))
        return found

    def weights(self, model: str) -> dict:
        """The served model's parameters, materialized afresh.

        Parameters are drawn per graph, so a graph built at another
        extent draws different ones; the reference is fed the served
        graph's, as a deployed model at any extent would be.
        """
        found = self._weights.get(model)
        if found is None:
            graph = self.graphs[model]
            found = self._weights[model] = {
                name: value for name, value in make_inputs(graph).items()
                if name not in graph.inputs}
        return found

    def expected(self, key):
        model, extent, index = key
        values = dict(self.weights(model))
        values.update(self.pool[index][1])
        return self.reference_model(model, extent).session.run(values)

    def verify(self) -> int:
        return self.checker.settle(self.expected)

    # -- kernels (traced run) ----------------------------------------------

    def kernel_walk(self) -> dict:
        """Per-family step time and traffic per request of the mix.

        Walks ``program.op_list`` of each pool entry's reference
        program - the numpy closures, one per lowered step - so fused
        chains the codegen backend serves are timed step by step and not
        credited with their fusion.  Traffic comes from the program's
        static roofline (bytes read plus written per family).
        """
        walked = self.pool[:KERNEL_WALK_REQUESTS]
        ms = dict.fromkeys(FAMILIES, 0.0)
        mb = dict.fromkeys(FAMILIES, 0.0)
        for key, inputs in walked:
            model = self.reference_model(key[0], key[1])
            program = model.program
            families = [family(step.op_type) for step in program.steps]
            for name, entry in program.roofline().items():
                mb[name] += (entry["bytes_read"]
                             + entry["bytes_written"]) / 1e6
            request = InferenceRequest(inputs=inputs)
            for _ in range(KERNEL_WALK_REPEATS):
                values = model.admit(request)
                for index, (execute, drops) in enumerate(program.op_list):
                    start = perf()
                    execute(values)
                    ms[families[index]] += (perf() - start) * 1e3
                    for name in drops:
                        values.pop(name, None)
        n = len(walked)
        return {
            "ms": {k: v / (n * KERNEL_WALK_REPEATS) for k, v in ms.items()},
            "mb": {k: v / n for k, v in mb.items()},
        }

    # -- lifecycle ---------------------------------------------------------

    def serve(self, graph, options=None, **overrides):
        start = perf()
        service = repro.serve(graph, options, **overrides)
        self.start_ms += (perf() - start) * 1e3
        self.services.append(service)
        return service

    def close(self) -> None:
        for service in self.services:
            service.close()

    def report_counters(self) -> dict:
        """Summed scheduler counters of the workload's services."""
        keys = ("requests", "batches", "stacked_batches", "expired",
                "failed", "retries", "isolated", "worker_restarts",
                "fallbacks", "total_exec_s", "queue_depth_peak")
        total = dict.fromkeys(keys, 0)
        for service in self.services:
            report = service.report()
            for k in keys:
                total[k] += getattr(report, k)
        return total

    def warmup(self, seconds: float) -> Phase:
        phase = Phase("warmup")
        self.run_for(seconds, phase)
        return phase

    def windows(self, prefix: str, seconds: float, length: float,
                tracer) -> tuple[list, list]:
        """Run load for ``seconds`` in windows of about ``length``
        seconds; returns every window and those the figures come from.

        Traced, the load stops in the window where the span cap was
        reached: later windows would run untraced and price only the
        pass-through wrappers.  The figures then come from the windows
        traced throughout.
        """
        count = max(1, round(seconds / length))
        windows = []
        for w in range(count):
            phase = Phase(f"{prefix}{w}")
            self.run_for(seconds / count, phase, tracer)
            windows.append(phase)
            if tracer is not None and tracer.full:
                return windows, windows[:-1] or windows
        return windows, windows


def window_figures(windows) -> dict:
    """Throughput and p50 latency, each the median over ``windows``."""
    return {
        "throughput_rps": stats.median(
            p.completed / p.wall_s for p in windows),
        "latency_p50_ms": stats.median(
            stats.percentile(p.latencies_ms, 50) for p in windows),
    }


class ClosedLoop(Workload):
    """A closed loop measured in windows of about :data:`WINDOW_S`."""

    loop = "closed"

    def measure(self, seconds: float, tracer=None, probes: bool = True):
        windows, measured = self.windows("window", seconds, WINDOW_S, tracer)
        figures = window_figures(measured)
        figures["latency_p99_ms"] = stats.median(
            stats.percentile(p.latencies_ms, 99) for p in measured)
        figures["peak_rss_mb"] = own_peak_rss_mb()
        return figures, {"nominal": windows, "probes": []}


class Burst(ClosedLoop):
    """A service fed closed-loop bursts that are waited for in full."""
    backend = ""
    max_batch = 16
    burst = 64
    workers = None

    def setup(self) -> None:
        model = self.models[0]
        options = {"backend": self.backend,
                   "max_batch_size": self.max_batch}
        if self.workers is not None:
            options["workers"] = self.workers
        self.service = self.serve(build_smoke(model), **options)
        self.compiled = self.service.compiled
        self.graphs[model] = self.compiled.graph
        self._seeds = self.pool_seeds(self.pool_size)
        inputs = self.compiled.make_request(seed=self._seeds[0]).inputs
        self.pool = [((model, 1, 0), inputs)]
        response = self.service.submit(self.request(inputs)).result()
        self.checker(self.pool[0][0], response)

    def build_pool(self) -> None:
        model = self.models[0]
        for index, seed in enumerate(self._seeds[1:], start=1):
            self.pool.append(((model, 1, index),
                              self.compiled.make_request(seed=seed).inputs))

    def round(self, phase: Phase, tracer=None) -> None:
        picks = [self.pick() for _ in range(self.burst)]
        loadgen.burst(self.service, [self.request(p[1]) for p in picks],
                      [p[0] for p in picks], self.checker, phase, tracer)

    def run_for(self, seconds: float, phase: Phase, tracer=None) -> None:
        end = perf() + seconds
        while perf() < end:
            self.round(phase, tracer)



class BurstStack(Burst):
    name = "burst-stack"
    models = ("Pythia",)
    backend = "codegen"
    pool_size = 256


class BurstParallel(Burst):
    """Bursts served through the worker pool.

    One worker, so the serving process and the worker do not contend
    for a 2-CPU host's cores.  Batches of 128, so each request pays for
    a small share of the pipe round trips, whose wake-ups are what a
    contended host delays most.  Three batches a burst, so the median
    request sits in the middle batch rather than on the gap between
    two.  Together these keep run-to-run spread within bounds on such
    a host.
    """

    name = "burst-parallel"
    models = ("ViT",)
    backend = "parallel-codegen"
    max_batch = 128
    burst = 384
    workers = 1


class PoissonShapes(Workload):
    """Open-loop Poisson arrivals of mixed leading extents."""

    name = "poisson-shapes"
    loop = "open"
    models = ("Pythia",)
    max_extent = 8
    max_batch = 16
    #: Offered rate of the nominal phase: about a quarter of saturation
    #: on a 2-CPU host, where run-to-run latency stays within bounds.
    nominal_rps = 300.0
    #: The p99 latency a rate must meet to count towards max_rate_rps.
    limit_ms = 100.0
    #: Rates the max_rate_rps search may report: 4% apart, finer than
    #: the metric's bound.
    grid = loadgen.rate_grid(200.0, 6400.0, 0.04)
    #: Least samples per rate probe, so its p99 has ten samples beyond
    #: it.
    probe_samples = 1300
    #: Rate probes a search usually makes; they share its time budget.
    expected_probes = 8

    def setup(self) -> None:
        graph = build_smoke(self.models[0])
        signature = {name: (None,) + tuple(graph.tensors[name].shape)[1:]
                     for name in graph.inputs}
        self.service = self.serve(graph, repro.ServeOptions(
            max_batch_size=self.max_batch, compile=repro.CompileOptions(
                signature=signature, max_extent=self.max_extent)))
        self.compiled = self.service.compiled
        self.graphs[self.models[0]] = self.compiled.graph
        rng = loadgen.rng_for(self.name, self.seed, "extents")
        self._extents = [rng.randint(1, self.max_extent)
                         for _ in range(self.pool_size)]
        self._seeds = self.pool_seeds(self.pool_size * self.max_extent)
        self.pool = [self.entry(0)]
        response = self.service.submit(
            self.request(self.pool[0][1])).result()
        self.checker(self.pool[0][0], response)

    def entry(self, index: int):
        """Pool entry ``index``: ``extent`` distinct seeded requests
        stacked along the leading axis."""
        extent = self._extents[index]
        seeds = self._seeds[index * self.max_extent:][:extent]
        parts = [self.compiled.make_request(seed=s).inputs for s in seeds]
        inputs = {name: np.concatenate([p[name] for p in parts], axis=0)
                  for name in parts[0]}
        return (self.models[0], extent, index), inputs

    def build_pool(self) -> None:
        self.pool.extend(self.entry(i) for i in range(1, self.pool_size))

    def load(self, rate: float, seconds: float, phase: Phase,
             tracer=None) -> None:
        rng = loadgen.rng_for(self.name, self.seed, phase.name, rate)
        offsets = loadgen.poisson_offsets(rng, rate, seconds)
        picks = [rng.randrange(len(self.pool)) for _ in offsets]

        def make(i):
            key, inputs = self.pool[picks[i]]
            return key, self.request(inputs)

        loadgen.open_loop(self.service, offsets, make, self.checker,
                          phase, tracer)

    def run_for(self, seconds: float, phase: Phase, tracer=None) -> None:
        self.load(self.nominal_rps, seconds, phase, tracer)

    def meets_limit(self, phase: Phase) -> bool:
        return (phase.lost == 0 and stats.supported(len(phase.latencies_ms),
                                                    99.0)
                and stats.percentile(phase.latencies_ms, 99) <= self.limit_ms
                and phase.drain_s * 1e3 <= self.limit_ms)

    def measure(self, seconds: float, tracer=None, probes: bool = True):
        nominal_s = 0.6 * seconds if probes else seconds
        windows, measured = self.windows("nominal", nominal_s,
                                         OPEN_WINDOW_S, tracer)
        figures = window_figures(measured)
        # Pooled: a window's p99 rests on barely ten samples.
        figures["latency_p99_ms"] = stats.percentile(
            [x for p in measured for x in p.latencies_ms], 99)
        # Read before the rate search: probes past saturation grow a
        # backlog whose size depends on where the search goes.
        figures["peak_rss_mb"] = own_peak_rss_mb()
        phases = {"nominal": windows, "probes": []}
        if probes:
            # The search starts above the nominal rate when the nominal
            # phase met the limit.
            start = -1
            if all(map(self.meets_limit, measured)):
                start = max(i for i, r in enumerate(self.grid)
                            if r <= self.nominal_rps)
            figures["max_rate_rps"] = self.search(
                seconds - nominal_s, phases["probes"], start, tracer)
        return figures, phases

    def search(self, seconds: float, probes: list, lo: int,
               tracer=None) -> float:
        """Binary search of :attr:`grid` for the highest rate meeting
        :attr:`limit_ms` with no growing backlog.

        A rate whose median met the limit but whose tail did not is
        probed once more before the search moves below it, so one
        disturbed probe cannot halve the answer; an overloaded rate
        (median past the limit) is not retried.
        """
        grid = self.grid
        duration = seconds / self.expected_probes
        hi = len(grid)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            rate = grid[mid]
            for attempt in range(2):
                phase = Phase(f"probe@{rate:g}" + "#2" * attempt)
                self.load(rate, max(self.probe_samples / rate, duration),
                          phase, tracer)
                phase.rate = rate
                phase.passed = self.meets_limit(phase)
                probes.append(phase)
                if phase.passed or not phase.latencies_ms or \
                        stats.percentile(phase.latencies_ms, 50) \
                        > self.limit_ms:
                    break
            if phase.passed:
                lo = mid
            else:
                hi = mid
        return grid[lo] if lo >= 0 else 0.0


WORKLOADS = {cls.name: cls for cls in
             (BurstStack, PoissonShapes, BurstParallel)}
