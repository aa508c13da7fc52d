"""Serving benchmark: one workload, one seed, end-to-end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload burst-stack --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans recorded around the
serving stack's public entry points and prints the per-layer metrics.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
restate every metric with its unit, the environment and the per-phase
counts.  A full record (and, traced, every span) is written to
``.perfbench/`` under the repository root.  Any byte mismatch, leaked
shared-memory segment or surviving worker process makes the exit code
non-zero.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

# Set-up is timed from here: nothing above imports the program.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

#: Warm-up before measuring: fills variant caches, bucket pools and
#: codegen modules, so the measured phase is steady state.
WARMUP_S = 1.0
#: Fresh processes whose set-up time is sampled per run (median taken).
SETUP_SAMPLES = 9
#: Share of ``--seconds`` a traced run spends measuring untraced first,
#: to price the tracing itself.
UNTRACED_SHARE = 0.3
#: Deadline for one set-up sample.
SETUP_TIMEOUT_S = 30.0


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    """Where the figures were measured: CPUs, interpreter, numpy/BLAS,
    thread settings, commit."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 prints only
        blas = {}
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in
                 ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git": git_stamp(),
    }


def git_stamp() -> dict:
    """Commit and dirty flag of the repository, when it is a git
    checkout (the search stops at the repository root)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(
            ("git", "-C", str(ROOT)) + args, env=env, capture_output=True,
            text=True, timeout=30, check=True).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": dirty}


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` CPU ticks of the host so far, from
    ``/proc/stat``; None where there is none."""
    try:
        with open("/proc/stat") as stat:
            ticks = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) == 8 else 0), sum(ticks)


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings: a run that read high was measured on a
    contended host."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def workers_peak_rss_mb(workers: int) -> float:
    """``workers`` times the largest peak RSS among joined children (the
    worker pool; set-up samples run only afterwards)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return workers * children / 1024.0


def setup_sample(args) -> int:
    """One set-up sample, in this fresh process: import, compile, serve,
    first response of every model or service; then check it."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T0
    finally:
        workload.close()
    correct = workload.verify() == 0
    print(json.dumps({"setup_s": setup_s, "correct": correct}))
    return 0 if correct else 1


def sample_setups(args) -> tuple[list[float], bool]:
    """Set-up time of :data:`SETUP_SAMPLES` fresh processes, one after
    another."""
    samples, correct = [], True
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-sample", "--workload", args.workload,
               "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES):
        # A session of its own, so a sample that hangs is killed with
        # every process it started.
        done = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = done.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(done.pid, signal.SIGKILL)
            done.communicate()
            print("perfbench: a set-up sample timed out", file=sys.stderr)
            correct = False
            continue
        lines = stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(stderr)
            correct = False
            continue
        sample = json.loads(lines[-1])
        samples.append(sample["setup_s"])
        correct = correct and sample["correct"]
    return samples, correct


def measure(args, spec, import_s: float):
    import multiprocessing

    from repro.runtime import codegen_backend, shm

    from perfbench import stats
    from perfbench.layers import per_layer
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    untraced = None
    workers = 0
    try:
        workload.setup()
        main_setup_s = time.perf_counter() - T0
        workload.build_pool()
        warmup = workload.warmup(WARMUP_S)
        if tracer is not None:
            tracer.uninstall()
            untraced, _ = workload.measure(
                args.seconds * UNTRACED_SHARE, probes=False)
            traced_s = args.seconds * (1.0 - UNTRACED_SHARE)
            tracer.install()
            workload.checker.reset_tallies()
            before = workload.report_counters()
        ticks = cpu_ticks()
        t0 = time.perf_counter()
        figures, phases = workload.measure(
            args.seconds if tracer is None else traced_s, tracer)
        t1 = time.perf_counter()
        stolen = steal_share(ticks, cpu_ticks())
        phases["warmup"] = warmup
        if tracer is not None:
            after = workload.report_counters()
            counters = {k: after[k] - before[k] for k in after}
            counters["queue_depth_peak"] = after["queue_depth_peak"]
            tracer.uninstall()
        parallel_restarts = sum(s.compiled.session.parallel_restarts
                                for s in workload.services)
        workers = sum(s.compiled.session.workers for s in workload.services
                      if "parallel" in s.compiled.session.backend)
    finally:
        workload.close()
    emissions = codegen_backend.emission_count()
    rss_mb = figures["peak_rss_mb"] + workers_peak_rss_mb(workers)
    leaked = len(shm.active_segments())
    survivors = len(multiprocessing.active_children())
    mismatched = workload.verify()

    phase_list = [phases["warmup"]] + phases["nominal"] + phases["probes"]
    attempted = sum(p.sent for p in phase_list)
    lost = sum(p.lost for p in phase_list)
    failed = lost + mismatched
    correct = mismatched == 0 and leaked == 0 and survivors == 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "main_setup_s": main_setup_s, "import_s": import_s,
        "attempted": attempted, "lost": lost, "mismatched": mismatched,
        "failed_share": failed / attempted if attempted else 0.0,
        "leaked_segments": leaked, "surviving_workers": survivors,
        "steal_share": stolen,
        "phases": [
            dict(name=p.name, **p.counts(),
                 refused=p.refused, expired=p.expired,
                 wall_s=p.wall_s, drain_s=p.drain_s,
                 rate=getattr(p, "rate", None),
                 passed=getattr(p, "passed", None),
                 latency=stats.tail_summary(p.latencies_ms),
                 lateness=stats.tail_summary(p.lateness_ms))
            for p in phase_list],
    }
    if tracer is None:
        samples, setups_ok = sample_setups(args)
        correct = correct and setups_ok and bool(samples)
        metrics = dict(figures, setup_s=stats.median(samples),
                       peak_rss_mb=rss_mb)
        record["setup_samples"] = samples
        names = spec["end_to_end"]
    else:
        primary = "throughput_rps" if workload.loop == "closed" \
            else "latency_p50_ms"
        sign = -1.0 if workload.loop == "closed" else 1.0
        overhead = sign * (figures[primary] - untraced[primary]) \
            / untraced[primary] if untraced[primary] else 0.0
        metrics = per_layer(SimpleNamespace(
            spans=tracer.spans, t0=t0, t1=t1, import_s=import_s,
            emissions=emissions, workload=workload, phases=phases,
            counters=counters, kernels=workload.kernel_walk(),
            parallel_restarts=parallel_restarts, leaked_segments=leaked,
            overhead_share=overhead))
        record["untraced"] = untraced
        record["traced"] = figures
        names = spec["per_layer"]
    record["env"] = environment()
    record["metrics"] = metrics
    return record, tracer, correct, names


def main(argv=None) -> int:
    args = parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import procs

    procs.adopt_orphans()
    try:
        return run(args)
    finally:
        procs.end_all()


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    start = time.perf_counter()
    from perfbench.workloads import WORKLOADS  # imports the program
    import_s = time.perf_counter() - start

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_sample:
        return setup_sample(args)
    spec = json.loads(SPEC.read_text())
    record, tracer, correct, names = measure(args, spec, import_s)

    metrics = record["metrics"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    out = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
           for m in names}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        from perfbench.tracing import self_time_by_name

        record["self_time"] = self_time_by_name(tracer.spans)
        record["spans"] = tracer.spans
    (OUT / f"{stem}.json").write_text(json.dumps(record, default=repr))

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(record["env"]))
    if record["steal_share"] is not None:
        print(f"steal_share {record['steal_share']:.4f} (host CPU time "
              "given to other guests while measuring)")
    for phase in record["phases"]:
        print(f"phase {phase['name']}: sent={phase['sent']} "
              f"completed={phase['completed']} failed={phase['failed']}"
              + (f" rate={phase['rate']:g} passed={phase['passed']}"
                 if phase["rate"] else ""))
    print(f"failed_share {record['failed_share']:.6f} "
          f"({record['mismatched']} byte mismatches, "
          f"{record['leaked_segments']} leaked segments, "
          f"{record['surviving_workers']} surviving workers)")
    for name, entry in out.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    for name in sorted(set(metrics) - set(out)):
        print(f"ungated {name} = {metrics[name]:.6g}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["mismatched"] + record["lost"],
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
