"""Measurement loop and metrics of the token-push benchmark.

The load is a closed loop: one driver thread calls
``orchestrator.run_token_push`` in process, one run after another, the way
cron fires the job. The program's own threads are part of what is measured.
Every run is checked by the correctness gate before its numbers count.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import platform
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from managed_tokens import orchestrator

from . import layers
from .doubles import Deployment, build_doubles, create_deployment
from .gate import Gate
from .workloads import Plan, Workload, make_plan

# A warm workload sets up one more throwaway site after every this many runs,
# so that set-up time is sampled across the whole run, as the runs are.
SETUP_EVERY = 4

# Units of end-to-end metrics, in the order they are printed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_wall_p50_s": "s",
    "node_ready_p50_s": "s",
    "node_ready_p99_s": "s",
    "bound_ratio": "1",
    "node_pushes_per_s": "1/s",
    "node_served_ratio": "1",
    "peak_threads": "threads",
    "peak_rss_mb": "MB",
}

LOG_FORMAT = "ts=%(asctime)s level=%(levelname)s logger=%(name)s %(message)s"


@dataclass
class RunSample:
    wall: float
    bound: float
    ready: list[float]
    nodes: int
    served: int
    peak_threads: int
    unit: int
    traced: bool
    layers: Optional[dict[str, float]] = None


class Session:
    """One state dir with its doubles and its correctness gate."""

    def __init__(self, deployment: Deployment, plan: Plan):
        self.deployment = deployment
        self.workload = deployment.workload
        self.doubles = build_doubles(deployment, plan)
        self.gate = Gate(deployment, plan)

    def run(self, run_no: int, unit: int,
            tracer: Optional[layers.Tracer] = None) -> RunSample:
        d = self.doubles
        cold = not self.workload.warm and self.gate.runs == 0
        d.tokens.run = run_no
        d.gateway.requests.clear()
        before = {"storer_calls": len(d.storer.log.entries()),
                  "registry_hits": sum(d.registry.inner.hits.values()),
                  "messages": len(d.sink.messages)}
        traced = tracer.run(run_no, d) if tracer is not None else contextlib.nullcontext()
        with traced:
            started = time.perf_counter()
            d.transfer.begin_run(started)
            report = orchestrator.run_token_push(self.deployment.config, d.bundle)
            wall = time.perf_counter() - started
        self.gate.check(report, d, before)
        sample = RunSample(
            wall=wall,
            bound=self.workload.bound_s(self.workload.t_registry if cold else 0.0),
            ready=list(d.transfer.ready.values()),
            nodes=len(report.push_outcomes),
            served=sum(1 for o in report.push_outcomes if o.success),
            peak_threads=d.transfer.peak_threads,
            unit=unit,
            traced=tracer is not None,
        )
        if tracer is not None:
            sample.layers = layers.summarize_run(tracer.run_spans(run_no),
                                                 d.transfer.high_water)
        return sample


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    real, best, kind = os.path.realpath(path), "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            mounts = [line.split() for line in fh]
    except OSError:
        return kind
    for fields in mounts:
        if len(fields) < 3:
            continue
        mount = fields[1].replace("\\040", " ")
        inside = real == mount or real.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


@contextlib.contextmanager
def program_logging(path: Path):
    """One fixed logging set-up for every run: the root logger at INFO into
    one file, as the job's own log file would receive it, and nothing on
    stderr."""
    root = logging.getLogger()
    saved = (root.level, list(root.handlers))
    handler = logging.FileHandler(path, encoding="utf-8")
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    for h in saved[1]:
        root.removeHandler(h)
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        yield
    finally:
        root.removeHandler(handler)
        handler.close()
        root.setLevel(saved[0])
        for h in saved[1]:
            root.addHandler(h)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work_dir: Path, trace_path: Optional[Path] = None,
            emit: Callable[[str], None] = print) -> dict:
    """Run ``workload`` for ``seconds`` and return the result object.

    Raises :class:`~perfbench.gate.GateFailure` on the first run whose
    outputs are wrong. With ``trace`` every second unit (a run, or a
    sequence of a cold workload) runs traced; the others give the untraced
    baseline for the tracing overhead.
    """
    workload.check_size()
    rng = random.Random(seed)
    tracer = layers.Tracer() if trace else None
    min_units = (4 if trace else 3) if workload.warm else (2 if trace else 1)
    setups: list[Deployment] = []
    samples: list[RunSample] = []
    sequence_sent: list[int] = []
    work_dir.mkdir(parents=True, exist_ok=True)

    with program_logging(work_dir / "program.log"):
        if workload.warm:
            setups.append(create_deployment(work_dir / "site0", workload))
            session = Session(setups[0], make_plan(workload, rng))
            session.run(0, 0)  # warm-up: counters exist from here on, as in steady cron use
            deadline = time.perf_counter() + seconds
            unit = 0
            while unit < min_units or time.perf_counter() < deadline:
                unit += 1
                samples.append(session.run(
                    unit, unit, tracer if trace and unit % 2 == 0 else None))
                if unit % SETUP_EVERY == 0:
                    setups.append(create_deployment(work_dir / f"site{unit}", workload))
                    shutil.rmtree(setups[-1].root)
        else:
            deadline = time.perf_counter() + seconds
            unit = run_no = 0
            while unit < min_units or time.perf_counter() < deadline:
                unit += 1
                deployment = create_deployment(work_dir / f"site{unit}", workload)
                setups.append(deployment)
                session = Session(deployment, make_plan(workload, rng))
                unit_tracer = tracer if trace and unit % 2 == 0 else None
                for _ in range(workload.sequence_runs):
                    run_no += 1
                    samples.append(session.run(run_no, unit, unit_tracer))
                sequence_sent.append(session.gate.notifications_sent)
                shutil.rmtree(deployment.root)

    emit(f"workload {workload.name} seed={seed} seconds={seconds} trace={int(trace)} "
         f"S={workload.services} C={workload.credds} N={workload.nodes} "
         f"P={workload.parallelism} t_storer={workload.t_storer} t_xfer={workload.t_xfer} "
         f"t_registry={workload.t_registry} warm={workload.warm}")
    emit(f"env fs_type={filesystem_type(str(work_dir))} "
         f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
         f"implementation={platform.python_implementation()}")
    if sequence_sent:
        emit(f"info notifications per {workload.sequence_runs}-run sequence: "
             f"{sorted(set(sequence_sent))} over {len(sequence_sent)} sequences")

    untraced = [s for s in samples if not s.traced]
    if trace:
        traced = [s for s in samples if s.traced]
        per_unit: dict[int, list[dict[str, float]]] = {}
        for s in traced:
            per_unit.setdefault(s.unit, []).append(s.layers)
        values = layers.median_per_metric([layers.combine(u) for u in per_unit.values()])
        values["config.load_s"] = statistics.median(d.load_s for d in setups)
        untraced_wall = statistics.median(s.wall for s in untraced)
        traced_wall = statistics.median(s.wall for s in traced)
        values["tracing.overhead_s"] = traced_wall - untraced_wall
        emit(f"info traced runs={len(traced)} run_wall_p50_s={traced_wall:.6f}; "
             f"untraced runs={len(untraced)} run_wall_p50_s={untraced_wall:.6f}; "
             f"overhead {100.0 * (traced_wall / untraced_wall - 1.0):.1f}%")
        if tracer.missing:
            emit(f"info not traced (absent from the program): {sorted(tracer.missing)}")
        if trace_path is not None:
            tracer.write(str(trace_path))
            emit(f"info spans written to {trace_path}")
        units = layers.LAYER_UNITS
    else:
        values = end_to_end(setups, untraced, emit)
        units = END_TO_END_UNITS
    metrics = {}
    for name, unit_name in units.items():
        metrics[name] = {"value": float(values[name]), "unit": unit_name}
        emit(f"metric {name} {values[name]:.6g} {unit_name}")
    return {"correct": True, "attempted": len(samples), "failed": 0, "metrics": metrics}


def end_to_end(setups: list[Deployment], samples: list[RunSample],
               emit: Callable[[str], None]) -> dict[str, float]:
    walls = [s.wall for s in samples]
    ready = [t for s in samples for t in s.ready]
    # The median comes per run, then across runs: pooled, it can sit in the
    # gap between two services' nodes and jump by a whole storer call.
    nodes = sum(s.nodes for s in samples)
    served = sum(s.served for s in samples)
    emit(f"info runs={len(samples)} setups={len(setups)} node_ready samples={len(ready)} "
         f"({len(ready) - math.ceil(0.99 * len(ready))} beyond p99)")
    emit(f"info node_failed_ratio={(nodes - served) / nodes:.6g} "
         f"({nodes - served} of {nodes} node pushes failed, all as the workload injects)")
    return {
        "setup_s": statistics.median(d.setup_s for d in setups),
        "run_wall_p50_s": statistics.median(walls),
        "node_ready_p50_s": statistics.median(statistics.median(s.ready) for s in samples),
        "node_ready_p99_s": nearest_rank(ready, 99),
        "bound_ratio": statistics.median(s.wall / s.bound for s in samples),
        "node_pushes_per_s": served / sum(walls),
        "node_served_ratio": served / nodes,
        "peak_threads": statistics.median(s.peak_threads for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
