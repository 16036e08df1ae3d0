"""Per-layer timing from outside the program.

A traced run replaces each layer's public functions with a wrapper that
records a span (name, start, end, parent, run id) in memory. Every function
is wrapped where its caller looks it up: ``orchestrator`` binds
``open_store`` and ``resolve_service`` by name, while ``credentials``,
``distribution``, ``registry``, ``notifications`` and ``observability``
functions are looked up on their modules and ``Store`` methods on the class.
The benchmark's own doubles are wrapped per instance. Untraced runs execute
with no wrappers at all.

A span's parent is the innermost open span of the same thread; a span opened
in a thread with none, such as the program's per-service and per-node
workers, is parented to the run's root span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from managed_tokens import (credentials, distribution, notifications, observability,
                            orchestrator, registry, statestore)

from .doubles import Doubles

Attrs = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Span:
    run: int
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    ok: bool
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def _service_of_push_all(args, kwargs, result) -> dict:
    return {"service": args[0].name}


def _push_token_attrs(args, kwargs, result) -> dict:
    return {"service": args[0].service,
            "attempts": result.attempts if result is not None else 0}


def _dispatch_attrs(args, kwargs, result) -> dict:
    return {"sent": result or 0}


def _exposition_attrs(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode()) if result else 0}


# (owner, attribute, span name, attribute extractor)
PROGRAM_TARGETS: tuple[tuple[Any, str, str, Optional[Attrs]], ...] = (
    (orchestrator, "resolve_service", "config.resolve", None),
    (orchestrator, "open_store", "statestore.open", None),
    (statestore.Store, "record_push_outcome", "statestore.record_push_outcome", None),
    (statestore.Store, "mark_notified", "statestore.mark_notified", None),
    (statestore.Store, "upsert_uid", "statestore.upsert_uid", None),
    (registry, "fetch_uid", "registry.fetch_uid", None),
    (credentials, "acquire_ticket", "credentials.ticket", None),
    (credentials, "store_vault_tokens", "credentials.store", None),
    (distribution, "push_all", "distribution.push_all", _service_of_push_all),
    (distribution, "push_token", "distribution.push_token", _push_token_attrs),
    (notifications, "aggregate", "notifications.aggregate", None),
    (notifications, "dispatch", "notifications.dispatch", _dispatch_attrs),
    (observability, "report_to_metrics", "observability.report_to_metrics", None),
    (observability, "render_exposition", "observability.render_exposition",
     _exposition_attrs),
    (observability, "push_metrics", "observability.push_metrics", None),
)


class Tracer:
    """Collects spans in memory; one root span per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._run = 0
        self._root: Optional[int] = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, attrs: Optional[Attrs] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            stack.append(span_id)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    tracer._run, span_id, parent, name, start, end, ok,
                    attrs(args, kwargs, result) if attrs is not None else {}))

        return traced

    @contextlib.contextmanager
    def run(self, run_id: int, doubles: Doubles) -> Iterator[None]:
        """Install every wrapper for one run, open its root span, and
        restore the originals afterwards."""
        restore: list[Callable[[], None]] = []
        targets = list(PROGRAM_TARGETS) + [
            (doubles.bundle.clock, "sleep", "distribution.backoff_sleep", None),
            (doubles.storer, "run", "credentials.storer_run", None),
            (doubles.transfer, "put", "distribution.put", None),
        ]
        for owner, attr, name, attrs in targets:
            if not hasattr(owner, attr):
                self.missing.add(name)
                continue
            restore.append(_patch(owner, attr, self.wrap(name, getattr(owner, attr), attrs)))
        self._run = run_id
        self._root = span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._root = None
            for undo in reversed(restore):
                undo()
            self.spans.append(Span(run_id, span_id, None, "orchestrator.run",
                                   start, end, True, {}))

    def run_spans(self, run_id: int) -> list[Span]:
        return [s for s in self.spans if s.run == run_id]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"run": s.run, "id": s.span_id, "parent": s.parent,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "ok": s.ok, **s.attrs}) + "\n")


def _patch(owner: Any, attr: str, replacement: Callable) -> Callable[[], None]:
    """Set ``owner.attr``; return an undo. An attribute the owner did not
    hold itself (an instance's method, found on its class) is deleted again."""
    namespace = vars(owner)
    own = attr in namespace
    original = namespace.get(attr)
    setattr(owner, attr, replacement)

    def undo() -> None:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)

    return undo


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# Per-layer metric name -> unit. Values are totals over one unit of work (a
# run, or a whole sequence of a cold workload), times summed over calls.
LAYER_UNITS = {
    "config.load_s": "s",
    "config.resolve_s": "s",
    "statestore.open_s": "s",
    "statestore.record_push_outcome_calls": "count",
    "statestore.record_push_outcome_s": "s",
    "statestore.mark_notified_calls": "count",
    "statestore.upsert_uid_calls": "count",
    "registry.fetch_uid_calls": "count",
    "registry.fetch_uid_s": "s",
    "credentials.ticket_s": "s",
    "credentials.store_s": "s",
    "credentials.storer_calls": "count",
    "credentials.storer_run_s": "s",
    "credentials.storer_lock_wait_s": "s",
    "distribution.push_all_s": "s",
    "distribution.push_token_calls": "count",
    "distribution.push_token_s": "s",
    "distribution.push_queue_wait_s": "s",
    "distribution.put_calls": "count",
    "distribution.put_s": "s",
    "distribution.put_failed": "count",
    "distribution.attempts": "count",
    "distribution.backoff_sleep_s": "s",
    "distribution.transfer_high_water": "count",
    "notifications.aggregate_s": "s",
    "notifications.dispatch_s": "s",
    "notifications.sent": "count",
    "observability.report_to_metrics_s": "s",
    "observability.render_exposition_s": "s",
    "observability.push_metrics_s": "s",
    "observability.exposition_bytes": "bytes",
    "orchestrator.run_s": "s",
    "orchestrator.self_s": "s",
    "tracing.overhead_s": "s",
    "tracing.spans": "count",
}


def summarize_run(spans: list[Span], transfer_high_water: int) -> dict[str, float]:
    """One traced run's per-layer values (every metric but ``config.load_s``
    and ``tracing.overhead_s``, which are not per run)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    root = by_name["orchestrator.run"][0]
    push_all_start = {s.attrs["service"]: s.start
                      for s in by_name.get("distribution.push_all", ())}
    queue_wait = sum(s.start - push_all_start[s.attrs["service"]]
                     for s in by_name.get("distribution.push_token", ())
                     if s.attrs["service"] in push_all_start)
    children = [(s.start, s.end) for s in spans if s.span_id != root.span_id]
    return {
        "config.resolve_s": total("config.resolve"),
        "statestore.open_s": total("statestore.open"),
        "statestore.record_push_outcome_calls": calls("statestore.record_push_outcome"),
        "statestore.record_push_outcome_s": total("statestore.record_push_outcome"),
        "statestore.mark_notified_calls": calls("statestore.mark_notified"),
        "statestore.upsert_uid_calls": calls("statestore.upsert_uid"),
        "registry.fetch_uid_calls": calls("registry.fetch_uid"),
        "registry.fetch_uid_s": total("registry.fetch_uid"),
        "credentials.ticket_s": total("credentials.ticket"),
        "credentials.store_s": total("credentials.store"),
        "credentials.storer_calls": calls("credentials.storer_run"),
        "credentials.storer_run_s": total("credentials.storer_run"),
        "credentials.storer_lock_wait_s":
            total("credentials.store") - total("credentials.storer_run"),
        "distribution.push_all_s": total("distribution.push_all"),
        "distribution.push_token_calls": calls("distribution.push_token"),
        "distribution.push_token_s": total("distribution.push_token"),
        "distribution.push_queue_wait_s": queue_wait,
        "distribution.put_calls": calls("distribution.put"),
        "distribution.put_s": total("distribution.put"),
        "distribution.put_failed": sum(1 for s in by_name.get("distribution.put", ())
                                       if not s.ok),
        "distribution.attempts": attr_sum("distribution.push_token", "attempts"),
        "distribution.backoff_sleep_s": total("distribution.backoff_sleep"),
        "distribution.transfer_high_water": transfer_high_water,
        "notifications.aggregate_s": total("notifications.aggregate"),
        "notifications.dispatch_s": total("notifications.dispatch"),
        "notifications.sent": attr_sum("notifications.dispatch", "sent"),
        "observability.report_to_metrics_s": total("observability.report_to_metrics"),
        "observability.render_exposition_s": total("observability.render_exposition"),
        "observability.push_metrics_s": total("observability.push_metrics"),
        "observability.exposition_bytes": attr_sum("observability.render_exposition", "bytes"),
        "orchestrator.run_s": root.duration,
        "orchestrator.self_s": root.duration - _covered(children, root.start, root.end),
        "tracing.spans": len(spans),
    }


def combine(runs: list[dict[str, float]]) -> dict[str, float]:
    """Fold the runs of one sequence: sums, but the highest high-water mark."""
    out = {name: sum(r[name] for r in runs) for name in runs[0]}
    out["distribution.transfer_high_water"] = max(
        r["distribution.transfer_high_water"] for r in runs)
    return out


def median_per_metric(units: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median_low(u[name] for u in units) for name in units[0]}
