"""Run engine behind the two executables.

For token pushes, one worker thread per selected service drives the pipeline
(resolve UID, acquire ticket, store vault tokens, fan-out push). Vault
storing is serialized across all services by a single lock. Pushes run on
one transfer pool per run, of ``transfer_parallelism`` workers; each
service's pipeline thread schedules its own nodes' attempts and retries on
it, so a run holds one thread per service, the pool's workers and the event
consumer, whatever the number of nodes. A stage failure stops that
service's later stages and never touches other services. Failures flow as
ErrorEvents into one aggregator, which applies the notification threshold
policy after all workers finish. Metrics and spans are emitted at the end and
never fail the run.
"""

from __future__ import annotations

import logging
import queue
import threading
import uuid
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from . import credentials, distribution, notifications, observability, registry
from .config import (ConfigError, GlobalConfig, ResolvedService, UnknownService,
                     resolve_service)
from .credentials import StorerLock
from .distribution import ParallelismBudget, PushOutcome
from .interfaces import AdapterBundle, describe_error
from .notifications import STAGES, ErrorEvent
from .registry import RefreshReport
from .statestore import Store, StoreError, open_store

logger = logging.getLogger(__name__)


class FatalSetupError(Exception):
    """Nothing ran: the configuration or the state store is unusable."""


@dataclass(frozen=True)
class StageResult:
    service: str
    stage: str
    success: bool
    started: float
    ended: float
    detail: str = ""

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.ended < self.started:
            raise ValueError("stage ended before it started")


@dataclass(frozen=True)
class RunReport:
    run_id: str
    started: float
    ended: float
    per_service: Mapping[str, tuple[StageResult, ...]]
    push_outcomes: tuple[PushOutcome, ...] = ()
    notifications_sent: int = 0

    @property
    def ok(self) -> bool:
        return all(r.success for results in self.per_service.values() for r in results)


class EventStream:
    """Funnel for ErrorEvents: many producers, exactly one consumer thread.

    Workers emit concurrently; ``close()`` waits for the consumer to drain
    everything and hands back the collected events.
    """

    def __init__(self) -> None:
        self._queue: "queue.Queue[Optional[ErrorEvent]]" = queue.Queue()
        self._events: list[ErrorEvent] = []
        self._consumer = threading.Thread(
            target=self._drain, name="event-aggregator", daemon=True)
        self._consumer.start()

    def emit(self, event: ErrorEvent) -> None:
        self._queue.put(event)

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            self._events.append(item)

    def close(self) -> tuple[ErrorEvent, ...]:
        self._queue.put(None)
        self._consumer.join()
        return tuple(self._events)


def order_services(config: GlobalConfig, selection: Optional[Iterable[str]] = None) -> list[str]:
    """Deterministic (lexicographic) service order, optionally filtered."""
    names = sorted(config.services)
    if not selection:
        return names
    wanted = set(selection)
    unknown = wanted - set(names)
    if unknown:
        raise UnknownService("unknown service(s): " + ", ".join(sorted(unknown)))
    return [name for name in names if name in wanted]


def _run_service_pipeline(
    svc: ResolvedService,
    config: GlobalConfig,
    deps: AdapterBundle,
    store: Store,
    events: EventStream,
    storer_lock: StorerLock,
    budget: ParallelismBudget,
    dry_run: bool,
    cancel: Optional[threading.Event],
) -> tuple[list[StageResult], list[PushOutcome]]:
    """One service's stages in order; never raises, never affects siblings."""
    clock = deps.clock
    results: list[StageResult] = []
    outcomes: list[PushOutcome] = []

    def record_failure(stage: str, started: float, message: str,
                       nodes: tuple[Optional[str], ...] = (None,)) -> None:
        ended = clock.now()
        results.append(StageResult(svc.name, stage, False, started, ended, message))
        logger.error("stage failed service=%s stage=%s error=%s",
                     svc.name, stage, message)
        for node in nodes:
            events.emit(ErrorEvent(service=svc.name, stage=stage, node=node,
                                   message=message, occurred_at=ended))

    def aborted(stage: str) -> bool:
        if cancel is None or not cancel.is_set():
            return False
        now = clock.now()
        results.append(StageResult(svc.name, stage, False, now, now,
                                   "aborted: shutdown requested"))
        logger.warning("stage aborted service=%s stage=%s", svc.name, stage)
        return True

    # UID: prefer the persisted mapping, fall back to a live registry fetch.
    # The registry stage only appears in the report when the fallback ran.
    if aborted("registry"):
        return results, outcomes
    uid = store.lookup_uid(svc.account)
    if uid is None:
        started = clock.now()
        try:
            uid = registry.fetch_uid(config.registry, deps.http, svc.account)
        except Exception as exc:
            record_failure("registry", started,
                           f"uid for account {svc.account!r} unavailable: "
                           f"{describe_error(exc)}")
            return results, outcomes
        store.upsert_uid(svc.account, uid, clock.now())
        results.append(StageResult(svc.name, "registry", True, started, clock.now(),
                                   f"fetched uid {uid} for account {svc.account}"))

    if aborted("ticket"):
        return results, outcomes
    started = clock.now()
    try:
        ticket = credentials.acquire_ticket(svc, deps.runner, clock)
    except Exception as exc:
        record_failure("ticket", started, describe_error(exc))
        return results, outcomes
    results.append(StageResult(svc.name, "ticket", True, started, clock.now(),
                               f"cache {ticket.cache_path}"))

    if aborted("vault_store"):
        return results, outcomes
    started = clock.now()
    try:
        token = credentials.store_vault_tokens(
            svc, uid, ticket, deps.runner, storer_lock, clock)
    except Exception as exc:
        record_failure("vault_store", started, describe_error(exc))
        return results, outcomes
    results.append(StageResult(svc.name, "vault_store", True, started, clock.now(),
                               f"staged at {token.path}"))

    if dry_run:
        logger.info("dry run: push skipped service=%s nodes=%d",
                    svc.name, len(svc.nodes))
        return results, outcomes
    if aborted("push"):
        return results, outcomes
    started = clock.now()
    try:
        svc_outcomes = distribution.push_all(
            svc, token, store, deps.transfer, budget, clock, rng=deps.rng)
    except Exception as exc:
        # Raised by the push as a whole (a bad staged token, say), not by
        # one node: report it against every node of the service.
        record_failure("push", started, describe_error(exc), nodes=svc.nodes)
        return results, outcomes
    outcomes.extend(svc_outcomes)
    ended = clock.now()
    failed = [o for o in svc_outcomes if not o.success]
    if failed:
        detail = "failed nodes: " + ", ".join(sorted(o.node for o in failed))
        results.append(StageResult(svc.name, "push", False, started, ended, detail))
        logger.error("stage failed service=%s stage=push error=%s", svc.name, detail)
        for outcome in failed:
            events.emit(ErrorEvent(
                service=svc.name, stage="push", node=outcome.node,
                message=outcome.error or "transfer failed", occurred_at=ended))
    else:
        results.append(StageResult(svc.name, "push", True, started, ended,
                                   f"{len(svc_outcomes)} node(s)"))
    return results, outcomes


def run_token_push(
    config: GlobalConfig,
    deps: AdapterBundle,
    selection: Optional[Iterable[str]] = None,
    dry_run: bool = False,
    run_id: Optional[str] = None,
    cancel: Optional[threading.Event] = None,
) -> RunReport:
    """Execute the full distribution run and return the assembled report.

    Raises FatalSetupError only when nothing could run at all; every other
    failure is per-service, inside the report.
    """
    clock = deps.clock
    run_id = run_id or uuid.uuid4().hex[:12]
    started = clock.now()
    try:
        names = order_services(config, selection)
        resolved = {name: resolve_service(config, name) for name in names}
    except ConfigError as exc:
        raise FatalSetupError(str(exc)) from exc
    try:
        store = open_store(config.state_dir)
    except (StoreError, OSError) as exc:
        raise FatalSetupError(f"state store unusable: {exc}") from exc

    logger.info("run started run_id=%s services=%d dry_run=%s",
                run_id, len(names), dry_run)
    events = EventStream()
    storer_lock = StorerLock()
    results_by_name: dict[str, list[StageResult]] = {name: [] for name in names}
    outcomes_by_name: dict[str, list[PushOutcome]] = {name: [] for name in names}

    try:
        def worker(name: str, budget: ParallelismBudget) -> None:
            try:
                results, outcomes = _run_service_pipeline(
                    resolved[name], config, deps, store, events, storer_lock,
                    budget, dry_run, cancel)
                results_by_name[name] = results
                outcomes_by_name[name] = outcomes
            except Exception:
                # Last-resort isolation; stages catch their own errors, so
                # reaching this means a bug in the pipeline plumbing itself.
                logger.exception("pipeline crashed service=%s", name)

        with ParallelismBudget(config.transfer_parallelism) as budget:
            threads = [
                threading.Thread(target=worker, args=(name, budget),
                                 name=f"pipeline-{name}")
                for name in names
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        raw_events = events.close()
        sent = 0
        if not dry_run:
            batches, summary = notifications.aggregate(
                raw_events, store, config, run_id, clock.now())
            sent = notifications.dispatch(batches, summary, deps.sink)
    finally:
        store.close()

    push_outcomes: list[PushOutcome] = []
    for name in names:
        push_outcomes.extend(outcomes_by_name[name])
    report = RunReport(
        run_id=run_id,
        started=started,
        ended=clock.now(),
        per_service={name: tuple(results_by_name[name]) for name in names},
        push_outcomes=tuple(push_outcomes),
        notifications_sent=sent if not dry_run else 0,
    )
    logger.info("run finished run_id=%s ok=%s notifications=%d",
                run_id, report.ok, report.notifications_sent)
    _emit_run_telemetry(report, config, deps)
    return report


def _emit_run_telemetry(report: RunReport, config: GlobalConfig,
                        deps: AdapterBundle) -> None:
    samples = observability.report_to_metrics(report, report.ended)
    if config.metrics_gateway_url:
        text = observability.render_exposition(samples)
        observability.push_metrics(text, config.metrics_gateway_url,
                                   observability.PUSH_JOB, deps.gateway_http())
    if config.trace_export:
        observability.export_spans(build_spans(report), config.trace_export,
                                   http=deps.http)


def build_spans(report: RunReport,
                root_name: str = "token-push") -> list[observability.SpanRecord]:
    """One root span for the run plus one child span per stage result."""
    root = observability.record_span(
        root_name, None, report.started, report.ended,
        status="ok" if report.ok else "error",
        attributes={"run_id": report.run_id},
    )
    spans = [root]
    for service in sorted(report.per_service):
        for result in report.per_service[service]:
            attributes = {"service": service, "stage": result.stage}
            if result.detail:
                attributes["detail"] = result.detail
            spans.append(observability.record_span(
                f"{service}/{result.stage}", root, result.started, result.ended,
                status="ok" if result.success else "error",
                attributes=attributes,
            ))
    return spans


def run_uid_refresh(config: GlobalConfig, deps: AdapterBundle) -> RefreshReport:
    """Refetch the UID of every configured account (deduplicated) and persist
    the results. Raises FatalSetupError when the store cannot be opened."""
    clock = deps.clock
    accounts = sorted({svc.account for svc in config.services.values()})
    try:
        store = open_store(config.state_dir)
    except (StoreError, OSError) as exc:
        raise FatalSetupError(f"state store unusable: {exc}") from exc
    try:
        report = registry.refresh_all_uids(
            config.registry, deps.http, store, accounts, clock.now())
    finally:
        store.close()
    logger.info("uid refresh finished ok=%d failed=%d", report.ok, report.failed)
    if config.metrics_gateway_url:
        ended = clock.now()
        samples = [
            observability.gauge(
                observability.METRIC_PREFIX + "last_refresh_timestamp_seconds", {}, ended),
            observability.counter(
                observability.METRIC_PREFIX + "uid_refresh_success_total", {}, report.ok),
            observability.counter(
                observability.METRIC_PREFIX + "uid_refresh_failure_total", {}, report.failed),
        ]
        observability.push_metrics(
            observability.render_exposition(samples), config.metrics_gateway_url,
            observability.PUSH_JOB, deps.gateway_http())
    return report
