"""Run engine behind the two executables.

A token push takes every selected service through three stages, driven from
the caller's thread:

- prepare: the UID (persisted, else fetched from the registry), then the
  Kerberos ticket, on a pool of ``min(S, transfer_parallelism)`` workers
  that exits once its queue drains;
- store: every vault-storer call on one storer thread, in the order the
  services finish preparing; that one thread serializes the storer;
- push: one run-wide :class:`~.distribution.PushScheduler` drives every
  node's attempts and retries on the run's transfer pool.

So a run holds ``transfer_parallelism + 2`` threads, plus the prepare pool
while it drains, whatever the number of services or nodes. A stage failure
stops that service's later stages and never touches other services. The
notification threshold policy is applied to the run's ErrorEvents once every
stage has finished. Metrics and spans are emitted at the end and never fail
the run.
"""

from __future__ import annotations

import collections
import logging
import threading
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from . import credentials, notifications, observability, registry
from .config import (ConfigError, GlobalConfig, ResolvedService, UnknownService,
                     resolve_service)
from .credentials import TicketCache, VaultTokenFile
from .distribution import ParallelismBudget, PushOutcome, PushScheduler, ServicePush
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


@dataclass
class _Stages:
    """The stage handlers of one run. A service's stages run one after
    another, each on its own stage's thread, and each appends to that
    service's results and to the run's events."""

    config: GlobalConfig
    deps: AdapterBundle
    store: Store
    dry_run: bool
    cancel: Optional[threading.Event]
    results: dict[str, list[StageResult]] = field(
        default_factory=lambda: collections.defaultdict(list))
    outcomes: dict[str, list[PushOutcome]] = field(default_factory=dict)
    events: list[ErrorEvent] = field(default_factory=list)

    def record(self, name: str, stage: str, started: float, detail: str,
               errors: Optional[Mapping[Optional[str], str]] = None) -> None:
        """One stage's result. ``errors`` is None on success, else it maps
        each failed node, or None for the whole service, to its error."""
        ended = self.deps.clock.now()
        self.results[name].append(
            StageResult(name, stage, errors is None, started, ended, detail))
        if errors is not None:
            logger.error("stage failed service=%s stage=%s error=%s", name, stage, detail)
            self.events.extend([ErrorEvent(service=name, stage=stage, node=node,
                                           message=error, occurred_at=ended)
                                for node, error in errors.items()])

    def aborted(self, name: str, stage: str) -> bool:
        if self.cancel is None or not self.cancel.is_set():
            return False
        now = self.deps.clock.now()
        self.results[name].append(StageResult(name, stage, False, now, now,
                                              "aborted: shutdown requested"))
        logger.warning("stage aborted service=%s stage=%s", name, stage)
        return True

    def stage(self, name: str, stage: str, call: Callable[[], Any],
              detail: Callable[[Any], str], prefix: str = "") -> Any:
        """Run one stage unless shutdown was requested; None stops the service."""
        if self.aborted(name, stage):
            return None
        started = self.deps.clock.now()
        try:
            result = call()
        except Exception as exc:
            message = prefix + describe_error(exc)
            self.record(name, stage, started, message, {None: message})
            return None
        self.record(name, stage, started, detail(result))
        return result

    def prepare(self, svc: ResolvedService, storer: ThreadPoolExecutor) -> Optional[Future]:
        """UID, then ticket, on the prepare pool; then queue the service at the
        storer from here, so the storer never waits on the caller's thread."""
        # Prefer the persisted mapping, fall back to a live registry fetch.
        # The registry stage only appears in the report when the fallback ran.
        uid = self.store.lookup_uid(svc.account)
        if uid is None:
            uid = self.stage(
                svc.name, "registry",
                lambda: registry.fetch_uid(self.config.registry, self.deps.http, svc.account),
                lambda uid: f"fetched uid {uid} for account {svc.account}",
                f"uid for account {svc.account!r} unavailable: ")
            if uid is None:
                return None
            self.store.upsert_uid(svc.account, uid, self.deps.clock.now())
        ticket = self.stage(
            svc.name, "ticket",
            lambda: credentials.acquire_ticket(svc, self.deps.runner),
            lambda ticket: f"cache {ticket.cache_path}")
        return None if ticket is None else storer.submit(self.store_tokens, svc, uid, ticket)

    def store_tokens(self, svc: ResolvedService, uid: int,
                     ticket: TicketCache) -> Optional[VaultTokenFile]:
        """The vault-storer calls; on the storer thread."""
        return self.stage(
            svc.name, "vault_store",
            lambda: credentials.store_vault_tokens(svc, uid, ticket, self.deps.runner),
            lambda token: f"staged at {token.path}")

    def start_push(self, svc: ResolvedService, token: VaultTokenFile,
                   pushes: PushScheduler) -> None:
        if self.dry_run:
            logger.info("dry run: push skipped service=%s nodes=%d",
                        svc.name, len(svc.nodes))
        elif not self.aborted(svc.name, "push"):
            started = self.deps.clock.now()
            try:
                pushes.add(svc, token)
            except Exception as exc:
                # Raised by the push as a whole (a bad staged token, say), not
                # by one node: report it against every node of the service.
                message = describe_error(exc)
                self.record(svc.name, "push", started, message,
                            dict.fromkeys(svc.nodes, message))

    def pushed(self, push: ServicePush) -> None:
        name = push.svc.name
        outcomes = self.outcomes[name] = [push.settled[i] for i in sorted(push.settled)]
        failed = {o.node: o.error or "transfer failed" for o in outcomes if not o.success}
        if push.failure is not None:
            detail = describe_error(push.failure)
            failed = dict.fromkeys(push.svc.nodes, detail)
        elif failed:
            detail = "failed nodes: " + ", ".join(sorted(failed))
        else:
            detail, failed = f"{len(outcomes)} node(s)", None
        self.record(name, "push", push.started, detail, failed)


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
    stages = _Stages(config, deps, store, dry_run, cancel)
    parallelism = config.transfer_parallelism
    try:
        with ParallelismBudget(parallelism) as budget, \
                ThreadPoolExecutor(1, thread_name_prefix="storer") as storer, \
                ThreadPoolExecutor(min(len(names), parallelism), "prepare") as prepare:
            pushes = PushScheduler(budget, deps.transfer, store, clock, deps.rng)
            # A pending future -> its service and the stage a crash in it
            # fails. A prepare future's result is the storer future, whose
            # result is the staged token.
            pending: dict[Future, tuple[ResolvedService, str]] = {
                prepare.submit(stages.prepare, resolved[name], storer):
                    (resolved[name], "ticket") for name in names}
            prepare.shutdown(wait=False)  # its workers exit once its queue drains
            while pending or pushes.busy:
                finished, done = pushes.step(pending)
                for push in finished:
                    stages.pushed(push)
                for future in done:
                    svc, stage = pending.pop(future)
                    try:
                        result = future.result()
                    except Exception as exc:  # a bug in the stage plumbing itself
                        logger.exception("pipeline crashed service=%s", svc.name)
                        message = describe_error(exc)
                        stages.record(svc.name, stage, clock.now(), message, {None: message})
                        continue
                    if isinstance(result, Future):
                        pending[result] = (svc, "vault_store")
                    elif result is not None:
                        stages.start_push(svc, result, pushes)

        sent = 0
        if not dry_run:
            batches, summary = notifications.aggregate(
                stages.events, store, config, run_id, clock.now())
            sent = notifications.dispatch(batches, summary, deps.sink, store)
    finally:
        store.close()

    report = RunReport(
        run_id=run_id,
        started=started,
        ended=clock.now(),
        per_service={name: tuple(stages.results[name]) for name in names},
        push_outcomes=tuple(o for name in names for o in stages.outcomes.get(name, ())),
        notifications_sent=sent,
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
