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
stops that service's later stages and never touches other services. Once
every stage has finished, every settled node's failure counter is saved in
one store transaction; notifications then read the counters it wrote and the
stage results and push outcomes that the returned :class:`RunReport` holds.
Metrics and spans are emitted at the end and never fail the run.

Both runs, token push and UID refresh, open the state store the same way
(an unusable store is a :class:`FatalSetupError`) and push their metrics
the same way, each under its own job name. Times come from the bundle's
wall clock, which may step back; a result never ends before it started.
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
from .distribution import PushOutcome, PushScheduler, ServicePush
from .interfaces import AdapterBundle, describe_error
from .registry import RefreshReport
from .statestore import FailureCounter, Store, StoreError, open_store

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
    service's results."""

    config: GlobalConfig
    deps: AdapterBundle
    store: Store
    dry_run: bool
    cancel: Optional[threading.Event]
    results: dict[str, list[StageResult]] = field(
        default_factory=lambda: collections.defaultdict(list))
    outcomes: dict[str, list[PushOutcome]] = field(default_factory=dict)

    def record(self, name: str, stage: str, started: float, detail: str,
               success: bool = True) -> None:
        ended = max(self.deps.clock.now(), started)  # a wall clock may step back
        self.results[name].append(StageResult(name, stage, success, started, ended, detail))
        if not success:
            logger.error("stage failed service=%s stage=%s error=%s", name, stage, detail)

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
            self.record(name, stage, started, prefix + describe_error(exc), success=False)
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
                # Raised by the push as a whole: destination paths that render equal, say.
                self.record(svc.name, "push", started, describe_error(exc), success=False)

    def pushed(self, push: ServicePush) -> None:
        name = push.svc.name
        outcomes = self.outcomes[name] = [push.settled[i] for i in sorted(push.settled)]
        failed = sorted(o.node for o in outcomes if not o.success)
        detail = "failed nodes: " + ", ".join(failed) if failed else f"{len(outcomes)} node(s)"
        self.record(name, "push", push.started, detail, success=not failed)

    def save_counters(self) -> dict[tuple[str, str], FailureCounter]:
        """Fold every settled node into its failure counter in one store
        transaction, and return the counters it wrote. If it raises, no
        counter changes, it returns ``{}``, and each service that pushed gets
        one more failed push result."""
        started = self.deps.clock.now()
        try:
            with self.store.transaction():
                return {(name, o.node): self.store.record_push_outcome(
                            name, o.node, o.success, started)
                        for name in sorted(self.outcomes) for o in self.outcomes[name]}
        except Exception as exc:
            message = "failure counters not saved: " + describe_error(exc)
            for name in sorted(self.outcomes):
                self.record(name, "push", started, message, success=False)
            return {}


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
    store = _open_store(config)
    logger.info("run started run_id=%s services=%d dry_run=%s",
                run_id, len(names), dry_run)
    stages = _Stages(config, deps, store, dry_run, cancel)
    parallelism = config.transfer_parallelism
    try:
        with PushScheduler(parallelism, deps.transfer, clock, deps.rng) as pushes, \
                ThreadPoolExecutor(1, thread_name_prefix="storer") as storer, \
                ThreadPoolExecutor(min(len(names), parallelism), "prepare") as prepare:
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
                        stages.record(svc.name, stage, clock.now(), describe_error(exc),
                                      success=False)
                        continue
                    if isinstance(result, Future):
                        pending[result] = (svc, "vault_store")
                    elif result is not None:
                        stages.start_push(svc, result, pushes)

        sent = 0
        if not dry_run:
            counters = stages.save_counters()
            batches, summary = notifications.aggregate(
                stages.results, stages.outcomes, counters, config, run_id, clock.now())
            sent = notifications.dispatch(batches, summary, deps.sink, store)
    finally:
        store.close()

    report = RunReport(
        run_id=run_id,
        started=started,
        ended=max(clock.now(), started),
        per_service={name: tuple(stages.results[name]) for name in names},
        push_outcomes=tuple(o for name in names for o in stages.outcomes.get(name, ())),
        notifications_sent=sent,
    )
    logger.info("run finished run_id=%s ok=%s notifications=%d",
                run_id, report.ok, report.notifications_sent)
    _emit_run_telemetry(report, config, deps)
    return report


def _open_store(config: GlobalConfig) -> Store:
    try:
        return open_store(config.state_dir)
    except (StoreError, OSError) as exc:
        raise FatalSetupError(f"state store unusable: {exc}") from exc


def _push_metrics(config: GlobalConfig, deps: AdapterBundle, job: str,
                  samples: list[observability.MetricSample]) -> None:
    if config.metrics_gateway_url:
        observability.push_metrics(observability.render_exposition(samples),
                                   config.metrics_gateway_url, job, deps.gateway_http())


def _emit_run_telemetry(report: RunReport, config: GlobalConfig,
                        deps: AdapterBundle) -> None:
    _push_metrics(config, deps, observability.PUSH_JOB,
                  observability.report_to_metrics(report))
    if config.trace_export:
        observability.export_spans(build_spans(report), config.trace_export,
                                   http=deps.http)


def build_spans(report: RunReport) -> list[observability.SpanRecord]:
    """One root span for the run plus one child span per stage result."""
    root = observability.record_span(
        "token-push", None, report.started, report.ended,
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
    accounts = sorted({svc.account for svc in config.services.values()})
    store = _open_store(config)
    try:
        report = registry.refresh_all_uids(
            config.registry, deps.http, store, accounts, deps.clock.now())
    finally:
        store.close()
    logger.info("uid refresh finished ok=%d failed=%d", report.ok, report.failed)
    prefix = observability.METRIC_PREFIX
    _push_metrics(config, deps, observability.REFRESH_JOB, [
        observability.gauge(prefix + "last_refresh_timestamp_seconds", {}, deps.clock.now()),
        observability.counter(prefix + "uid_refresh_success_total", {}, report.ok),
        observability.counter(prefix + "uid_refresh_failure_total", {}, report.failed),
    ])
    return report
