"""Threshold-gated notification delivery, read from the run's own record.

:func:`aggregate` reads the stage results and push outcomes the run's report
holds. Operators (admin recipients) get a summary of every failed or aborted
stage and every failed node of the run. Experiment stakeholders are only
mailed about a (service, node) pair once its *consecutive* distribution
failures reach the configured threshold, and again every further
``threshold`` failures, so persistent breakage surfaces and one-off transient
noise does not.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .config import GlobalConfig
from .interfaces import NotificationSink, describe_error
from .statestore import FailureCounter, Store

if TYPE_CHECKING:  # pragma: no cover
    from .distribution import PushOutcome
    from .orchestrator import StageResult

logger = logging.getLogger(__name__)

SUBJECT_PREFIX = "[managed-tokens]"


@dataclass(frozen=True)
class NotificationBatch:
    service: str
    recipients: tuple[str, ...]
    subject: str
    body: str
    # (node, consecutive failure count, last error) per due node, node-sorted.
    node_failures: tuple[tuple[str, int, str], ...]
    run_id: str
    generated_at: float


@dataclass(frozen=True)
class AdminSummary:
    recipients: tuple[str, ...]
    subject: str
    body: str
    stages: tuple[StageResult, ...]  # every failed stage result, by service
    nodes: tuple[PushOutcome, ...]  # every failed push, by (service, node), with an error
    run_id: str
    generated_at: float


def notification_due(counter: FailureCounter, threshold: int) -> bool:
    """True once the streak is ``threshold`` failures past the watermark that
    :meth:`Store.mark_notified` sets after a send (0 before the first): at
    ``threshold`` consecutive failures, then every further ``threshold``."""
    return counter.consecutive_failures - counter.last_notified_count >= threshold


def _iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def render(batch: NotificationBatch) -> str:
    """Deterministic plain-text body for a stakeholder batch."""
    lines = [
        f"service: {batch.service}",
        f"run: {batch.run_id}",
        f"generated: {_iso(batch.generated_at)}",
        "",
        "vault token distribution to the following submit points keeps failing:",
        "",
    ]
    for node, count, error in batch.node_failures:
        lines.append(f"node {node}: {count} consecutive failed distribution attempts;"
                     f" last error: {error}")
    lines.append("")
    lines.append("The service will keep retrying on its schedule. If the node is")
    lines.append("expected to be offline, no action is needed.")
    return "\n".join(lines) + "\n"


def render_admin_summary(summary: AdminSummary) -> str:
    """Deterministic plain-text body listing every failure of the run: per
    service, in name order, each failed stage, then each failed node."""
    lines = [
        f"run: {summary.run_id}",
        f"generated: {_iso(summary.generated_at)}",
        "",
        f"{len(summary.stages)} failure(s) this run:",
        "",
    ]
    for service in sorted({r.service for r in summary.stages}):
        lines.append(f"{service}:")
        lines.extend(f"  - [{r.stage}] {r.detail}"
                     for r in summary.stages if r.service == service)
        lines.extend(f"  - [push] node={o.node} {o.error}"
                     for o in summary.nodes if o.service == service)
    return "\n".join(lines) + "\n"


def aggregate(
    results: Mapping[str, Sequence[StageResult]],
    outcomes: Mapping[str, Sequence[PushOutcome]],
    counters: Mapping[tuple[str, str], FailureCounter],
    config: GlobalConfig,
    run_id: str,
    now: float,
) -> tuple[list[NotificationBatch], AdminSummary]:
    """Turn the run's stage results and push outcomes, each by service, into
    stakeholder batches plus an admin summary.

    ``counters`` holds the failure counters this run saved, by (service,
    node). Only a node whose push failed this run and whose saved counter is
    notification-due is paged, with that push's error; a node whose counter
    was not saved is never paged from an older one. Nothing is written here;
    :func:`dispatch` advances a node's watermark once its batch is sent.
    Non-push failures (registry, ticket, vault store, an aborted stage) and
    a push that failed as a whole reach only the admin summary, once each.
    The summary lists the services with a failed stage result; the engine
    gives every service with a failed node a failed push result.
    """
    threshold = config.notification.threshold
    failed_stages = tuple(r for service in sorted(results)
                          for r in results[service] if not r.success)
    failed_nodes = tuple(sorted((replace(o, error=o.error or "transfer failed")
                                 for pushed in outcomes.values() for o in pushed if not o.success),
                                key=lambda o: (o.service, o.node)))

    due: dict[str, list[tuple[str, int, str]]] = {}
    for outcome in failed_nodes:
        counter = counters.get((outcome.service, outcome.node))
        if counter is not None and notification_due(counter, threshold):
            due.setdefault(outcome.service, []).append(
                (outcome.node, counter.consecutive_failures, outcome.error))

    batches: list[NotificationBatch] = []
    for service in sorted(due):
        batch = NotificationBatch(
            service=service,
            recipients=config.services[service].stakeholder_emails,
            subject=f"{SUBJECT_PREFIX} {service}: token distribution failures",
            body="",
            node_failures=tuple(due[service]),
            run_id=run_id,
            generated_at=now,
        )
        batches.append(replace(batch, body=render(batch)))

    services_affected = len({r.service for r in failed_stages})
    summary = AdminSummary(
        recipients=config.notification.admin_recipients,
        subject=(f"{SUBJECT_PREFIX} run {run_id}: {len(failed_stages)} failure(s) "
                 f"across {services_affected} service(s)"),
        body="",
        stages=failed_stages,
        nodes=failed_nodes,
        run_id=run_id,
        generated_at=now,
    )
    summary = replace(summary, body=render_admin_summary(summary))
    return batches, summary


def dispatch(
    batches: Iterable[NotificationBatch],
    summary: Optional[AdminSummary],
    sink: NotificationSink,
    store: Store,
) -> int:
    """Send every batch plus the admin summary (when it lists a failed stage).

    A batch's due nodes are marked notified in ``store``, in one transaction,
    only once its send returns, so a failed send, or a batch without
    recipients, stays due for the next run. Sink and store failures are
    logged and skipped, never raised: notification delivery must not take
    the run down. A batch whose watermark was not saved stays due, so it
    may be sent again next run: pages are at-least-once. The admin summary
    goes out last, so its body also names every batch that had no
    recipients and every watermark not saved. Returns the number of
    successful sends.
    """
    sent = 0
    unsettled: list[str] = []
    for batch in batches:
        if not batch.recipients:
            unsettled.append(f"batch not sent service={batch.service}: "
                             "no stakeholder_emails")
            logger.warning("%s", unsettled[-1])
            continue
        try:
            sink.send(batch.recipients, batch.subject, batch.body)
        except Exception as exc:
            logger.error("notification send failed service=%s error=%s", batch.service, exc)
            continue
        sent += 1
        try:
            with store.transaction():
                for node, _, _ in batch.node_failures:
                    store.mark_notified(batch.service, node)
        except Exception as exc:
            unsettled.append(f"watermark not saved service={batch.service} "
                             f"error={describe_error(exc)}")
            logger.error("%s", unsettled[-1])
    if summary is not None and summary.stages:
        if not summary.recipients:
            logger.warning("no admin recipients configured; run summary not sent")
        else:
            body = "\n".join([summary.body, *unsettled, ""]) if unsettled else summary.body
            try:
                sink.send(summary.recipients, summary.subject, body)
                sent += 1
            except Exception as exc:
                logger.error("admin summary send failed error=%s", exc)
    return sent
