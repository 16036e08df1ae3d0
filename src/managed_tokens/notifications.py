"""Error aggregation and threshold-gated notification delivery.

Workers emit immutable :class:`ErrorEvent` values; a single consumer
aggregates them at the end of the run. Operators (admin recipients) get a
summary of every failure in the run. Experiment stakeholders are only
mailed about a (service, node) pair once its *consecutive* distribution
failures reach the configured threshold, and again every further
``threshold`` failures, so persistent breakage surfaces and one-off transient
noise does not.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Iterable, Mapping, Optional

from .config import GlobalConfig
from .interfaces import NotificationSink, describe_error
from .statestore import FailureCounter, Store

logger = logging.getLogger(__name__)

STAGES = ("registry", "ticket", "vault_store", "push")

SUBJECT_PREFIX = "[managed-tokens]"


@dataclass(frozen=True)
class ErrorEvent:
    service: str
    stage: str
    message: str
    occurred_at: float
    node: Optional[str] = None

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if (self.stage == "push") != (self.node is not None):
            raise ValueError("node must be present exactly when stage is 'push'")


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
    events: tuple[ErrorEvent, ...]
    run_id: str
    generated_at: float


def notification_due(counter: FailureCounter, threshold: int) -> bool:
    """True once the streak is ``threshold`` failures past the watermark that
    :meth:`Store.mark_notified` sets after a send (0 before the first): at
    ``threshold`` consecutive failures, then every further ``threshold``."""
    return counter.consecutive_failures - counter.last_notified_count >= threshold


def _iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _event_sort_key(event: ErrorEvent):
    return (event.service, event.stage, event.node or "", event.message, event.occurred_at)


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
    """Deterministic plain-text body listing every failure of the run."""
    lines = [
        f"run: {summary.run_id}",
        f"generated: {_iso(summary.generated_at)}",
        "",
        f"{len(summary.events)} failure(s) this run:",
        "",
    ]
    current_service = None
    for event in summary.events:
        if event.service != current_service:
            current_service = event.service
            lines.append(f"{event.service}:")
        where = f" node={event.node}" if event.node else ""
        lines.append(f"  - [{event.stage}]{where} {event.message}")
    return "\n".join(lines) + "\n"


def aggregate(
    events: Iterable[ErrorEvent],
    counters: Mapping[tuple[str, str], FailureCounter],
    config: GlobalConfig,
    run_id: str,
    now: float,
) -> tuple[list[NotificationBatch], AdminSummary]:
    """Turn the run's closed event stream into stakeholder batches plus an
    admin summary.

    ``counters`` holds the failure counters this run saved, by (service,
    node). Only a node with a push event this run and a saved counter that
    is notification-due is paged, with its latest push error; a node whose
    counter was not saved is never paged from an older one. Nothing is
    written here; :func:`dispatch` advances a node's watermark once its
    batch is sent. Non-push failures (registry, ticket, vault store) reach
    only the admin summary. The result is independent of the order events
    arrived in.
    """
    all_events = sorted(events, key=_event_sort_key)
    threshold = config.notification.threshold

    # Latest push error per (service, node): the later event overwrites.
    last_error = {(e.service, e.node): e.message
                  for e in sorted(all_events, key=lambda e: (e.occurred_at, e.message))
                  if e.node is not None}
    due: dict[str, list[tuple[str, int, str]]] = {}
    for (service, node), message in sorted(last_error.items()):
        counter = counters.get((service, node))
        if counter is not None and notification_due(counter, threshold):
            due.setdefault(service, []).append(
                (node, counter.consecutive_failures, message))

    batches: list[NotificationBatch] = []
    for service in sorted(due):
        batch = NotificationBatch(
            service=service,
            recipients=config.services[service].stakeholder_emails,
            subject=f"{SUBJECT_PREFIX} {service}: token distribution failures",
            body="",
            node_failures=tuple(sorted(due[service])),
            run_id=run_id,
            generated_at=now,
        )
        batches.append(replace(batch, body=render(batch)))

    services_affected = len({e.service for e in all_events})
    summary = AdminSummary(
        recipients=config.notification.admin_recipients,
        subject=(f"{SUBJECT_PREFIX} run {run_id}: {len(all_events)} failure(s) "
                 f"across {services_affected} service(s)"),
        body="",
        events=tuple(all_events),
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
    """Send every batch plus the admin summary (when non-empty).

    A batch's due nodes are marked notified in ``store``, in one transaction,
    only once its send returns, so a failed send, or a batch without
    recipients, stays due for the next run. Sink and store failures are
    logged and skipped, never raised: notification delivery must not take
    the run down. A batch whose watermark was not saved stays due, so it
    may be sent again next run: pages are at-least-once. The admin summary
    goes out last, so its body also names every watermark not saved. Returns
    the number of successful sends.
    """
    sent = 0
    unsaved: list[str] = []
    for batch in batches:
        if not batch.recipients:
            logger.warning("no stakeholder recipients for service=%s; batch not sent",
                           batch.service)
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
            unsaved.append(f"watermark not saved service={batch.service} "
                           f"error={describe_error(exc)}")
            logger.error("%s", unsaved[-1])
    if summary is not None and summary.events:
        if not summary.recipients:
            logger.warning("no admin recipients configured; run summary not sent")
        else:
            body = "\n".join([summary.body, *unsaved, ""]) if unsaved else summary.body
            try:
                sink.send(summary.recipients, summary.subject, body)
                sent += 1
            except Exception as exc:
                logger.error("admin summary send failed error=%s", exc)
    return sent
