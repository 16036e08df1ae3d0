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
from typing import Iterable, Optional

from .config import GlobalConfig
from .interfaces import NotificationSink
from .statestore import Store, notification_due

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
    store: Store,
    config: GlobalConfig,
    run_id: str,
    now: float,
) -> tuple[list[NotificationBatch], AdminSummary]:
    """Turn the run's closed event stream into stakeholder batches plus an
    admin summary.

    Stakeholder batches are gated by the persistent failure counters: only
    (service, node) pairs whose streak is notification-due produce one.
    Nothing is written here; :func:`dispatch` advances a node's watermark
    once its batch is sent. Non-push failures (registry, ticket, vault store)
    reach only the admin summary. The result is independent of the order
    events arrived in.
    """
    all_events = sorted(events, key=_event_sort_key)
    threshold = config.notification.threshold

    # Latest push event per (service, node).
    last_push: dict[tuple[str, str], ErrorEvent] = {}
    for event in all_events:
        if event.stage == "push" and event.node is not None:
            key = (event.service, event.node)
            prev = last_push.get(key)
            if prev is None or (event.occurred_at, event.message) >= (prev.occurred_at,
                                                                      prev.message):
                last_push[key] = event

    due: dict[str, list[tuple[str, int, str]]] = {}
    for (service, node), event in sorted(last_push.items()):
        counter = store.get_counter(service, node)
        if counter is None:
            continue
        if notification_due(counter, threshold):
            due.setdefault(service, []).append(
                (node, counter.consecutive_failures, event.message))

    batches: list[NotificationBatch] = []
    for service in sorted(due):
        svc_cfg = config.services.get(service)
        recipients = svc_cfg.stakeholder_emails if svc_cfg is not None else ()
        batch = NotificationBatch(
            service=service,
            recipients=recipients,
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

    A batch's due nodes are marked notified in ``store`` only once its send
    returns, so a failed send, or a batch without recipients, stays due for
    the next run. Sink failures are logged and skipped, never raised:
    notification delivery must not take the run down. Returns the number of
    successful sends.
    """
    sent = 0
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
        for node, _, _ in batch.node_failures:
            store.mark_notified(batch.service, node)
    if summary is not None and summary.events:
        if not summary.recipients:
            logger.warning("no admin recipients configured; run summary not sent")
        else:
            try:
                sink.send(summary.recipients, summary.subject, summary.body)
                sent += 1
            except Exception as exc:
                logger.error("admin summary send failed error=%s", exc)
    return sent
