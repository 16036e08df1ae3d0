"""Threshold-gated notification delivery, read from the run's own record.

:func:`aggregate` reads the stage results and push outcomes the run's report
holds. Operators (admin recipients) get a summary of every failed or aborted
stage and every failed node of the run. Experiment stakeholders are only
paged about a (service, node) pair once its *consecutive* distribution
failures reach the configured threshold, and again every further
``threshold`` failures, so persistent breakage surfaces and one-off transient
noise does not. A page and the summary are each a :class:`Message`: the
recipients, subject and body the sink sends, built once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
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
class Message:
    """One mail, exactly as the sink sends it. A stakeholder page also names
    its service and the due nodes whose watermark its send advances; the
    admin summary leaves both empty."""

    recipients: tuple[str, ...]
    subject: str
    body: str
    service: str = ""
    nodes: tuple[str, ...] = ()


def notification_due(counter: FailureCounter, threshold: int) -> bool:
    """True once the streak is ``threshold`` failures past the watermark that
    :meth:`Store.mark_notified` sets after a send (0 before the first): at
    ``threshold`` consecutive failures, then every further ``threshold``."""
    return counter.consecutive_failures - counter.last_notified_count >= threshold


def _text(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


def aggregate(
    results: Mapping[str, Sequence[StageResult]],
    outcomes: Mapping[str, Sequence[PushOutcome]],
    counters: Mapping[tuple[str, str], FailureCounter],
    config: GlobalConfig,
    run_id: str,
    now: float,
) -> tuple[list[Message], Optional[Message]]:
    """Turn the run's stage results and push outcomes, each by service, into
    stakeholder pages plus an admin summary, ``None`` when no stage failed.

    ``counters`` holds the failure counters this run saved, by (service,
    node). Only a node whose push failed this run and whose saved counter is
    notification-due is paged, with that push's error; a node whose counter
    was not saved is never paged from an older one. Nothing is written here;
    :func:`dispatch` advances a node's watermark once its page is sent.
    Non-push failures (registry, ticket, vault store, an aborted stage) and
    a push that failed as a whole reach only the admin summary, once each.
    The summary lists, per service in name order, each failed stage, then
    each failed node; the engine gives every service with a failed node a
    failed push result.
    """
    threshold = config.notification.threshold
    generated = datetime.fromtimestamp(now, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    failed_stages = [r for service in sorted(results)
                     for r in results[service] if not r.success]
    failed_nodes = sorted((o for pushed in outcomes.values() for o in pushed
                           if not o.success), key=lambda o: (o.service, o.node))

    due: dict[str, dict[str, str]] = {}  # service -> due node -> its body line
    for o in failed_nodes:
        counter = counters.get((o.service, o.node))
        if counter is not None and notification_due(counter, threshold):
            due.setdefault(o.service, {})[o.node] = (
                f"node {o.node}: {counter.consecutive_failures} consecutive failed "
                f"distribution attempts; last error: {o.error}")

    pages = [Message(
        recipients=config.services[service].stakeholder_emails,
        subject=f"{SUBJECT_PREFIX} {service}: token distribution failures",
        body=_text([f"service: {service}", f"run: {run_id}", f"generated: {generated}", "",
                    "vault token distribution to the following submit points keeps failing:",
                    "", *nodes.values(), "",
                    "The service will keep retrying on its schedule. If the node is",
                    "expected to be offline, no action is needed."]),
        service=service,
        nodes=tuple(nodes),
    ) for service, nodes in sorted(due.items())]
    if not failed_stages:
        return pages, None

    services = sorted({r.service for r in failed_stages})
    lines = [f"run: {run_id}", f"generated: {generated}", "",
             f"{len(failed_stages)} failure(s) this run:", ""]
    for service in services:
        lines.append(f"{service}:")
        lines.extend(f"  - [{r.stage}] {r.detail}"
                     for r in failed_stages if r.service == service)
        lines.extend(f"  - [push] node={o.node} {o.error}"
                     for o in failed_nodes if o.service == service)
    return pages, Message(
        recipients=config.notification.admin_recipients,
        subject=(f"{SUBJECT_PREFIX} run {run_id}: {len(failed_stages)} failure(s) "
                 f"across {len(services)} service(s)"),
        body=_text(lines))


def dispatch(
    pages: Iterable[Message],
    summary: Optional[Message],
    sink: NotificationSink,
    store: Store,
) -> int:
    """Send every page, then the admin summary when there is one.

    A page's nodes are marked notified in ``store``, in one transaction,
    only once its send returns, so a failed send, or a page without
    recipients, stays due for the next run. Sink and store failures are
    logged and skipped, never raised: notification delivery must not take
    the run down. A page whose watermark was not saved stays due, so it
    may be sent again next run: pages are at-least-once. The admin summary
    goes out last, so its body also names every page that had no
    recipients and every watermark not saved. Returns the number of
    successful sends.
    """
    sent = 0
    unsettled: list[str] = []
    for page in pages:
        if not page.recipients:
            unsettled.append(f"batch not sent service={page.service}: "
                             "no stakeholder_emails")
            logger.warning("%s", unsettled[-1])
            continue
        try:
            sink.send(page.recipients, page.subject, page.body)
        except Exception as exc:
            logger.error("notification send failed service=%s error=%s", page.service, exc)
            continue
        sent += 1
        try:
            with store.transaction():
                for node in page.nodes:
                    store.mark_notified(page.service, node)
        except Exception as exc:
            unsettled.append(f"watermark not saved service={page.service} "
                             f"error={describe_error(exc)}")
            logger.error("%s", unsettled[-1])
    if summary is not None:
        if not summary.recipients:
            logger.warning("no admin recipients configured; run summary not sent")
        else:
            body = _text([summary.body, *unsettled]) if unsettled else summary.body
            try:
                sink.send(summary.recipients, summary.subject, body)
                sent += 1
            except Exception as exc:
                logger.error("admin summary send failed error=%s", exc)
    return sent
