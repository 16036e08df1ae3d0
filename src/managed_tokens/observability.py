"""How a run becomes telemetry, and structured logging.

Each run makes one call here, :func:`emit_run` after a token push or
:func:`emit_refresh` after a UID refresh, and this module alone names the
metrics and builds the spans. The process is batch-scheduled, so metrics
are *pushed* (text exposition format, HTTP PUT to a pushgateway-compatible
endpoint) rather than exposed for scraping. A PUT replaces every series of
its group, so token push (:data:`PUSH_JOB`) and UID refresh
(:data:`REFRESH_JOB`) push under their own job names, and a token push of
selected services adds a ``selection`` grouping label. A token push's one
trace goes to a JSON-lines file, or to an HTTP collector endpoint. Neither
ever fails the run: both HTTP sends go through one helper that logs a
failure and reports it to the caller as False.
"""

from __future__ import annotations

import json
import logging
import logging.handlers
import os
import sys
import time
import urllib.parse
import uuid
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from .interfaces import HttpAdapter, TransportError

if TYPE_CHECKING:  # pragma: no cover
    from .config import GlobalConfig
    from .orchestrator import RunReport
    from .registry import RefreshReport

logger = logging.getLogger(__name__)

METRIC_PREFIX = "managed_tokens_"
PUSH_JOB = "managed_tokens"
REFRESH_JOB = "managed_tokens_uid_refresh"

@dataclass(frozen=True)
class MetricSample:
    name: str
    kind: str  # counter | gauge
    labels: Mapping[str, str]
    value: float


def counter(name: str, labels: Mapping[str, str], value: float) -> MetricSample:
    return MetricSample(name, "counter", dict(labels), float(value))


def gauge(name: str, labels: Mapping[str, str], value: float) -> MetricSample:
    return MetricSample(name, "gauge", dict(labels), float(value))


def report_to_metrics(report: "RunReport") -> list[MetricSample]:
    """Map a finalized run report onto the pushed metric set."""
    samples = [
        gauge(METRIC_PREFIX + "last_run_timestamp_seconds", {}, report.ended),
    ]
    for service in sorted(report.per_service):
        per_stage: dict[str, list] = {}
        for result in report.per_service[service]:
            per_stage.setdefault(result.stage, []).append(result)
        for stage in sorted(per_stage):
            results = per_stage[stage]
            labels = {"service": service, "stage": stage}
            successes = sum(1 for r in results if r.success)
            samples.append(counter(METRIC_PREFIX + "stage_success_total", labels, successes))
            samples.append(counter(METRIC_PREFIX + "stage_failure_total", labels,
                                   len(results) - successes))
            samples.append(gauge(METRIC_PREFIX + "stage_duration_seconds", labels,
                                 sum(r.ended - r.started for r in results)))
    # A run settles each node once, so each outcome is one node's sample.
    for outcome in sorted(report.push_outcomes, key=lambda o: (o.service, o.node)):
        samples.append(counter(METRIC_PREFIX + "push_failures_total",
                               {"service": outcome.service, "node": outcome.node},
                               0 if outcome.success else 1))
    return samples


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_exposition(samples: Iterable[MetricSample]) -> str:
    """Render samples in the text exposition format, deterministically
    ordered (metric name, then sorted label sets), one TYPE line per metric."""
    by_name: dict[str, list[MetricSample]] = {}
    for sample in samples:
        by_name.setdefault(sample.name, []).append(sample)

    lines: list[str] = []
    for name in sorted(by_name):
        lines.append(f"# TYPE {name} {by_name[name][0].kind}")
        rendered = []
        for sample in by_name[name]:
            items = sorted(sample.labels.items())
            if items:
                label_text = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
                rendered.append((items, f"{name}{{{label_text}}} {_format_value(sample.value)}"))
            else:
                rendered.append(([], f"{name} {_format_value(sample.value)}"))
        lines.extend(text for _, text in sorted(rendered, key=lambda r: r[0]))
    return "\n".join(lines) + ("\n" if lines else "")


def _send(http: HttpAdapter, method: str, url: str, content_type: str,
          body: str, timeout: float, what: str) -> bool:
    """One telemetry request: True on a 2xx reply, else log why and False."""
    try:
        status, reply = http.request(method, url, headers={"Content-Type": content_type},
                                     body=body, timeout=timeout)
    except (TransportError, OSError) as exc:
        logger.error("%s failed url=%s error=%s", what, url, exc)
        return False
    if not 200 <= status < 300:
        logger.error("%s rejected url=%s status=%d body=%r", what, url, status, reply)
        return False
    return True


def push_metrics(
    text: str,
    gateway_url: str,
    job: str,
    http: HttpAdapter,
    timeout: float = 10.0,
    grouping: Optional[Mapping[str, str]] = None,
) -> bool:
    """PUT the exposition body to ``{gateway}/metrics/job/{job}``, plus
    ``/{label}/{value}`` per grouping label, which replaces every series
    that group held. Each value is URL-quoted.

    Always non-fatal: failures are logged and reported as False.
    """
    group = {"job": job, **(grouping or {})}
    url = gateway_url.rstrip("/") + "/metrics" + "".join(
        f"/{label}/{urllib.parse.quote(value, safe='')}" for label, value in group.items())
    if not _send(http, "PUT", url, "text/plain; version=0.0.4", text, timeout,
                 "metrics push"):
        return False
    logger.debug("metrics pushed url=%s bytes=%d", url, len(text))
    return True


# -- spans ---------------------------------------------------------------------


@dataclass(frozen=True)
class SpanRecord:
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    status: str  # ok | error
    attributes: Mapping[str, str]


def report_to_spans(report: "RunReport") -> list[SpanRecord]:
    """One ``token-push`` root span for the run plus one ``{service}/{stage}``
    child per stage result, all in one new trace."""
    root = SpanRecord(uuid.uuid4().hex, uuid.uuid4().hex[:16], None, "token-push",
                      report.started, report.ended, "ok" if report.ok else "error",
                      {"run_id": report.run_id})
    spans = [root]
    for service in sorted(report.per_service):
        for r in report.per_service[service]:
            attributes = {"service": service, "stage": r.stage}
            if r.detail:
                attributes["detail"] = r.detail
            spans.append(SpanRecord(root.trace_id, uuid.uuid4().hex[:16], root.span_id,
                                    f"{service}/{r.stage}", r.started, r.ended,
                                    "ok" if r.success else "error", attributes))
    return spans


def export_spans(
    records: Iterable[SpanRecord],
    destination: str,
    http: HttpAdapter,
    timeout: float = 10.0,
) -> bool:
    """Write spans to a JSON-lines file, or POST them to an HTTP collector
    when the destination is a URL. Non-fatal, like all telemetry."""
    payload = [asdict(r) for r in records]
    if destination.startswith(("http://", "https://")):
        return _send(http, "POST", destination, "application/json",
                     json.dumps({"spans": payload}), timeout, "span export")
    try:
        parent = os.path.dirname(destination)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(destination, "a", encoding="utf-8") as fh:
            for record in payload:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as exc:
        logger.error("span export failed path=%s error=%s", destination, exc)
        return False
    return True


# -- one call per run ----------------------------------------------------------


def emit_run(report: "RunReport", config: "GlobalConfig", http: HttpAdapter,
             grouping: Optional[Mapping[str, str]] = None) -> None:
    """Push a token push's metrics and export its spans, each when configured."""
    if config.metrics_gateway_url:
        push_metrics(render_exposition(report_to_metrics(report)),
                     config.metrics_gateway_url, PUSH_JOB, http, grouping=grouping)
    if config.trace_export:
        export_spans(report_to_spans(report), config.trace_export, http)


def emit_refresh(report: "RefreshReport", config: "GlobalConfig", http: HttpAdapter,
                 now: float) -> None:
    """Push a UID refresh's metrics when a gateway is configured."""
    if config.metrics_gateway_url:
        push_metrics(render_exposition([
            gauge(METRIC_PREFIX + "last_refresh_timestamp_seconds", {}, now),
            counter(METRIC_PREFIX + "uid_refresh_success_total", {}, report.ok),
            counter(METRIC_PREFIX + "uid_refresh_failure_total", {}, report.failed),
        ]), config.metrics_gateway_url, REFRESH_JOB, http)


# -- logging -------------------------------------------------------------------

LOG_FORMAT = "ts=%(asctime)s level=%(levelname)s logger=%(name)s %(message)s"
LOG_DATEFMT = "%Y-%m-%dT%H:%M:%SZ"  # UTC, so ``ts`` is one logfmt token


def setup_logging(verbosity: int = 0, state_dir: Optional[str] = None) -> None:
    """Configure structured (key=value) logging to stderr and, when a state
    dir is known, to a rotating file under ``{state_dir}/log/``."""
    level = logging.WARNING if verbosity <= 0 else (
        logging.INFO if verbosity == 1 else logging.DEBUG)
    root = logging.getLogger()
    root.setLevel(min(level, logging.INFO))
    for handler in list(root.handlers):
        root.removeHandler(handler)
        handler.close()  # a StreamHandler leaves its stream (stderr) open
    formatter = logging.Formatter(LOG_FORMAT, LOG_DATEFMT)
    formatter.converter = time.gmtime
    stderr_handler = logging.StreamHandler(sys.stderr)
    stderr_handler.setLevel(level)
    stderr_handler.setFormatter(formatter)
    root.addHandler(stderr_handler)
    if state_dir:
        log_dir = os.path.join(state_dir, "log")
        os.makedirs(log_dir, exist_ok=True)
        file_handler = logging.handlers.RotatingFileHandler(
            os.path.join(log_dir, "managed-tokens.log"),
            maxBytes=5 * 1024 * 1024, backupCount=3,
        )
        file_handler.setLevel(logging.INFO)
        file_handler.setFormatter(formatter)
        root.addHandler(file_handler)
