"""Client for the external identity registry that maps UNIX accounts to UIDs.

The registry's wire schema is site-configurable: the endpoint is a URL
template with an ``{account}`` placeholder and the UID is extracted from the
JSON response at a dotted path (default ``ferry_output.uid``). A periodic
refresh walks every configured account and persists the mapping in the state
store; individual lookup failures never abort the rest, and a failed fetch
never removes a previously stored record.
"""

from __future__ import annotations

import json
import logging
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .config import RegistryConfig
from .interfaces import HttpAdapter, TransportError
from .statestore import Store

logger = logging.getLogger(__name__)


class RegistryError(Exception):
    """Base class for registry client failures."""


class HttpError(RegistryError):
    """The registry answered with a non-2xx status."""

    def __init__(self, status: int, body: str = ""):
        super().__init__(f"registry returned HTTP {status}")
        self.status = status
        self.body = body


class SchemaError(RegistryError):
    """The response body is missing the UID field or it is not an integer >= 0."""


def _extract_path(payload: Any, dotted: str) -> Any:
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, Mapping) or part not in value:
            raise SchemaError(f"response has no field at {dotted!r}")
        value = value[part]
    return value


def fetch_uid(cfg: RegistryConfig, http: HttpAdapter, account: str) -> int:
    """Look up one account's UID, an integer >= 0. Side-effect free."""
    if not cfg.base_url:
        raise RegistryError("registry.base_url is not configured")
    url = cfg.base_url.rstrip("/") + cfg.uid_endpoint_template.format(
        account=urllib.parse.quote(account, safe=""))
    status, body = http.request("GET", url, timeout=cfg.timeout)
    if not 200 <= status < 300:
        raise HttpError(status, body)
    try:
        payload = json.loads(body)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"response is not valid JSON: {exc}") from exc
    value = _extract_path(payload, cfg.uid_json_path)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"field {cfg.uid_json_path!r} is not an integer >= 0: {value!r}")
    return value


@dataclass(frozen=True)
class RefreshReport:
    ok: int = 0
    failed: int = 0
    fetched: Mapping[str, int] = field(default_factory=dict)
    errors: Mapping[str, str] = field(default_factory=dict)


def refresh_all_uids(
    cfg: RegistryConfig,
    http: HttpAdapter,
    store: Store,
    accounts: Iterable[str],
    now: float,
) -> RefreshReport:
    """Fetch and persist the UID for each account, sequentially.

    Per-account failures are collected in the report; a stale record in the
    store beats no record, so nothing is ever deleted here.
    """
    fetched: dict[str, int] = {}
    errors: dict[str, str] = {}
    for account in accounts:
        try:
            uid = fetch_uid(cfg, http, account)
        except (RegistryError, TransportError) as exc:
            logger.error("uid refresh failed account=%s error=%s", account, exc)
            errors[account] = str(exc)
            continue
        store.upsert_uid(account, uid, now)
        fetched[account] = uid
    return RefreshReport(ok=len(fetched), failed=len(errors), fetched=fetched, errors=errors)
