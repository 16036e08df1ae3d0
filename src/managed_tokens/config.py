"""Declarative service configuration: one strict YAML file, global defaults,
per-service overrides.

The file is loaded once, validated eagerly (unknown keys are errors, every
invariant checked with a field path in the message), and frozen. Workers
receive a :class:`ResolvedService`, a flattened, self-contained view of one
capability set with every global default and override already applied.

Durations may be written as bare seconds (``180``) or with a unit suffix
(``"30s"``, ``"3h"``, ``"7d"``); they are normalized to float seconds.
"""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import yaml

# Token lifetime defaults: bearer tokens live 3 hours, the locally staged
# vault token 7 days, the copies held by the credds 28 days.
DEFAULT_BEARER_LIFETIME = 3 * 3600.0
DEFAULT_VAULT_LOCAL_LIFETIME = 7 * 86400.0
DEFAULT_VAULT_CREDD_LIFETIME = 28 * 86400.0

ENV_STATE_DIR = "MANAGED_TOKENS_STATE_DIR"
ENV_METRICS_GATEWAY_URL = "MANAGED_TOKENS_METRICS_GATEWAY_URL"

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|s|m|h|d)?\s*$")
_DURATION_UNITS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

# libyaml's C parser when PyYAML was built with it, else the pure-Python one.
# Both feed the same Python resolver and SafeConstructor, so a document
# loads to the same objects either way; the C one is about ten times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(Exception):
    """Base class for configuration failures."""


class ParseError(ConfigError):
    """The file is not well-formed YAML or not a mapping."""


class ValidationError(ConfigError):
    """An invariant is violated; the message names the offending field."""


class UnknownService(ConfigError):
    """resolve_service was asked for a name the config does not define."""


def parse_duration(value: Any, path: str) -> float:
    """Normalize a duration to float seconds. Accepts numbers or '3h'-style strings."""
    if isinstance(value, bool):
        raise ValidationError(f"{path}: expected a duration, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        m = _DURATION_RE.match(value)
        if m:
            return float(m.group(1)) * _DURATION_UNITS.get(m.group(2) or "s", 1.0)
    raise ValidationError(f"{path}: cannot parse duration {value!r}")


def _format_duration(seconds: float) -> float | int:
    return int(seconds) if float(seconds).is_integer() else float(seconds)


@dataclass(frozen=True)
class StageTimeouts:
    ticket: float = 60.0
    vault_store: float = 180.0
    transfer: float = 30.0
    registry_fetch: float = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    base_backoff: float = 1.0


@dataclass(frozen=True)
class TokenLifetimes:
    bearer: float = DEFAULT_BEARER_LIFETIME
    vault_local: float = DEFAULT_VAULT_LOCAL_LIFETIME
    vault_credd: float = DEFAULT_VAULT_CREDD_LIFETIME


@dataclass(frozen=True)
class NotificationConfig:
    admin_recipients: tuple[str, ...] = ()
    from_address: str = "managed-tokens@localhost"
    smtp_server: str = "localhost"
    smtp_port: int = 25
    threshold: int = 3


@dataclass(frozen=True)
class RegistryConfig:
    base_url: str = ""
    uid_endpoint_template: str = "/getUserInfo?username={account}"
    uid_json_path: str = "ferry_output.uid"
    timeout: float = 30.0
    ca_bundle: Optional[str] = None
    poll_interval: float = 3600.0


@dataclass(frozen=True)
class CommandTemplates:
    """Shell-style templates for the external commands; placeholders are
    rendered per invocation ({keytab} {principal} {cache} {credd} {service}
    {vault_local_seconds} {vault_credd_seconds} {local} {node} {remote})."""

    ticket: str = "kinit -k -t {keytab} -c {cache} {principal}"
    storer: str = "condor_vault_storer {service}"
    transfer: str = "rsync -p -e ssh {local} {node}:{remote}"


@dataclass(frozen=True)
class DestinationTemplates:
    """The two per-node token locations: one keyed only by UID (per-user
    discovery convention), one keyed by UID, issuer, and role."""

    user: str = "{tmp_dir}/vt_u{uid}"
    role: str = "{tmp_dir}/vt_u{uid}-{issuer}_{role}"


@dataclass(frozen=True)
class SimulationConfig:
    """Settings for the built-in rehearsal adapters (adapter_mode: simulation)."""

    registry_uids: Mapping[str, int] = field(default_factory=dict)
    fault_schedules: Optional[str] = None


@dataclass(frozen=True)
class ServiceConfig:
    name: str
    account: str
    experiment: str
    role: str
    keytab_path: str
    principal_user: str
    principal_purpose: str
    principal_host: str
    credd_hosts: tuple[str, ...]
    nodes: tuple[str, ...]
    token_issuer: str
    stakeholder_emails: tuple[str, ...] = ()
    overrides: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class GlobalConfig:
    state_dir: str
    kerberos_realm: str
    services: Mapping[str, ServiceConfig]
    tmp_dir: str = "/tmp"
    transfer_parallelism: int = 4
    timeouts: StageTimeouts = field(default_factory=StageTimeouts)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    token_lifetimes: TokenLifetimes = field(default_factory=TokenLifetimes)
    metrics_gateway_url: Optional[str] = None
    trace_export: Optional[str] = None
    notification: NotificationConfig = field(default_factory=NotificationConfig)
    registry: RegistryConfig = field(default_factory=RegistryConfig)
    commands: CommandTemplates = field(default_factory=CommandTemplates)
    destination_templates: DestinationTemplates = field(default_factory=DestinationTemplates)
    default_token_path: str = "{tmp_dir}/vt_u{uid}"
    token_prefix_check: bool = False
    oidc_prompt_regex: str = r"(?i)(?=.*oidc)(?=.*https?://)"
    adapter_mode: str = "real"
    simulation: SimulationConfig = field(default_factory=SimulationConfig)


@dataclass(frozen=True)
class ResolvedService:
    """One service flattened against the effective global settings.

    Self-contained: downstream stages never consult GlobalConfig again.
    """

    name: str
    account: str
    experiment: str
    role: str
    keytab_path: str
    principal_user: str
    principal_purpose: str
    principal_host: str
    kerberos_realm: str
    credd_hosts: tuple[str, ...]
    nodes: tuple[str, ...]
    token_issuer: str
    stakeholder_emails: tuple[str, ...]
    state_dir: str
    tmp_dir: str
    transfer_parallelism: int
    timeouts: StageTimeouts
    retry: RetryPolicy
    token_lifetimes: TokenLifetimes
    commands: CommandTemplates
    destination_templates: DestinationTemplates
    default_token_path: str
    token_prefix_check: bool
    oidc_prompt_regex: str


_GLOBAL_KEYS = {
    "state_dir",
    "tmp_dir",
    "kerberos_realm",
    "transfer_parallelism",
    "timeouts",
    "retry",
    "token_lifetimes",
    "metrics_gateway_url",
    "trace_export",
    "notification",
    "registry",
    "commands",
    "destination_templates",
    "default_token_path",
    "token_prefix_check",
    "oidc_prompt_regex",
    "adapter_mode",
    "simulation",
    "services",
}

_SERVICE_KEYS = {
    "account",
    "experiment",
    "role",
    "keytab_path",
    "principal_user",
    "principal_purpose",
    "principal_host",
    "credd_hosts",
    "nodes",
    "token_issuer",
    "stakeholder_emails",
    "overrides",
}

_DURATION_FIELDS = {"timeouts", "retry.base_backoff", "token_lifetimes", "registry.timeout",
                    "registry.poll_interval"}

# Groups whose members may be overridden per service via dotted paths.
_OVERRIDE_GROUPS = {
    "timeouts": StageTimeouts,
    "retry": RetryPolicy,
    "token_lifetimes": TokenLifetimes,
    "commands": CommandTemplates,
    "destination_templates": DestinationTemplates,
}
_OVERRIDE_FLAT = {
    "transfer_parallelism",
    "tmp_dir",
    "default_token_path",
    "token_prefix_check",
    "oidc_prompt_regex",
}


def _require(mapping: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in mapping or mapping[key] is None:
        raise ValidationError(f"{path}.{key}: required field is missing")
    return mapping[key]


def _check_keys(mapping: Mapping[str, Any], allowed: set[str], path: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ValidationError(f"{path}: unknown key(s) {', '.join(unknown)}")


def _str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{path}: expected a non-empty string")
    return value


def _str_list(value: Any, path: str, allow_empty: bool = True) -> tuple[str, ...]:
    if value is None and allow_empty:
        return ()
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{path}: expected a list of strings")
    out = tuple(_str(v, f"{path}[{i}]") for i, v in enumerate(value))
    if not allow_empty and not out:
        raise ValidationError(f"{path}: must be non-empty")
    if len(set(out)) != len(out):
        raise ValidationError(f"{path}: contains duplicates")
    return out


def _int(value: Any, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}")
    return value


def _bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{path}: expected a boolean (true or false)")
    return value


def _positive_duration(value: Any, path: str) -> float:
    seconds = parse_duration(value, path)
    if seconds <= 0:
        raise ValidationError(f"{path}: must be > 0")
    return seconds


def _section(raw: Mapping[str, Any], key: str, path: str) -> Mapping[str, Any]:
    value = raw.get(key) or {}
    if not isinstance(value, Mapping):
        raise ValidationError(f"{path}.{key}: expected a mapping")
    return value


def _build_timeouts(raw: Mapping[str, Any], path: str) -> StageTimeouts:
    _check_keys(raw, {"ticket", "vault_store", "transfer", "registry_fetch"}, path)
    kwargs = {k: _positive_duration(v, f"{path}.{k}") for k, v in raw.items()}
    return StageTimeouts(**kwargs)


def _build_retry(raw: Mapping[str, Any], path: str) -> RetryPolicy:
    _check_keys(raw, {"max_attempts", "base_backoff"}, path)
    kwargs: dict[str, Any] = {}
    if "max_attempts" in raw:
        kwargs["max_attempts"] = _int(raw["max_attempts"], f"{path}.max_attempts", minimum=1)
    if "base_backoff" in raw:
        kwargs["base_backoff"] = _positive_duration(raw["base_backoff"], f"{path}.base_backoff")
    return RetryPolicy(**kwargs)


def _build_lifetimes(raw: Mapping[str, Any], path: str) -> TokenLifetimes:
    _check_keys(raw, {"bearer", "vault_local", "vault_credd"}, path)
    kwargs = {k: _positive_duration(v, f"{path}.{k}") for k, v in raw.items()}
    lifetimes = TokenLifetimes(**kwargs)
    _check_lifetime_order(lifetimes, path)
    return lifetimes


def _check_lifetime_order(lifetimes: TokenLifetimes, path: str) -> None:
    if not lifetimes.bearer < lifetimes.vault_local < lifetimes.vault_credd:
        raise ValidationError(
            f"{path}: lifetimes must satisfy bearer < vault_local < vault_credd "
            f"(got {lifetimes.bearer} / {lifetimes.vault_local} / {lifetimes.vault_credd})"
        )


def _build_notification(raw: Mapping[str, Any], path: str) -> NotificationConfig:
    _check_keys(raw, {"admin_recipients", "from_address", "smtp_server", "smtp_port",
                      "threshold"}, path)
    kwargs: dict[str, Any] = {}
    if "admin_recipients" in raw:
        kwargs["admin_recipients"] = _str_list(raw["admin_recipients"], f"{path}.admin_recipients")
    if "from_address" in raw:
        kwargs["from_address"] = _str(raw["from_address"], f"{path}.from_address")
    if "smtp_server" in raw:
        kwargs["smtp_server"] = _str(raw["smtp_server"], f"{path}.smtp_server")
    if "smtp_port" in raw:
        kwargs["smtp_port"] = _int(raw["smtp_port"], f"{path}.smtp_port", minimum=1)
    if "threshold" in raw:
        kwargs["threshold"] = _int(raw["threshold"], f"{path}.threshold", minimum=1)
    return NotificationConfig(**kwargs)


def _build_registry(raw: Mapping[str, Any], path: str) -> RegistryConfig:
    _check_keys(raw, {"base_url", "uid_endpoint_template", "uid_json_path", "timeout",
                      "ca_bundle", "poll_interval"}, path)
    kwargs: dict[str, Any] = {}
    if "base_url" in raw:
        base = raw["base_url"]
        if not isinstance(base, str):
            raise ValidationError(f"{path}.base_url: expected a string")
        kwargs["base_url"] = base
    if "uid_endpoint_template" in raw:
        kwargs["uid_endpoint_template"] = _str(raw["uid_endpoint_template"],
                                               f"{path}.uid_endpoint_template")
    if "uid_json_path" in raw:
        kwargs["uid_json_path"] = _str(raw["uid_json_path"], f"{path}.uid_json_path")
    if "timeout" in raw:
        kwargs["timeout"] = _positive_duration(raw["timeout"], f"{path}.timeout")
    if "poll_interval" in raw:
        kwargs["poll_interval"] = _positive_duration(raw["poll_interval"], f"{path}.poll_interval")
    if raw.get("ca_bundle") is not None:
        kwargs["ca_bundle"] = _str(raw["ca_bundle"], f"{path}.ca_bundle")
    cfg = RegistryConfig(**kwargs)
    if cfg.uid_endpoint_template.count("{account}") != 1:
        raise ValidationError(
            f"{path}.uid_endpoint_template: must contain exactly one {{account}} placeholder")
    return cfg


def _build_commands(raw: Mapping[str, Any], path: str) -> CommandTemplates:
    _check_keys(raw, {"ticket", "storer", "transfer"}, path)
    kwargs = {k: _str(v, f"{path}.{k}") for k, v in raw.items()}
    return CommandTemplates(**kwargs)


def _build_destinations(raw: Mapping[str, Any], path: str) -> DestinationTemplates:
    _check_keys(raw, {"user", "role"}, path)
    kwargs = {k: _str(v, f"{path}.{k}") for k, v in raw.items()}
    templates = DestinationTemplates(**kwargs)
    if templates.user == templates.role:
        raise ValidationError(f"{path}: user and role templates must differ")
    return templates


def _build_simulation(raw: Mapping[str, Any], path: str) -> SimulationConfig:
    _check_keys(raw, {"registry_uids", "fault_schedules"}, path)
    uids: dict[str, int] = {}
    raw_uids = raw.get("registry_uids") or {}
    if not isinstance(raw_uids, Mapping):
        raise ValidationError(f"{path}.registry_uids: expected a mapping")
    for account, uid in raw_uids.items():
        uids[str(account)] = _int(uid, f"{path}.registry_uids.{account}", minimum=0)
    fault_schedules = raw.get("fault_schedules")
    if fault_schedules is not None:
        fault_schedules = _str(fault_schedules, f"{path}.fault_schedules")
    return SimulationConfig(registry_uids=uids, fault_schedules=fault_schedules)


def _build_service(name: str, raw: Mapping[str, Any], path: str) -> ServiceConfig:
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{path}: expected a mapping")
    _check_keys(raw, _SERVICE_KEYS, path)
    overrides = raw.get("overrides") or {}
    if not isinstance(overrides, Mapping):
        raise ValidationError(f"{path}.overrides: expected a mapping")
    for key in overrides:
        _check_override_key(str(key), f"{path}.overrides")
    return ServiceConfig(
        name=name,
        account=_str(_require(raw, "account", path), f"{path}.account"),
        experiment=_str(_require(raw, "experiment", path), f"{path}.experiment"),
        role=_str(_require(raw, "role", path), f"{path}.role"),
        keytab_path=_str(_require(raw, "keytab_path", path), f"{path}.keytab_path"),
        principal_user=_str(_require(raw, "principal_user", path), f"{path}.principal_user"),
        principal_purpose=_str(_require(raw, "principal_purpose", path),
                               f"{path}.principal_purpose"),
        principal_host=_str(_require(raw, "principal_host", path), f"{path}.principal_host"),
        credd_hosts=_str_list(_require(raw, "credd_hosts", path), f"{path}.credd_hosts",
                              allow_empty=False),
        nodes=_str_list(_require(raw, "nodes", path), f"{path}.nodes", allow_empty=False),
        token_issuer=_str(_require(raw, "token_issuer", path), f"{path}.token_issuer"),
        stakeholder_emails=_str_list(raw.get("stakeholder_emails"),
                                     f"{path}.stakeholder_emails"),
        overrides=dict(overrides),
    )


def _check_override_key(key: str, path: str) -> None:
    if key in _OVERRIDE_FLAT:
        return
    head, _, tail = key.partition(".")
    group = _OVERRIDE_GROUPS.get(head)
    if group is None or not tail:
        raise ValidationError(f"{path}.{key}: not an overridable field")
    if tail not in {f.name for f in dataclasses.fields(group)}:
        raise ValidationError(f"{path}.{key}: {head} has no field {tail!r}")


def load_config(path: str) -> GlobalConfig:
    """Load, validate, and freeze the configuration file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    return load_config_text(text)


def load_config_text(text: str) -> GlobalConfig:
    """Parse and validate a configuration document given as a string."""
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ParseError("top level of the config file must be a mapping")
    _check_keys(raw, _GLOBAL_KEYS, "config")

    state_dir = os.environ.get(ENV_STATE_DIR) or _str(
        _require(raw, "state_dir", "config"), "config.state_dir")
    if not os.path.isabs(state_dir):
        raise ValidationError("config.state_dir: must be an absolute path")

    metrics_gateway_url = os.environ.get(ENV_METRICS_GATEWAY_URL) or raw.get("metrics_gateway_url")
    if metrics_gateway_url is not None:
        metrics_gateway_url = _str(metrics_gateway_url, "config.metrics_gateway_url")
        if not re.match(r"^https?://", metrics_gateway_url):
            raise ValidationError("config.metrics_gateway_url: must be an http(s) URL")

    trace_export = raw.get("trace_export")
    if trace_export is not None:
        trace_export = _str(trace_export, "config.trace_export")

    adapter_mode = raw.get("adapter_mode", "real")
    if adapter_mode not in ("real", "simulation"):
        raise ValidationError("config.adapter_mode: must be 'real' or 'simulation'")

    services_raw = _require(raw, "services", "config")
    if not isinstance(services_raw, Mapping) or not services_raw:
        raise ValidationError("config.services: must be non-empty")
    services = {
        str(name): _build_service(str(name), svc_raw, f"config.services.{name}")
        for name, svc_raw in services_raw.items()
    }

    cfg = GlobalConfig(
        state_dir=state_dir,
        tmp_dir=_str(raw.get("tmp_dir", "/tmp"), "config.tmp_dir"),
        kerberos_realm=_str(_require(raw, "kerberos_realm", "config"), "config.kerberos_realm"),
        transfer_parallelism=_int(raw.get("transfer_parallelism", 4),
                                  "config.transfer_parallelism", minimum=1),
        timeouts=_build_timeouts(_section(raw, "timeouts", "config"), "config.timeouts"),
        retry=_build_retry(_section(raw, "retry", "config"), "config.retry"),
        token_lifetimes=_build_lifetimes(_section(raw, "token_lifetimes", "config"),
                                         "config.token_lifetimes"),
        metrics_gateway_url=metrics_gateway_url,
        trace_export=trace_export,
        notification=_build_notification(_section(raw, "notification", "config"),
                                         "config.notification"),
        registry=_build_registry(_section(raw, "registry", "config"), "config.registry"),
        commands=_build_commands(_section(raw, "commands", "config"), "config.commands"),
        destination_templates=_build_destinations(
            _section(raw, "destination_templates", "config"), "config.destination_templates"),
        default_token_path=_str(raw.get("default_token_path", "{tmp_dir}/vt_u{uid}"),
                                "config.default_token_path"),
        token_prefix_check=_bool(raw.get("token_prefix_check", False),
                                 "config.token_prefix_check"),
        oidc_prompt_regex=_str(raw.get("oidc_prompt_regex", r"(?i)(?=.*oidc)(?=.*https?://)"),
                               "config.oidc_prompt_regex"),
        adapter_mode=adapter_mode,
        simulation=_build_simulation(_section(raw, "simulation", "config"), "config.simulation"),
        services=services,
    )

    # Every service must resolve cleanly (override values are type-checked here).
    for name in services:
        resolve_service(cfg, name)
    return cfg


def resolve_service(config: GlobalConfig, name: str) -> ResolvedService:
    """Flatten one service against the effective globals.

    Overrides are shallow and field-level: each key names exactly one field
    (dotted for nested groups, e.g. ``retry.max_attempts``) and replaces it
    wholesale. Resolution is deterministic and idempotent.
    """
    if name not in config.services:
        raise UnknownService(f"unknown service {name!r}")
    svc = config.services[name]

    effective: dict[str, Any] = {
        "transfer_parallelism": config.transfer_parallelism,
        "tmp_dir": config.tmp_dir,
        "default_token_path": config.default_token_path,
        "token_prefix_check": config.token_prefix_check,
        "oidc_prompt_regex": config.oidc_prompt_regex,
        "timeouts": config.timeouts,
        "retry": config.retry,
        "token_lifetimes": config.token_lifetimes,
        "commands": config.commands,
        "destination_templates": config.destination_templates,
    }
    for key, value in svc.overrides.items():
        _apply_override(effective, str(key), value, f"config.services.{name}.overrides")

    # Re-check the invariants that an override could have broken.
    path = f"config.services.{name}"
    if effective["transfer_parallelism"] < 1:
        raise ValidationError(f"{path}.overrides.transfer_parallelism: must be >= 1")
    _check_lifetime_order(effective["token_lifetimes"], f"{path}.overrides.token_lifetimes")

    return ResolvedService(
        name=svc.name,
        account=svc.account,
        experiment=svc.experiment,
        role=svc.role,
        keytab_path=svc.keytab_path,
        principal_user=svc.principal_user,
        principal_purpose=svc.principal_purpose,
        principal_host=svc.principal_host,
        kerberos_realm=config.kerberos_realm,
        credd_hosts=svc.credd_hosts,
        nodes=svc.nodes,
        token_issuer=svc.token_issuer,
        stakeholder_emails=svc.stakeholder_emails,
        state_dir=config.state_dir,
        **effective,
    )


def _apply_override(effective: dict[str, Any], key: str, value: Any, path: str) -> None:
    _check_override_key(key, path)
    if key in _OVERRIDE_FLAT:
        if key == "transfer_parallelism":
            effective[key] = _int(value, f"{path}.{key}", minimum=1)
        elif key == "token_prefix_check":
            effective[key] = _bool(value, f"{path}.{key}")
        else:
            effective[key] = _str(value, f"{path}.{key}")
        return
    group_name, _, field_name = key.partition(".")
    group = effective[group_name]
    if group_name == "retry" and field_name == "max_attempts":
        new_value: Any = _int(value, f"{path}.{key}", minimum=1)
    elif group_name in ("timeouts", "token_lifetimes") or key == "retry.base_backoff":
        new_value = _positive_duration(value, f"{path}.{key}")
    else:
        new_value = _str(value, f"{path}.{key}")
    effective[group_name] = dataclasses.replace(group, **{field_name: new_value})


def canonical_dict(config: GlobalConfig) -> dict[str, Any]:
    """The canonical plain-data form of a config: defaults filled, durations
    in seconds. ``load_config_text(write_back(cfg))`` reproduces ``cfg``."""
    out: dict[str, Any] = {
        "state_dir": config.state_dir,
        "tmp_dir": config.tmp_dir,
        "kerberos_realm": config.kerberos_realm,
        "transfer_parallelism": config.transfer_parallelism,
        "timeouts": {
            "ticket": _format_duration(config.timeouts.ticket),
            "vault_store": _format_duration(config.timeouts.vault_store),
            "transfer": _format_duration(config.timeouts.transfer),
            "registry_fetch": _format_duration(config.timeouts.registry_fetch),
        },
        "retry": {
            "max_attempts": config.retry.max_attempts,
            "base_backoff": _format_duration(config.retry.base_backoff),
        },
        "token_lifetimes": {
            "bearer": _format_duration(config.token_lifetimes.bearer),
            "vault_local": _format_duration(config.token_lifetimes.vault_local),
            "vault_credd": _format_duration(config.token_lifetimes.vault_credd),
        },
        "notification": {
            "admin_recipients": list(config.notification.admin_recipients),
            "from_address": config.notification.from_address,
            "smtp_server": config.notification.smtp_server,
            "smtp_port": config.notification.smtp_port,
            "threshold": config.notification.threshold,
        },
        "registry": {
            "base_url": config.registry.base_url,
            "uid_endpoint_template": config.registry.uid_endpoint_template,
            "uid_json_path": config.registry.uid_json_path,
            "timeout": _format_duration(config.registry.timeout),
            "ca_bundle": config.registry.ca_bundle,
            "poll_interval": _format_duration(config.registry.poll_interval),
        },
        "commands": {
            "ticket": config.commands.ticket,
            "storer": config.commands.storer,
            "transfer": config.commands.transfer,
        },
        "destination_templates": {
            "user": config.destination_templates.user,
            "role": config.destination_templates.role,
        },
        "default_token_path": config.default_token_path,
        "token_prefix_check": config.token_prefix_check,
        "oidc_prompt_regex": config.oidc_prompt_regex,
        "adapter_mode": config.adapter_mode,
        "simulation": {
            "registry_uids": dict(config.simulation.registry_uids),
            "fault_schedules": config.simulation.fault_schedules,
        },
        "services": {
            name: {
                "account": svc.account,
                "experiment": svc.experiment,
                "role": svc.role,
                "keytab_path": svc.keytab_path,
                "principal_user": svc.principal_user,
                "principal_purpose": svc.principal_purpose,
                "principal_host": svc.principal_host,
                "credd_hosts": list(svc.credd_hosts),
                "nodes": list(svc.nodes),
                "token_issuer": svc.token_issuer,
                "stakeholder_emails": list(svc.stakeholder_emails),
                "overrides": dict(svc.overrides),
            }
            for name, svc in sorted(config.services.items())
        },
    }
    if config.metrics_gateway_url is not None:
        out["metrics_gateway_url"] = config.metrics_gateway_url
    if config.trace_export is not None:
        out["trace_export"] = config.trace_export
    return out


def write_back(config: GlobalConfig) -> str:
    """Serialize a config to its canonical YAML form."""
    return yaml.safe_dump(canonical_dict(config), sort_keys=True, default_flow_style=False)
