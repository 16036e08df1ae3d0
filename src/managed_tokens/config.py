"""Declarative service configuration: one strict YAML file, global defaults,
per-service overrides.

The frozen dataclasses below are the schema: each field is declared once, and
loading, override checks and write-back are derived from them. The file is
loaded once, validated eagerly, and frozen. A key no dataclass declares is an
error, a field with no default is required, and a field's type picks its
validator: ``int`` an integer >= 1, ``float`` a positive duration, ``str`` a
non-empty string, ``Optional[str]`` that or null, ``bool`` true or false,
``tuple[str, ...]`` a list of distinct non-empty strings, and a nested
dataclass a mapping checked the same way, where null means all its defaults.
``_CHECKS`` holds the few fields whose rule differs from their type, and
``_INVARIANTS`` the rules across one group's fields. Every message names the
failing field by its path. The fields of :class:`Settings` are the ones a
service may override: :class:`GlobalConfig` inherits them as the global
defaults, and workers receive a :class:`ResolvedService`, one capability set
with those settings resolved, every per-service override already applied.

Durations may be written as bare seconds (``180``) or with a unit suffix
(``"30s"``, ``"3h"``, ``"7d"``); they are normalized to float seconds.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import re
import shlex
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Optional

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


@dataclass(frozen=True)
class StageTimeouts:
    ticket: float = 60.0
    vault_store: float = 180.0
    transfer: float = 30.0


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


@dataclass(frozen=True)
class CommandTemplates:
    """Shell-style templates for the external commands, rendered per call."""

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
    # The service's key under ``services``, not a key inside its block.
    name: str = field(metadata={"from_key": True})
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


@dataclass(frozen=True, kw_only=True)
class Settings:
    """The settings a service may override: a flat field by its name, a member
    of a group by ``group.member``. One transfer adapter serves every service,
    so ``commands.transfer`` is run-wide all the same."""

    tmp_dir: str = "/tmp"
    transfer_parallelism: int = 4
    timeouts: StageTimeouts = field(default_factory=StageTimeouts)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    token_lifetimes: TokenLifetimes = field(default_factory=TokenLifetimes)
    commands: CommandTemplates = field(default_factory=CommandTemplates)
    destination_templates: DestinationTemplates = field(default_factory=DestinationTemplates)
    default_token_path: str = "{tmp_dir}/vt_u{uid}"
    token_prefix_check: bool = False
    oidc_prompt_regex: str = r"(?i)(?=.*oidc)(?=.*https?://)"


@dataclass(frozen=True, kw_only=True)
class GlobalConfig(Settings):
    # A non-empty environment variable named by "env" wins over the file.
    state_dir: str = field(metadata={"env": ENV_STATE_DIR})
    kerberos_realm: str
    services: Mapping[str, ServiceConfig]
    metrics_gateway_url: Optional[str] = field(default=None,
                                               metadata={"env": ENV_METRICS_GATEWAY_URL})
    trace_export: Optional[str] = None
    notification: NotificationConfig = field(default_factory=NotificationConfig)
    registry: RegistryConfig = field(default_factory=RegistryConfig)
    adapter_mode: str = "real"
    simulation: SimulationConfig = field(default_factory=SimulationConfig)


@dataclass(frozen=True)
class ResolvedService(ServiceConfig, Settings):
    """One service's own fields, the run-wide ``kerberos_realm`` and
    ``state_dir``, and its :class:`Settings` with every global default and
    per-service override applied.

    Self-contained: downstream stages never consult GlobalConfig again.
    """

    kerberos_realm: str = field(kw_only=True)
    state_dir: str = field(kw_only=True)


# The placeholders each template's renderer supplies; a template naming any
# other fails the load.
TICKET_PLACEHOLDERS = ("keytab", "principal", "cache", "service")
STORER_PLACEHOLDERS = (*TICKET_PLACEHOLDERS, "credd", "account", "experiment", "role",
                       "issuer", "vault_local_seconds", "vault_credd_seconds")
TRANSFER_PLACEHOLDERS = ("local", "node", "remote")
DESTINATION_PLACEHOLDERS = ("tmp_dir", "uid", "issuer", "role", "service", "account")
TOKEN_PATH_PLACEHOLDERS = ("tmp_dir", "uid")
UID_ENDPOINT_PLACEHOLDERS = ("account",)

_Check = Callable[[Any, str], Any]


def _rule(ok: Callable[[Any], Any], problem: str,
          check: _Check = lambda value, path: value) -> _Check:
    """Run ``check``, then fail with ``problem`` unless ``ok`` holds for its result."""
    def checked(value: Any, path: str) -> Any:
        value = check(value, path)
        if not ok(value):
            raise ValidationError(f"{path}: {problem}")
        return value
    return checked


_str = _rule(lambda value: isinstance(value, str) and value != "", "expected a non-empty string")
_bool = _rule(lambda value: isinstance(value, bool), "expected a boolean (true or false)")
_absolute = _rule(os.path.isabs, "must be an absolute path", _str)


def _template(placeholders: tuple[str, ...], command: bool = False,
              absolute: bool = False) -> _Check:
    """A template that renders from ``placeholders`` alone (``uid`` is an
    integer, ``tmp_dir`` an absolute path, the rest strings); a command
    template must also split into words with shell quoting rules, as its
    renderer splits it, and a path template must render an absolute path."""
    sample = {name: 0 if name == "uid" else name for name in placeholders}
    if "tmp_dir" in sample:
        sample["tmp_dir"] = "/tmp"

    def check(value: Any, path: str) -> str:
        value = _str(value, path)
        try:
            for word in shlex.split(value) if command else (value,):
                rendered = word.format(**sample)
        except KeyError as exc:
            allowed = " ".join(f"{{{name}}}" for name in placeholders)
            raise ValidationError(f"{path}: unknown placeholder {{{exc.args[0]}}} "
                                  f"(allowed: {allowed})") from None
        except (ValueError, IndexError, AttributeError) as exc:
            raise ValidationError(f"{path}: cannot render {value!r}: {exc}") from None
        if absolute and not os.path.isabs(rendered):
            raise ValidationError(f"{path}: {value!r} must render an absolute path")
        return value
    return check


def _regex(value: Any, path: str) -> str:
    value = _str(value, path)
    try:
        re.compile(value)
    except re.error as exc:
        raise ValidationError(f"{path}: cannot compile {value!r}: {exc}") from None
    return value


def _str_list(value: Any, path: str) -> tuple[str, ...]:
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{path}: expected a list of strings")
    out = tuple(_str(v, f"{path}[{i}]") for i, v in enumerate(value))
    if len(set(out)) != len(out):
        raise ValidationError(f"{path}: contains duplicates")
    return out


def _int(value: Any, path: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer")
    if value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}")
    return value


def _optional(check: _Check) -> _Check:
    return lambda value, path: None if value is None else check(value, path)


def _mapping(value: Any, path: str) -> Mapping[Any, Any]:
    """A mapping; null is an empty one, any other non-mapping an error."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ValidationError(f"{path}: expected a mapping")
    return value


_BY_TYPE: dict[Any, _Check] = {
    int: _int,
    float: _rule(lambda seconds: seconds > 0, "must be > 0", parse_duration),
    str: _str,
    bool: _bool,
    tuple[str, ...]: _str_list,
    Optional[str]: _optional(_str),
}


def _uid_map(value: Any, path: str) -> dict[str, int]:
    return {str(account): _int(uid, f"{path}.{account}", minimum=0)
            for account, uid in _mapping(value, path).items()}


def _services(value: Any, path: str) -> dict[str, ServiceConfig]:
    if not isinstance(value, Mapping) or not value:
        raise ValidationError(f"{path}: must be non-empty")
    return {str(name): _build(ServiceConfig, raw, f"{path}.{name}", name=str(name))
            for name, raw in value.items()}


def _overrides(value: Any, path: str) -> dict[str, Any]:
    return {str(key): _override_check(str(key), f"{path}.{key}")(raw, f"{path}.{key}")
            for key, raw in _mapping(value, path).items()}


_CHECKS: dict[tuple[type, str], _Check] = {
    (GlobalConfig, "state_dir"): _absolute,
    (GlobalConfig, "tmp_dir"): _absolute,
    (GlobalConfig, "metrics_gateway_url"): _optional(
        _rule(re.compile(r"^https?://").match, "must be an http(s) URL", _str)),
    (GlobalConfig, "adapter_mode"): _rule(lambda mode: mode in ("real", "simulation"),
                                          "must be 'real' or 'simulation'"),
    (GlobalConfig, "services"): _services,
    (GlobalConfig, "default_token_path"): _template(TOKEN_PATH_PLACEHOLDERS, absolute=True),
    (GlobalConfig, "oidc_prompt_regex"): _regex,
    (CommandTemplates, "ticket"): _template(TICKET_PLACEHOLDERS, command=True),
    (CommandTemplates, "storer"): _template(STORER_PLACEHOLDERS, command=True),
    (CommandTemplates, "transfer"): _template(TRANSFER_PLACEHOLDERS, command=True),
    (DestinationTemplates, "user"): _template(DESTINATION_PLACEHOLDERS, absolute=True),
    (DestinationTemplates, "role"): _template(DESTINATION_PLACEHOLDERS, absolute=True),
    (RegistryConfig, "uid_endpoint_template"): _rule(
        lambda template: template.count("{account}") == 1,
        "must contain exactly one {account} placeholder", _template(UID_ENDPOINT_PLACEHOLDERS)),
    (RegistryConfig, "base_url"): _rule(lambda url: isinstance(url, str), "expected a string"),
    (SimulationConfig, "registry_uids"): _uid_map,
    (ServiceConfig, "credd_hosts"): _rule(bool, "must be non-empty", _str_list),
    (ServiceConfig, "nodes"): _rule(bool, "must be non-empty", _str_list),
    (ServiceConfig, "overrides"): _overrides,
}


def _lifetime_order(lifetimes: TokenLifetimes, path: str) -> None:
    if not lifetimes.bearer < lifetimes.vault_local < lifetimes.vault_credd:
        raise ValidationError(
            f"{path}: lifetimes must satisfy bearer < vault_local < vault_credd "
            f"(got {lifetimes.bearer} / {lifetimes.vault_local} / {lifetimes.vault_credd})"
        )


def _distinct_destinations(templates: DestinationTemplates, path: str) -> None:
    if templates.user == templates.role:
        raise ValidationError(f"{path}: user and role templates must differ")


_INVARIANTS: dict[type, Callable[[Any, str], None]] = {
    TokenLifetimes: _lifetime_order,
    DestinationTemplates: _distinct_destinations,
}


class _Field(NamedTuple):
    check: _Check
    required: bool
    env: Optional[str]
    group: Optional[type]  # the nested dataclass, for a group field


@functools.cache
def _schema(cls: type) -> dict[str, _Field]:
    """The document keys of dataclass ``cls``, each with its validator."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        if f.metadata.get("from_key"):
            continue
        hint = hints[f.name]
        group = hint if dataclasses.is_dataclass(hint) else None
        check = _CHECKS.get((cls, f.name)) or (
            functools.partial(_section, group) if group else _BY_TYPE[hint])
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        schema[f.name] = _Field(check, required, f.metadata.get("env"), group)
    return schema


def _section(cls: type, value: Any, path: str) -> Any:
    return _build(cls, {} if value is None else value, path)


def _build(cls: type, raw: Any, path: str, **given: Any) -> Any:
    """Validate the mapping ``raw`` against dataclass ``cls`` and build it."""
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{path}: expected a mapping")
    schema = _schema(cls)
    unknown = sorted(str(key) for key in raw if key not in schema)
    if unknown:
        raise ValidationError(f"{path}: unknown key(s) {', '.join(unknown)}")
    for name, spec in schema.items():
        value = (spec.env and os.environ.get(spec.env)) or raw.get(name)
        if value is None and spec.required:
            raise ValidationError(f"{path}.{name}: required field is missing")
        if value is not None or name in raw:
            given[name] = spec.check(value, f"{path}.{name}")
    built = cls(**given)
    _check_invariants(built, path)
    return built


def _check_invariants(value: Any, path: str) -> None:
    invariant = _INVARIANTS.get(type(value))
    if invariant is not None:
        invariant(value, path)


def _override_check(key: str, path: str) -> _Check:
    """The validator of the overridable field named by the dotted ``key``."""
    head, dot, member = key.partition(".")
    overridable = head in {f.name for f in dataclasses.fields(Settings)}
    spec = _schema(GlobalConfig)[head] if overridable else None
    if spec is None or key == "commands.transfer" or (dot if spec.group is None else not member):
        raise ValidationError(f"{path}: not an overridable field")
    if spec.group is None:
        return spec.check
    member_spec = _schema(spec.group).get(member)
    if member_spec is None:
        raise ValidationError(f"{path}: {head} has no field {member!r}")
    return member_spec.check


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
    cfg = _build(GlobalConfig, raw, "config")
    # Every service must resolve cleanly (overrides must keep the invariants).
    for name in cfg.services:
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
    values = {**vars(config), **vars(svc)}
    for key, value in svc.overrides.items():
        head, _, member = key.partition(".")
        values[head] = dataclasses.replace(values[head], **{member: value}) if member else value
    # Re-check the invariants of every group an override changed.
    for head in dict.fromkeys(key.partition(".")[0] for key in svc.overrides):
        _check_invariants(values[head], f"config.services.{name}.overrides.{head}")
    return ResolvedService(**{f.name: values[f.name] for f in dataclasses.fields(ResolvedService)})


def canonical_dict(config: GlobalConfig) -> dict[str, Any]:
    """The canonical plain-data form of a config: defaults filled, durations
    in seconds. ``load_config_text(write_back(cfg))`` reproduces ``cfg``."""
    return _plain(config)


def _plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value) if not f.metadata.get("from_key")}
    if isinstance(value, Mapping):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, float):  # every float field is a duration
        return int(value) if value.is_integer() else value
    return value


def write_back(config: GlobalConfig) -> str:
    """Serialize a config to its canonical YAML form."""
    return yaml.safe_dump(canonical_dict(config), sort_keys=True, default_flow_style=False)
