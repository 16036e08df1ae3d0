"""Declarative service configuration: one strict YAML file, global defaults,
per-service overrides.

The frozen dataclasses below are the schema: each field is declared once, and
loading and override checks are derived from them. The file is
loaded once, validated eagerly, and frozen. A key no dataclass declares is an
error, a field with no default is required, and a field's type picks its
validator: ``int`` an integer >= 1, ``float`` a positive duration, ``str`` a
non-empty string, ``Optional[str]`` that or null, ``bool`` true or false,
``tuple[str, ...]`` a list of distinct non-empty strings, and a nested
dataclass a mapping checked the same way, where null means all its defaults.
A field whose rule differs from its type states that rule on itself, as
``Annotated[type, rule]``, and a group whose fields share a rule checks it in
its ``__post_init__``, so the rule holds however the group is built. Every
message names the failing field by its path. The fields of :class:`Settings`
are the ones a service may override: :class:`GlobalConfig` inherits them as
the global defaults, and workers receive a :class:`ResolvedService`, one
capability set with those settings resolved, every override applied.

Every service template (``kinit``, the storer, both destinations and
``default_token_path``) may name any of :data:`SERVICE_PLACEHOLDERS`, the keys
of the one map :func:`placeholders` builds per service; the storer may also
name its per-call ``{credd}``. The transfer command names
``{local}`` ``{node}`` ``{remote}``, the UID endpoint exactly one
``{account}``. A template naming any other placeholder fails the load.

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
from typing import Annotated, Any, Callable, Mapping, NamedTuple, Optional

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
_SERVICE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

# libyaml's C parser when PyYAML was built with it, else the pure-Python one.
# Both feed the same Python resolver and SafeConstructor, so a document
# loads to the same objects either way; the C one is about ten times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# The values every service template may name: the keys of placeholders().
SERVICE_PLACEHOLDERS = ("service", "account", "experiment", "role", "issuer", "keytab",
                        "principal", "cache", "tmp_dir", "uid", "vault_local_seconds",
                        "vault_credd_seconds")
STORER_PLACEHOLDERS = (*SERVICE_PLACEHOLDERS, "credd")
TRANSFER_PLACEHOLDERS = ("local", "node", "remote")
UID_ENDPOINT_PLACEHOLDERS = ("account",)


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


@functools.cache
def command_words(template: str) -> tuple[str, ...]:
    """A command template split into words with shell quoting rules, once per
    distinct template: config load, every command run and the simulation's
    routing share the split."""
    return tuple(shlex.split(template))


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


def _optional(check: _Check) -> _Check:
    return lambda value, path: None if value is None else check(value, path)


_str = _rule(lambda value: isinstance(value, str) and value != "", "expected a non-empty string")
_bool = _rule(lambda value: isinstance(value, bool), "expected a boolean (true or false)")
_absolute = _rule(os.path.isabs, "must be an absolute path", _str)
_is_http = re.compile(r"^https?://").match
_http_url = _optional(_rule(_is_http, "must be an http(s) URL", _str))
_trace_export = _optional(_rule(lambda dest: _is_http(dest) or os.path.isabs(dest),
                                "must be an http(s) URL or an absolute path", _str))
_base_url = _rule(lambda url: url == "" or _is_http(url), "must be empty or an http(s) URL",
                  _rule(lambda url: isinstance(url, str), "expected a string"))
_adapter_mode = _rule(lambda mode: mode in ("real", "simulation"),
                      "must be 'real' or 'simulation'")


def _template(names: tuple[str, ...], command: bool = False,
              absolute: bool = False) -> _Check:
    """A template that renders from the placeholders ``names`` alone (``uid`` is an
    integer, ``tmp_dir``, ``cache`` and ``keytab`` absolute paths, the rest
    strings); a command template must also split into words with shell quoting
    rules, as its renderer splits it, and a path template must render an
    absolute path."""
    sample = {name: 0 if name == "uid" else f"/{name}" if name in ("tmp_dir", "cache", "keytab")
              else name for name in names}

    def check(value: Any, path: str) -> str:
        value = _str(value, path)
        try:
            for word in command_words(value) if command else (value,):
                rendered = word.format(**sample)
        except KeyError as exc:
            allowed = " ".join(f"{{{name}}}" for name in names)
            raise ValidationError(f"{path}: unknown placeholder {{{exc.args[0]}}} "
                                  f"(allowed: {allowed})") from None
        except (ValueError, IndexError, AttributeError) as exc:
            raise ValidationError(f"{path}: cannot render {value!r}: {exc}") from None
        if absolute and not os.path.isabs(rendered):
            raise ValidationError(f"{path}: {value!r} must render an absolute path")
        return value
    return check


_service_command = _template(SERVICE_PLACEHOLDERS, command=True)
_service_path = _template(SERVICE_PLACEHOLDERS, absolute=True)
_uid_endpoint = _rule(lambda template: template.count("{account}") == 1,
                      "must contain exactly one {account} placeholder",
                      _template(UID_ENDPOINT_PLACEHOLDERS))


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


_non_empty_list = _rule(bool, "must be non-empty", _str_list)


def _int(value: Any, path: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer")
    if value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}")
    return value


def _mapping(value: Any, path: str) -> Mapping[Any, Any]:
    """A mapping; null is an empty one, any other non-mapping an error."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ValidationError(f"{path}: expected a mapping")
    return value


def _uid_map(value: Any, path: str) -> dict[str, int]:
    return {str(account): _int(uid, f"{path}.{account}", minimum=0)
            for account, uid in _mapping(value, path).items()}


_BY_TYPE: dict[Any, _Check] = {
    int: _int,
    float: _rule(lambda seconds: seconds > 0, "must be > 0", parse_duration),
    str: _str,
    bool: _bool,
    tuple[str, ...]: _str_list,
    Optional[str]: _optional(_str),
}


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

    def __post_init__(self) -> None:
        if not self.bearer < self.vault_local < self.vault_credd:
            raise ValidationError(
                "lifetimes must satisfy bearer < vault_local < vault_credd "
                f"(got {self.bearer} / {self.vault_local} / {self.vault_credd})")


@dataclass(frozen=True)
class NotificationConfig:
    admin_recipients: tuple[str, ...] = ()
    from_address: str = "managed-tokens@localhost"
    smtp_server: str = "localhost"
    smtp_port: int = 25
    threshold: int = 3


@dataclass(frozen=True)
class RegistryConfig:
    base_url: Annotated[str, _base_url] = ""
    uid_endpoint_template: Annotated[str, _uid_endpoint] = "/getUserInfo?username={account}"
    uid_json_path: str = "ferry_output.uid"
    timeout: float = 30.0
    ca_bundle: Annotated[Optional[str], _optional(_absolute)] = None


@dataclass(frozen=True)
class CommandTemplates:
    """Shell-style templates for the external commands, rendered per call."""

    ticket: Annotated[str, _service_command] = "kinit -k -t {keytab} -c {cache} {principal}"
    storer: Annotated[str, _template(STORER_PLACEHOLDERS, command=True)] = (
        "condor_vault_storer {service}")
    transfer: Annotated[str, _template(TRANSFER_PLACEHOLDERS, command=True)] = (
        "rsync -p -e ssh {local} {node}:{remote}")


@dataclass(frozen=True)
class DestinationTemplates:
    """The two per-node token locations: one keyed only by UID (per-user
    discovery convention), one keyed by UID, issuer, and role."""

    user: Annotated[str, _service_path] = "{tmp_dir}/vt_u{uid}"
    role: Annotated[str, _service_path] = "{tmp_dir}/vt_u{uid}-{issuer}_{role}"

    def __post_init__(self) -> None:
        if self.user == self.role:
            raise ValidationError("user and role templates must differ")


@dataclass(frozen=True)
class SimulationConfig:
    """Settings for the built-in rehearsal adapters (adapter_mode: simulation)."""

    registry_uids: Annotated[Mapping[str, int], _uid_map] = field(default_factory=dict)
    fault_schedules: Annotated[Optional[str], _optional(_absolute)] = None


@dataclass(frozen=True)
class ServiceConfig:
    # The service's key under ``services``, not a key inside its block.
    name: str = field(metadata={"from_key": True})
    account: str
    experiment: str
    role: str
    keytab_path: Annotated[str, _absolute]
    principal_user: str
    principal_purpose: str
    principal_host: str
    credd_hosts: Annotated[tuple[str, ...], _non_empty_list]
    nodes: Annotated[tuple[str, ...], _non_empty_list]
    token_issuer: str
    stakeholder_emails: tuple[str, ...] = ()
    overrides: Annotated[Mapping[str, Any], _overrides] = field(default_factory=dict)


@dataclass(frozen=True, kw_only=True)
class Settings:
    """The settings a service may override: a flat field by its name, a member
    of a group by ``group.member``. One transfer adapter serves every service,
    so ``commands.transfer`` is run-wide all the same."""

    tmp_dir: Annotated[str, _absolute] = "/tmp"
    transfer_parallelism: int = 4
    timeouts: StageTimeouts = field(default_factory=StageTimeouts)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    token_lifetimes: TokenLifetimes = field(default_factory=TokenLifetimes)
    commands: CommandTemplates = field(default_factory=CommandTemplates)
    destination_templates: DestinationTemplates = field(default_factory=DestinationTemplates)
    default_token_path: Annotated[str, _service_path] = "{tmp_dir}/vt_u{uid}"
    token_prefix_check: bool = False
    oidc_prompt_regex: Annotated[str, _regex] = r"(?i)(?=.*oidc)(?=.*https?://)"


@dataclass(frozen=True, kw_only=True)
class GlobalConfig(Settings):
    # A non-empty environment variable named by "env" wins over the file.
    state_dir: Annotated[str, _absolute] = field(metadata={"env": ENV_STATE_DIR})
    kerberos_realm: str
    services: Annotated[Mapping[str, ServiceConfig], _services]
    metrics_gateway_url: Annotated[Optional[str], _http_url] = field(
        default=None, metadata={"env": ENV_METRICS_GATEWAY_URL})
    trace_export: Annotated[Optional[str], _trace_export] = None
    notification: NotificationConfig = field(default_factory=NotificationConfig)
    registry: RegistryConfig = field(default_factory=RegistryConfig)
    adapter_mode: Annotated[str, _adapter_mode] = "real"
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


def placeholders(svc: ResolvedService, uid: int) -> dict[str, Any]:
    """The values every service template of ``svc`` may name, for the
    account's ``uid``, keyed as :data:`SERVICE_PLACEHOLDERS`. ``{cache}`` is
    the service's own Kerberos cache, so concurrent services never share
    credentials; ``{uid}`` stays an integer."""
    return {
        "service": svc.name,
        "account": svc.account,
        "experiment": svc.experiment,
        "role": svc.role,
        "issuer": svc.token_issuer,
        "keytab": svc.keytab_path,
        "principal": (f"{svc.principal_user}/{svc.principal_purpose}/{svc.principal_host}"
                      f"@{svc.kerberos_realm}"),
        "cache": os.path.join(svc.state_dir, "krb5cc", svc.name),
        "tmp_dir": svc.tmp_dir,
        "uid": uid,
        "vault_local_seconds": str(int(svc.token_lifetimes.vault_local)),
        "vault_credd_seconds": str(int(svc.token_lifetimes.vault_credd)),
    }


def _services(value: Any, path: str) -> dict[str, ServiceConfig]:
    if not isinstance(value, Mapping) or not value:
        raise ValidationError(f"{path}: must be non-empty")
    for name in value:  # a name is one path component of the cache and staging paths
        if not _SERVICE_NAME.fullmatch(str(name)):
            raise ValidationError(f"{path}: service name {str(name)!r} must match "
                                  f"{_SERVICE_NAME.pattern}")
    return {str(name): _build(ServiceConfig, raw, f"{path}.{name}", name=str(name))
            for name, raw in value.items()}


def _overrides(value: Any, path: str) -> dict[str, Any]:
    return {str(key): _override_check(str(key), f"{path}.{key}")(raw, f"{path}.{key}")
            for key, raw in _mapping(value, path).items()}


class _Field(NamedTuple):
    check: _Check
    required: bool
    env: Optional[str]
    group: Optional[type]  # the nested dataclass, for a group field


@functools.cache
def _schema(cls: type) -> dict[str, _Field]:
    """The document keys of dataclass ``cls``, each with its validator: the
    rule its annotation carries, else its group's or its type's."""
    hints = typing.get_type_hints(cls, include_extras=True)
    schema = {}
    for f in dataclasses.fields(cls):
        if f.metadata.get("from_key"):
            continue
        hint = hints[f.name]
        group = hint if dataclasses.is_dataclass(hint) else None
        check = (hint.__metadata__[0] if typing.get_origin(hint) is Annotated
                 else functools.partial(_section, group) if group else _BY_TYPE[hint])
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
    try:
        return cls(**given)
    except ValidationError as exc:  # a group's own rule, raised without a path
        raise ValidationError(f"{path}: {exc}") from None


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
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
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
    # Every service must resolve cleanly (overrides must keep each group's rule).
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
    groups: dict[str, dict[str, Any]] = {}
    for key, value in svc.overrides.items():
        head, _, member = key.partition(".")
        if member:
            groups.setdefault(head, {})[member] = value
        else:
            values[head] = value
    for head, members in groups.items():
        # One replace per group: its rule sees every member the service overrides.
        try:
            values[head] = dataclasses.replace(values[head], **members)
        except ValidationError as exc:
            raise ValidationError(f"config.services.{name}.overrides.{head}: {exc}") from None
    return ResolvedService(**{f.name: values[f.name] for f in dataclasses.fields(ResolvedService)})
