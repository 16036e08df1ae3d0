"""Per-service credential acquisition and staging.

Flow per service: obtain a Kerberos ticket from the service's keytab into a
per-service cache, then run the external vault-storer command once per credd
host, and finally move the vault token it wrote at the shared per-user
default location into per-service staging so the next service's token cannot
collide with it. The storer tool cannot run concurrently: the caller runs
every :func:`store_vault_tokens` call of a run on one thread.

Command lines are config templates; each invocation also carries the
designations downstream tools expect in its environment (credential cache,
credd host, the shared default token path, and the intended token lifetimes
in seconds).
"""

from __future__ import annotations

import logging
import os
import re
import shlex
import shutil
from dataclasses import dataclass
from typing import Mapping, Optional

from .config import ResolvedService
from .interfaces import Clock, CommandRunner, Invocation

logger = logging.getLogger(__name__)

KRB5_CACHE_ENV = "KRB5CCNAME"
CREDD_HOST_ENV = "_condor_CREDD_HOST"
DEFAULT_TOKEN_PATH_ENV = "MANAGED_TOKENS_DEFAULT_TOKEN_PATH"
VAULT_LOCAL_SECONDS_ENV = "MANAGED_TOKENS_VAULT_LOCAL_SECONDS"
VAULT_CREDD_SECONDS_ENV = "MANAGED_TOKENS_VAULT_CREDD_SECONDS"

# Kerberos ticket lifetime is site policy, not ours to choose; 24 h is the
# common kinit default and only informs TicketCache.valid_until.
TICKET_LIFETIME = 24 * 3600.0

ACCEPTED_TOKEN_PREFIXES = ("hvs.", "s.")


class CredentialError(Exception):
    """Base class for credential-stage failures."""


class InvalidPrincipal(CredentialError):
    """A principal component is empty."""


class KeytabMissing(CredentialError):
    """The service's keytab file does not exist."""


class CommandFailed(CredentialError):
    """An external command exited non-zero; stderr is carried along."""

    def __init__(self, invocation: Invocation):
        super().__init__(
            f"command {' '.join(invocation.argv)} exited {invocation.exit_code}: "
            f"{invocation.stderr.strip()}"
        )
        self.invocation = invocation


class TokenNotProduced(CredentialError):
    """The storer succeeded but left no token at the shared default location."""


class InteractiveAuthRequired(CredentialError):
    """The storer asked for an interactive OIDC login; onboarding has not
    been completed by an operator; the prompt is surfaced verbatim."""

    def __init__(self, prompt_line: str):
        super().__init__(f"interactive authentication required: {prompt_line.strip()}")
        self.prompt_line = prompt_line


@dataclass(frozen=True)
class KerberosPrincipal:
    user: str
    purpose: str
    host: str
    realm: str


@dataclass(frozen=True)
class TicketCache:
    service: str
    cache_path: str
    acquired_at: float
    valid_until: float

    def env(self) -> dict[str, str]:
        """Environment designation downstream commands inherit."""
        return {KRB5_CACHE_ENV: f"FILE:{self.cache_path}"}


@dataclass(frozen=True)
class VaultTokenFile:
    service: str
    path: str
    acquired_at: float
    lifetime: float
    uid: int


@dataclass(frozen=True)
class TokenCheck:
    exists: bool
    non_empty: bool
    perms_ok: bool
    prefix_ok: bool

    @property
    def ok(self) -> bool:
        return self.exists and self.non_empty and self.perms_ok and self.prefix_ok


def render_principal(principal: KerberosPrincipal) -> str:
    """Render the robot-credential name: user/purpose/host@realm."""
    for name in ("user", "purpose", "host", "realm"):
        if not getattr(principal, name):
            raise InvalidPrincipal(f"principal {name} must be non-empty")
    return f"{principal.user}/{principal.purpose}/{principal.host}@{principal.realm}"


def service_principal(svc: ResolvedService) -> KerberosPrincipal:
    return KerberosPrincipal(
        user=svc.principal_user,
        purpose=svc.principal_purpose,
        host=svc.principal_host,
        realm=svc.kerberos_realm,
    )


def render_command(template: str, values: Mapping[str, str]) -> tuple[str, ...]:
    """Split a command template into argv with shell quoting rules (so
    ``-e "ssh -o ControlMaster=auto"`` is one argument), then substitute
    placeholders per token (so a value containing spaces stays one argument)."""
    try:
        tokens = shlex.split(template)
    except ValueError as exc:
        raise CredentialError(f"cannot split command template {template!r}: {exc}")
    argv = []
    for token in tokens:
        try:
            argv.append(token.format(**values))
        except KeyError as exc:
            raise CredentialError(f"unknown placeholder {exc} in command template {template!r}")
    return tuple(argv)


def ticket_cache_path(svc: ResolvedService) -> str:
    return os.path.join(svc.state_dir, "krb5cc", svc.name)


def staging_path(svc: ResolvedService) -> str:
    return os.path.join(svc.state_dir, "tokens", svc.name, "vaulttoken")


def default_token_path(svc: ResolvedService, uid: int) -> str:
    return svc.default_token_path.format(tmp_dir=svc.tmp_dir, uid=uid)


def acquire_ticket(svc: ResolvedService, runner: CommandRunner, clock: Clock) -> TicketCache:
    """Obtain a Kerberos ticket for the service from its keytab.

    The cache path is private to the service, so concurrent pipelines never
    share credentials.
    """
    if not os.path.isfile(svc.keytab_path):
        raise KeytabMissing(f"keytab not found at {svc.keytab_path}")
    cache_dir = os.path.join(svc.state_dir, "krb5cc")
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    cache = ticket_cache_path(svc)
    principal = render_principal(service_principal(svc))
    argv = render_command(
        svc.commands.ticket,
        {"keytab": svc.keytab_path, "principal": principal, "cache": cache,
         "service": svc.name},
    )
    inv = runner.run(argv, env_overrides={KRB5_CACHE_ENV: f"FILE:{cache}"},
                     timeout=svc.timeouts.ticket)
    if inv.exit_code != 0:
        raise CommandFailed(inv)
    now = clock.now()
    return TicketCache(service=svc.name, cache_path=cache, acquired_at=now,
                       valid_until=now + TICKET_LIFETIME)


def _oidc_prompt_line(inv: Invocation, pattern: str) -> Optional[str]:
    matcher = re.compile(pattern)
    for stream in (inv.stdout, inv.stderr):
        for line in stream.splitlines():
            if matcher.search(line):
                return line
    return None


def store_vault_tokens(
    svc: ResolvedService,
    uid: int,
    ticket: TicketCache,
    runner: CommandRunner,
    clock: Clock,
) -> VaultTokenFile:
    """Run the vault-storer once per credd host, then stage the resulting
    token. The caller must not run two of these at once.

    The storer writes its token at the shared per-user default location;
    after the last credd host succeeds that file is *moved* to
    ``{state_dir}/tokens/{service}/vaulttoken`` (owner-only) so tokens of
    different services never collide. A failure against one credd aborts the
    remaining credds for this service.
    """
    shared_path = default_token_path(svc, uid)
    values = {
        "service": svc.name,
        "keytab": svc.keytab_path,
        "principal": render_principal(service_principal(svc)),
        "cache": ticket.cache_path,
        "account": svc.account,
        "experiment": svc.experiment,
        "role": svc.role,
        "issuer": svc.token_issuer,
        "vault_local_seconds": str(int(svc.token_lifetimes.vault_local)),
        "vault_credd_seconds": str(int(svc.token_lifetimes.vault_credd)),
    }
    for credd in svc.credd_hosts:
        argv = render_command(svc.commands.storer, {**values, "credd": credd})
        env = {
            **ticket.env(),
            CREDD_HOST_ENV: credd,
            DEFAULT_TOKEN_PATH_ENV: shared_path,
            VAULT_LOCAL_SECONDS_ENV: values["vault_local_seconds"],
            VAULT_CREDD_SECONDS_ENV: values["vault_credd_seconds"],
        }
        inv = runner.run(argv, env_overrides=env, timeout=svc.timeouts.vault_store)
        prompt = _oidc_prompt_line(inv, svc.oidc_prompt_regex)
        if prompt is not None:
            raise InteractiveAuthRequired(prompt)
        if inv.exit_code != 0:
            raise CommandFailed(inv)

    if not os.path.isfile(shared_path) or os.path.getsize(shared_path) == 0:
        raise TokenNotProduced(
            f"storer succeeded but no token found at {shared_path}")
    staged = staging_path(svc)
    staged_dir = os.path.dirname(staged)
    os.makedirs(staged_dir, mode=0o700, exist_ok=True)
    os.chmod(staged_dir, 0o700)
    shutil.move(shared_path, staged)
    os.chmod(staged, 0o600)

    return VaultTokenFile(
        service=svc.name,
        path=staged,
        acquired_at=clock.now(),
        lifetime=svc.token_lifetimes.vault_local,
        uid=uid,
    )


def validate_token_file(path: str, check_prefix: bool = False) -> TokenCheck:
    """Inspect a staged token file; all findings are reported, nothing raises."""
    exists = os.path.isfile(path)
    non_empty = exists and os.path.getsize(path) > 0
    perms_ok = False
    if exists:
        mode = os.stat(path).st_mode & 0o777
        perms_ok = (mode & 0o077) == 0
    if not check_prefix:
        prefix_ok = True
    else:
        prefix_ok = False
        if non_empty:
            with open(path, "rb") as fh:
                head = fh.read(8).decode("ascii", errors="replace")
            prefix_ok = head.startswith(ACCEPTED_TOKEN_PREFIXES)
    return TokenCheck(exists=exists, non_empty=non_empty, perms_ok=perms_ok,
                      prefix_ok=prefix_ok)
