"""Per-service credential acquisition and staging.

Flow per service: obtain a Kerberos ticket from the service's keytab into a
per-service cache, then run the external vault-storer command once per credd
host, and finally move the vault token it wrote at the shared per-user
default location into per-service staging so the next service's token cannot
collide with it. The storer tool cannot run concurrently: the caller runs
every :func:`store_vault_tokens` call of a run on one thread.

The storer's token is checked here, once, where it enters the program: it
must be non-empty and written during this call (a file already at the shared
location that the storer left untouched is refused, and left there for the
operator), the staged copy is made owner-only, and with
``token_prefix_check`` on it must start with ``hvs.`` or ``s.``. Later
stages trust the staged file.

Command lines and the shared token path are config templates, rendered from
:func:`~.config.placeholders`; each invocation also carries the designations
downstream tools expect in its environment (credential cache, credd host, the
shared default token path, and the intended token lifetimes in seconds).
"""

from __future__ import annotations

import logging
import os
import re
import shutil
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .config import ResolvedService, command_words, placeholders
from .interfaces import CommandRunner, Invocation

logger = logging.getLogger(__name__)

KRB5_CACHE_ENV = "KRB5CCNAME"
CREDD_HOST_ENV = "_condor_CREDD_HOST"
DEFAULT_TOKEN_PATH_ENV = "MANAGED_TOKENS_DEFAULT_TOKEN_PATH"
VAULT_LOCAL_SECONDS_ENV = "MANAGED_TOKENS_VAULT_LOCAL_SECONDS"
VAULT_CREDD_SECONDS_ENV = "MANAGED_TOKENS_VAULT_CREDD_SECONDS"

ACCEPTED_TOKEN_PREFIXES = (b"hvs.", b"s.")


class CredentialError(Exception):
    """Base class for credential-stage failures."""


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
    """The storer succeeded but left no new token at the shared default location."""


class TokenRejected(CredentialError):
    """The staged token lacks a vault token's ``hvs.``/``s.`` prefix."""


class InteractiveAuthRequired(CredentialError):
    """The storer asked for an interactive OIDC login; onboarding has not
    been completed by an operator; the prompt is surfaced verbatim."""

    def __init__(self, prompt_line: str):
        super().__init__(f"interactive authentication required: {prompt_line.strip()}")
        self.prompt_line = prompt_line


@dataclass(frozen=True)
class VaultTokenFile:
    path: str
    uid: int


def render_command(template: str, values: Mapping[str, Any]) -> tuple[str, ...]:
    """Split a command template into argv with shell quoting rules (so
    ``-e "ssh -o ControlMaster=auto"`` is one argument), then substitute
    placeholders per token (so a value containing spaces stays one argument).
    Config load has checked that the template splits and names only
    placeholders its caller supplies."""
    return tuple(word.format(**values) for word in command_words(template))


def staging_path(svc: ResolvedService) -> str:
    return os.path.join(svc.state_dir, "tokens", svc.name, "vaulttoken")


def acquire_ticket(svc: ResolvedService, uid: int, runner: CommandRunner) -> str:
    """Obtain a Kerberos ticket for the service from its keytab into the
    service's own cache, ``{cache}`` of :func:`~.config.placeholders`, and
    return the cache's path."""
    if not os.path.isfile(svc.keytab_path):
        raise KeytabMissing(f"keytab not found at {svc.keytab_path}")
    values = placeholders(svc, uid)
    cache = values["cache"]
    os.makedirs(os.path.dirname(cache), mode=0o700, exist_ok=True)
    os.chmod(os.path.dirname(cache), 0o700)
    inv = runner.run(render_command(svc.commands.ticket, values),
                     env_overrides={KRB5_CACHE_ENV: f"FILE:{cache}"},
                     timeout=svc.timeouts.ticket)
    if inv.exit_code != 0:
        raise CommandFailed(inv)
    return cache


def _oidc_prompt_line(inv: Invocation, pattern: str) -> Optional[str]:
    matcher = re.compile(pattern)
    for stream in (inv.stdout, inv.stderr):
        for line in stream.splitlines():
            if matcher.search(line):
                return line
    return None


def _file_identity(path: str) -> Optional[tuple[int, int, int]]:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


def store_vault_tokens(svc: ResolvedService, uid: int, runner: CommandRunner) -> VaultTokenFile:
    """Run the vault-storer once per credd host with the ticket
    :func:`acquire_ticket` left in the service's cache, then stage the
    resulting token. The caller must not run two of these at once.

    The storer writes its token at the shared per-user default location;
    after the last credd host succeeds that file is *moved* to
    ``{state_dir}/tokens/{service}/vaulttoken`` (owner-only) so tokens of
    different services never collide. A failure against one credd aborts the
    remaining credds for this service. A file at the shared location whose
    inode, mtime and size are what they were before the first credd call
    predates this run: it raises :class:`TokenNotProduced` and is left there.
    With ``token_prefix_check`` on, a staged token without the
    ``hvs.``/``s.`` prefix raises :class:`TokenRejected`, so it is never
    pushed.
    """
    values = placeholders(svc, uid)
    shared_path = svc.default_token_path.format(**values)
    before = _file_identity(shared_path)
    env = {
        KRB5_CACHE_ENV: f"FILE:{values['cache']}",
        DEFAULT_TOKEN_PATH_ENV: shared_path,
        VAULT_LOCAL_SECONDS_ENV: values["vault_local_seconds"],
        VAULT_CREDD_SECONDS_ENV: values["vault_credd_seconds"],
    }
    for credd in svc.credd_hosts:
        inv = runner.run(render_command(svc.commands.storer, {**values, "credd": credd}),
                         env_overrides={**env, CREDD_HOST_ENV: credd},
                         timeout=svc.timeouts.vault_store)
        prompt = _oidc_prompt_line(inv, svc.oidc_prompt_regex)
        if prompt is not None:
            raise InteractiveAuthRequired(prompt)
        if inv.exit_code != 0:
            raise CommandFailed(inv)

    if not os.path.isfile(shared_path) or os.path.getsize(shared_path) == 0:
        raise TokenNotProduced(
            f"storer succeeded but no token found at {shared_path}")
    if _file_identity(shared_path) == before:
        raise TokenNotProduced(f"token at {shared_path} predates this storer run")
    staged = staging_path(svc)
    staged_dir = os.path.dirname(staged)
    os.makedirs(staged_dir, mode=0o700, exist_ok=True)
    os.chmod(staged_dir, 0o700)
    shutil.move(shared_path, staged)
    os.chmod(staged, 0o600)
    if svc.token_prefix_check:
        with open(staged, "rb") as fh:
            if not fh.read(4).startswith(ACCEPTED_TOKEN_PREFIXES):
                raise TokenRejected(f"staged token at {staged} does not start with hvs. or s.")

    return VaultTokenFile(path=staged, uid=uid)

