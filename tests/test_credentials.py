"""Kerberos ticket acquisition, vault-token storing/staging and its token check."""

from __future__ import annotations

import os
import stat

import pytest

from managed_tokens import simkit
from managed_tokens.config import CommandTemplates, placeholders, resolve_service
from managed_tokens.credentials import (
    CommandFailed,
    InteractiveAuthRequired,
    KeytabMissing,
    TokenNotProduced,
    TokenRejected,
    acquire_ticket,
    render_command,
    staging_path,
    store_vault_tokens,
)
from managed_tokens.interfaces import CommandTimeout, Invocation


class EnvRecorder:
    """Side-effect callable that captures each invocation's environment and
    still writes the fake token."""

    def __init__(self):
        self.envs = []
        self._write = simkit.write_token_from_env()

    def __call__(self, index, argv, env):
        self.envs.append(dict(env))
        self._write(index, argv, env)


def one_service(site, name="dune_production", **add_kwargs):
    site.add_service(name, **add_kwargs)
    return resolve_service(site.config(), name)


def ticket_cache_path(svc) -> str:
    return os.path.join(svc.state_dir, "krb5cc", svc.name)


def default_token_path(svc, uid: int) -> str:
    return os.path.join(svc.tmp_dir, f"vt_u{uid}")


STALE_TOKEN = b"hvs.STALE-token-from-yesterday\n"


def plant_stale_token(svc, uid: int) -> str:
    """A token a storer left at the shared location a day ago."""
    shared = default_token_path(svc, uid)
    os.makedirs(os.path.dirname(shared), exist_ok=True)
    with open(shared, "wb") as fh:
        fh.write(STALE_TOKEN)
    day_ago = os.stat(shared).st_mtime - 86400
    os.utime(shared, (day_ago, day_ago))
    return shared


class TestPrincipal:
    def test_rendered_form(self, site):
        assert placeholders(one_service(site), 4521)["principal"] == (
            "duneprod/managedtokens/tokens.example.org@EXAMPLE.ORG")

    def test_service_principal_uses_service_fields(self, site):
        svc = one_service(site, "mu2e_production")
        assert placeholders(svc, 4521)["principal"] == (
            "mu2eprod/managedtokens/tokens.example.org@EXAMPLE.ORG")


class TestRenderCommand:
    def test_substitution(self):
        argv = render_command("kinit -k -t {keytab} {principal}",
                              {"keytab": "/k/dune.keytab", "principal": "p@R"})
        assert argv == ("kinit", "-k", "-t", "/k/dune.keytab", "p@R")

    def test_value_with_spaces_stays_one_argument(self):
        argv = render_command("run {arg}", {"arg": "two words"})
        assert argv == ("run", "two words")

    def test_quoted_ssh_option_stays_one_argument(self):
        argv = render_command(
            'rsync -p -e "ssh -o ControlMaster=auto" {local} {node}:{remote}',
            {"local": "/s/tok", "node": "n1", "remote": "/tmp/vt_u1"})
        assert argv == ("rsync", "-p", "-e", "ssh -o ControlMaster=auto",
                        "/s/tok", "n1:/tmp/vt_u1")

    def test_substituted_value_with_spaces_inside_quotes(self):
        argv = render_command("copy '{local}' {node}",
                              {"local": "/dir with spaces/tok", "node": "n1"})
        assert argv == ("copy", "/dir with spaces/tok", "n1")

    def test_default_templates_split_on_whitespace_as_before(self):
        values = {"keytab": "/k", "cache": "/c", "principal": "p@R",
                  "service": "svc", "local": "/l", "node": "n", "remote": "/r"}
        defaults = CommandTemplates()
        for template in (defaults.ticket, defaults.storer, defaults.transfer):
            assert render_command(template, values) == tuple(
                token.format(**values) for token in template.split())


class TestAcquireTicket:
    def test_happy_path(self, site):
        svc = one_service(site)
        clock = simkit.FixedClock(start=1000.0)
        runner = simkit.scripted_runner(simkit.always_succeed(), clock=clock)
        cache = acquire_ticket(svc, 4521, runner)
        assert cache == os.path.join(svc.state_dir, "krb5cc", "dune_production")
        (entry,) = runner.log.entries()
        assert entry.args == ("kinit", "-k", "-t", svc.keytab_path, "-c", cache,
                              "duneprod/managedtokens/tokens.example.org@EXAMPLE.ORG")

    def test_cache_env_designated_for_the_command(self, site):
        svc = one_service(site)
        recorder = EnvRecorder()
        runner = simkit.scripted_runner(simkit.always_succeed(),
                                        side_effects=recorder,
                                        clock=simkit.FixedClock())
        acquire_ticket(svc, 4521, runner)
        (env,) = recorder.envs
        assert env["KRB5CCNAME"] == f"FILE:{ticket_cache_path(svc)}"

    def test_existing_cache_directory_made_owner_only(self, site):
        svc = one_service(site)
        cache_dir = os.path.join(svc.state_dir, "krb5cc")
        os.makedirs(cache_dir)
        os.chmod(cache_dir, 0o755)
        acquire_ticket(svc, 4521, simkit.scripted_runner(simkit.always_succeed(),
                                                         clock=simkit.FixedClock()))
        assert stat.S_IMODE(os.stat(cache_dir).st_mode) == 0o700

    def test_missing_keytab_fails_before_any_invocation(self, site):
        svc = one_service(site)
        os.unlink(svc.keytab_path)
        runner = simkit.scripted_runner(simkit.always_succeed(),
                                        clock=simkit.FixedClock())
        with pytest.raises(KeytabMissing, match="keytab"):
            acquire_ticket(svc, 4521, runner)
        assert runner.log.entries() == ()

    def test_command_failure_surfaces_stderr(self, site):
        svc = one_service(site)
        schedule = simkit.FaultSchedule("t", (simkit.fail("kinit: KDC unreachable"),))
        runner = simkit.scripted_runner(schedule, clock=simkit.FixedClock())
        with pytest.raises(CommandFailed, match="KDC unreachable") as err:
            acquire_ticket(svc, 4521, runner)
        assert err.value.invocation.exit_code == 1

    def test_hang_raises_command_timeout(self, site):
        svc = one_service(site)
        clock = simkit.FixedClock(advance_on_sleep=True)
        runner = simkit.scripted_runner(simkit.FaultSchedule("t", (simkit.hang(),)),
                                        clock=clock)
        with pytest.raises(CommandTimeout) as err:
            acquire_ticket(svc, 4521, runner)
        assert err.value.timeout == svc.timeouts.ticket

    def test_distinct_services_use_distinct_caches(self, site):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        a = resolve_service(cfg, "dune_production")
        b = resolve_service(cfg, "mu2e_production")
        assert placeholders(a, 4521)["cache"] != placeholders(b, 4521)["cache"]
        assert staging_path(a) != staging_path(b)


class TestStoreVaultTokens:
    def test_one_invocation_per_credd_and_staging(self, site):
        svc = one_service(site, credd_hosts=("credd1.example.org",
                                             "credd2.example.org"))
        clock = simkit.FixedClock()
        runner = simkit.scripted_runner(simkit.always_succeed(),
                                        side_effects=simkit.write_token_from_env(),
                                        clock=clock)
        token = store_vault_tokens(svc, 4521, runner)
        assert len(runner.log.entries()) == 2
        assert all(e.args == ("condor_vault_storer", "dune_production")
                   for e in runner.log.entries())
        assert token.path == staging_path(svc)
        assert token.uid == 4521
        assert os.path.getsize(token.path) > 0
        assert os.stat(token.path).st_mode & 0o177 == 0
        assert not os.path.exists(default_token_path(svc, 4521))

    def test_per_credd_environment(self, site):
        credds = ("credd1.example.org", "credd2.example.org")
        svc = one_service(site, credd_hosts=credds)
        recorder = EnvRecorder()
        clock = simkit.FixedClock()
        runner = simkit.scripted_runner(simkit.always_succeed(),
                                        side_effects=recorder, clock=clock)
        store_vault_tokens(svc, 4521, runner)
        assert [env["_condor_CREDD_HOST"] for env in recorder.envs] == list(credds)
        shared = default_token_path(svc, 4521)
        for env in recorder.envs:
            assert env["MANAGED_TOKENS_DEFAULT_TOKEN_PATH"] == shared
            assert env["KRB5CCNAME"] == f"FILE:{ticket_cache_path(svc)}"
            assert env["MANAGED_TOKENS_VAULT_LOCAL_SECONDS"] == "604800"
            assert env["MANAGED_TOKENS_VAULT_CREDD_SECONDS"] == "2419200"

    def test_first_credd_failure_aborts_the_rest(self, site):
        svc = one_service(site, credd_hosts=("credd1.example.org",
                                             "credd2.example.org"))
        schedule = simkit.FaultSchedule(
            "s", (simkit.fail("CRED_ADD failed"), simkit.succeed()), repeat=False)
        clock = simkit.FixedClock()
        runner = simkit.scripted_runner(schedule, clock=clock)
        with pytest.raises(CommandFailed, match="CRED_ADD"):
            store_vault_tokens(svc, 4521, runner)
        assert len(runner.log.entries()) == 1
        assert not os.path.exists(staging_path(svc))

    def test_interactive_prompt_beats_exit_status(self, site):
        svc = one_service(site)
        prompt = ("Complete the OIDC authentication in your browser at "
                  "https://vault.example.org/ui/device?code=WXYZ")

        class PromptingRunner:
            def run(self, argv, env_overrides=None, timeout=None):
                return Invocation(tuple(argv), 0, prompt, "")

        with pytest.raises(InteractiveAuthRequired) as err:
            store_vault_tokens(svc, 4521, PromptingRunner())
        assert "vault.example.org" in str(err.value)
        assert not os.path.exists(staging_path(svc))

    def test_interactive_prompt_detected_on_stderr_of_a_failing_run(self, site):
        svc = one_service(site)
        prompt = "please visit https://sso.example.org/device (oidc flow)"

        class FailingPromptRunner:
            def run(self, argv, env_overrides=None, timeout=None):
                return Invocation(tuple(argv), 1, "", prompt)

        with pytest.raises(InteractiveAuthRequired):
            store_vault_tokens(svc, 4521, FailingPromptRunner())

    def test_exit_zero_without_token_file(self, site):
        svc = one_service(site)
        clock = simkit.FixedClock()
        runner = simkit.scripted_runner(simkit.always_succeed(), clock=clock)
        with pytest.raises(TokenNotProduced, match="vt_u4521"):
            store_vault_tokens(svc, 4521, runner)

    def test_empty_token_file_counts_as_not_produced(self, site):
        svc = one_service(site)
        clock = simkit.FixedClock()
        runner = simkit.scripted_runner(
            simkit.always_succeed(),
            side_effects=simkit.write_token_from_env(content=b""), clock=clock)
        with pytest.raises(TokenNotProduced):
            store_vault_tokens(svc, 4521, runner)

    def test_token_left_from_an_earlier_run_is_refused_and_kept(self, site):
        svc = one_service(site)
        shared = plant_stale_token(svc, 4521)
        runner = simkit.scripted_runner(simkit.always_succeed(), clock=simkit.FixedClock())
        with pytest.raises(TokenNotProduced,
                           match=f"token at {shared} predates this storer run"):
            store_vault_tokens(svc, 4521, runner)
        with open(shared, "rb") as fh:
            assert fh.read() == STALE_TOKEN  # left for the operator
        assert not os.path.exists(staging_path(svc))

    def test_storer_writing_over_a_stale_token_succeeds(self, site):
        svc = one_service(site)
        shared = plant_stale_token(svc, 4521)
        fresh = STALE_TOKEN.replace(b"STALE", b"FRESH")  # same inode and size: only mtime moves
        runner = simkit.scripted_runner(
            simkit.always_succeed(),
            side_effects=simkit.write_token_from_env(content=fresh),
            clock=simkit.FixedClock())
        token = store_vault_tokens(svc, 4521, runner)
        with open(token.path, "rb") as fh:
            assert fh.read() == fresh
        assert not os.path.exists(shared)

    @pytest.mark.parametrize("content,ok", [
        (b"hvs.CAESIJ...", True),
        (b"s.f7Ay3...", True),
        (b"eyJhbGciOi...", False),
    ])
    def test_prefix_check_when_enabled(self, site, content, ok):
        svc = one_service(site, overrides={"token_prefix_check": True})
        runner = simkit.scripted_runner(
            simkit.always_succeed(),
            side_effects=simkit.write_token_from_env(content=content),
            clock=simkit.FixedClock())
        if ok:
            token = store_vault_tokens(svc, 4521, runner)
            assert token.path == staging_path(svc)
        else:
            with pytest.raises(TokenRejected, match="does not start with hvs. or s."):
                store_vault_tokens(svc, 4521, runner)
        # Checked after the move: the shared location never keeps the token.
        assert not os.path.exists(default_token_path(svc, 4521))

    def test_prefix_check_disabled_accepts_anything(self, site):
        svc = one_service(site)
        runner = simkit.scripted_runner(
            simkit.always_succeed(),
            side_effects=simkit.write_token_from_env(content=b"eyJhbGciOi"),
            clock=simkit.FixedClock())
        token = store_vault_tokens(svc, 4521, runner)
        with open(token.path, "rb") as fh:
            assert fh.read() == b"eyJhbGciOi"
