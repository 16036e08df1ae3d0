"""Kerberos ticket acquisition, vault-token storing/staging, token checks."""

from __future__ import annotations

import os

import pytest

from managed_tokens import simkit
from managed_tokens.config import CommandTemplates, resolve_service
from managed_tokens.credentials import (
    CommandFailed,
    CredentialError,
    InteractiveAuthRequired,
    InvalidPrincipal,
    KerberosPrincipal,
    KeytabMissing,
    TicketCache,
    TokenNotProduced,
    acquire_ticket,
    default_token_path,
    render_command,
    render_principal,
    service_principal,
    staging_path,
    store_vault_tokens,
    ticket_cache_path,
    validate_token_file,
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


def make_ticket(svc) -> TicketCache:
    return TicketCache(cache_path=ticket_cache_path(svc))


class TestPrincipal:
    def test_rendered_form(self):
        principal = KerberosPrincipal("duneprod", "managedtokens",
                                      "tokens.example.org", "EXAMPLE.ORG")
        assert render_principal(principal) == (
            "duneprod/managedtokens/tokens.example.org@EXAMPLE.ORG")

    @pytest.mark.parametrize("field", ["user", "purpose", "host", "realm"])
    def test_empty_component_rejected(self, field):
        values = {"user": "u", "purpose": "p", "host": "h", "realm": "R"}
        values[field] = ""
        with pytest.raises(InvalidPrincipal, match=field):
            render_principal(KerberosPrincipal(**values))

    def test_service_principal_uses_service_fields(self, site):
        svc = one_service(site)
        principal = service_principal(svc)
        assert principal.user == svc.account
        assert principal.realm == "EXAMPLE.ORG"


class TestRenderCommand:
    def test_substitution(self):
        argv = render_command("kinit -k -t {keytab} {principal}",
                              {"keytab": "/k/dune.keytab", "principal": "p@R"})
        assert argv == ("kinit", "-k", "-t", "/k/dune.keytab", "p@R")

    def test_value_with_spaces_stays_one_argument(self):
        argv = render_command("run {arg}", {"arg": "two words"})
        assert argv == ("run", "two words")

    def test_unknown_placeholder(self):
        with pytest.raises(CredentialError, match="placeholder"):
            render_command("run {mystery}", {})

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

    def test_unbalanced_quote_names_the_template(self):
        template = 'rsync -e "ssh {local} {node}:{remote}'
        with pytest.raises(CredentialError, match="rsync -e"):
            render_command(template, {"local": "l", "node": "n", "remote": "r"})

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
        ticket = acquire_ticket(svc, runner)
        assert ticket.cache_path == os.path.join(
            svc.state_dir, "krb5cc", "dune_production")
        (entry,) = runner.log.entries()
        assert entry.args[0] == "kinit"
        assert svc.keytab_path in entry.args
        assert ticket.env() == {"KRB5CCNAME": f"FILE:{ticket.cache_path}"}

    def test_cache_env_designated_for_the_command(self, site):
        svc = one_service(site)
        recorder = EnvRecorder()
        runner = simkit.scripted_runner(simkit.always_succeed(),
                                        side_effects=recorder,
                                        clock=simkit.FixedClock())
        acquire_ticket(svc, runner)
        (env,) = recorder.envs
        assert env["KRB5CCNAME"] == f"FILE:{ticket_cache_path(svc)}"

    def test_missing_keytab_fails_before_any_invocation(self, site):
        svc = one_service(site)
        os.unlink(svc.keytab_path)
        runner = simkit.scripted_runner(simkit.always_succeed(),
                                        clock=simkit.FixedClock())
        with pytest.raises(KeytabMissing, match="keytab"):
            acquire_ticket(svc, runner)
        assert runner.log.entries() == ()

    def test_command_failure_surfaces_stderr(self, site):
        svc = one_service(site)
        schedule = simkit.FaultSchedule("t", (simkit.fail("kinit: KDC unreachable"),))
        runner = simkit.scripted_runner(schedule, clock=simkit.FixedClock())
        with pytest.raises(CommandFailed, match="KDC unreachable") as err:
            acquire_ticket(svc, runner)
        assert err.value.invocation.exit_code == 1

    def test_hang_raises_command_timeout(self, site):
        svc = one_service(site)
        clock = simkit.FixedClock(advance_on_sleep=True)
        runner = simkit.scripted_runner(simkit.FaultSchedule("t", (simkit.hang(),)),
                                        clock=clock)
        with pytest.raises(CommandTimeout) as err:
            acquire_ticket(svc, runner)
        assert err.value.timeout == svc.timeouts.ticket

    def test_distinct_services_use_distinct_caches(self, site):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        a = resolve_service(cfg, "dune_production")
        b = resolve_service(cfg, "mu2e_production")
        assert ticket_cache_path(a) != ticket_cache_path(b)
        assert staging_path(a) != staging_path(b)


class TestStoreVaultTokens:
    def test_one_invocation_per_credd_and_staging(self, site):
        svc = one_service(site, credd_hosts=("credd1.example.org",
                                             "credd2.example.org"))
        clock = simkit.FixedClock()
        runner = simkit.scripted_runner(simkit.always_succeed(),
                                        side_effects=simkit.write_token_from_env(),
                                        clock=clock)
        token = store_vault_tokens(svc, 4521, make_ticket(svc), runner)
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
        store_vault_tokens(svc, 4521, make_ticket(svc), runner)
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
            store_vault_tokens(svc, 4521, make_ticket(svc), runner)
        assert len(runner.log.entries()) == 1
        assert not os.path.exists(staging_path(svc))

    def test_interactive_prompt_beats_exit_status(self, site):
        svc = one_service(site)
        prompt = ("Complete the OIDC authentication in your browser at "
                  "https://vault.example.org/ui/device?code=WXYZ")

        class PromptingRunner:
            def run(self, argv, env_overrides=None, timeout=None):
                return Invocation(tuple(argv), dict(env_overrides or {}), 0,
                                  prompt, "", 0.0, 0.0)

        with pytest.raises(InteractiveAuthRequired) as err:
            store_vault_tokens(svc, 4521, make_ticket(svc), PromptingRunner())
        assert "vault.example.org" in str(err.value)
        assert not os.path.exists(staging_path(svc))

    def test_interactive_prompt_detected_on_stderr_of_a_failing_run(self, site):
        svc = one_service(site)
        prompt = "please visit https://sso.example.org/device (oidc flow)"

        class FailingPromptRunner:
            def run(self, argv, env_overrides=None, timeout=None):
                return Invocation(tuple(argv), dict(env_overrides or {}), 1,
                                  "", prompt, 0.0, 0.0)

        with pytest.raises(InteractiveAuthRequired):
            store_vault_tokens(svc, 4521, make_ticket(svc), FailingPromptRunner())

    def test_exit_zero_without_token_file(self, site):
        svc = one_service(site)
        clock = simkit.FixedClock()
        runner = simkit.scripted_runner(simkit.always_succeed(), clock=clock)
        with pytest.raises(TokenNotProduced, match="vt_u4521"):
            store_vault_tokens(svc, 4521, make_ticket(svc), runner)

    def test_empty_token_file_counts_as_not_produced(self, site):
        svc = one_service(site)
        clock = simkit.FixedClock()
        runner = simkit.scripted_runner(
            simkit.always_succeed(),
            side_effects=simkit.write_token_from_env(content=b""), clock=clock)
        with pytest.raises(TokenNotProduced):
            store_vault_tokens(svc, 4521, make_ticket(svc), runner)


class TestValidateTokenFile:
    def write(self, tmp_path, content=b"hvs.abc\n", mode=0o600):
        path = tmp_path / "vaulttoken"
        path.write_bytes(content)
        os.chmod(path, mode)
        return str(path)

    def test_missing_file(self, tmp_path):
        check = validate_token_file(str(tmp_path / "nope"))
        assert not check.exists and not check.ok

    def test_good_file(self, tmp_path):
        check = validate_token_file(self.write(tmp_path))
        assert check.ok

    def test_empty_file(self, tmp_path):
        check = validate_token_file(self.write(tmp_path, content=b""))
        assert check.exists and not check.non_empty and not check.ok

    def test_group_readable_file(self, tmp_path):
        check = validate_token_file(self.write(tmp_path, mode=0o640))
        assert check.exists and check.non_empty and not check.perms_ok

    @pytest.mark.parametrize("content,ok", [
        (b"hvs.CAESIJ...", True),
        (b"s.f7Ay3...", True),
        (b"eyJhbGciOi...", False),
    ])
    def test_prefix_check_when_enabled(self, tmp_path, content, ok):
        check = validate_token_file(self.write(tmp_path, content=content),
                                    check_prefix=True)
        assert check.prefix_ok is ok

    def test_prefix_check_disabled_accepts_anything(self, tmp_path):
        check = validate_token_file(self.write(tmp_path, content=b"eyJhbGciOi"))
        assert check.prefix_ok
