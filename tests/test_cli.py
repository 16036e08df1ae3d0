"""Exit codes and human output of the two executables."""

from __future__ import annotations

import collections
import functools
import shlex
import signal
import socket

import pytest
import requests
import yaml

from managed_tokens import adapters, orchestrator, simkit, statestore
from managed_tokens.cli import (
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_SETUP,
    main_refresh_uids,
    main_token_push,
)
from managed_tokens.statestore import open_store


@pytest.fixture
def sim_site(site):
    """A site whose config selects the in-package rehearsal adapters."""
    site.add_service("dune_production")
    site.add_service("mu2e_production")
    return site


def sim_config(site, fault_schedules=None, **extra):
    fields = {
        "adapter_mode": "simulation",
        "simulation": {"registry_uids": {"duneprod": 1001, "mu2eprod": 2002}},
    }
    if fault_schedules is not None:
        path = site.root / "faults.yaml"
        path.write_text(yaml.safe_dump(fault_schedules))
        fields["simulation"]["fault_schedules"] = str(path)
    fields.update(extra)
    return site.config_path(**fields)


SIGNALS = (signal.SIGINT, signal.SIGTERM)


def handlers():
    return [signal.getsignal(signum) for signum in SIGNALS]


class TestTokenPush:
    def test_healthy_run_exits_zero(self, sim_site, capsys):
        code = main_token_push(["--config", sim_config(sim_site)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "2 service(s), 0 with failures" in out
        assert "dune_production: registry ok, ticket ok, vault_store ok, push ok" in out
        assert "notifications sent: 0" in out

    def test_failing_node_exits_one_and_names_the_node(self, sim_site, capsys):
        faults = {"transfer:submit2.example.org": {
            "pattern": [{"fail": "no route to host"}]}}
        config = sim_config(sim_site, fault_schedules=faults,
                            retry={"max_attempts": 2, "base_backoff": "1ms"})
        code = main_token_push(["--config", config])
        out = capsys.readouterr().out
        assert code == EXIT_PARTIAL
        assert "push FAILED (failed nodes: submit2.example.org)" in out
        assert "failed pushes:" in out
        assert "@ submit2.example.org: no route to host (after 2 attempt(s))" in out

    def test_crashed_stage_plumbing_exits_one(self, sim_site, capsys, monkeypatch):
        stage = orchestrator._Stages.stage

        def broken_for_dune(self, name, *args):
            if name == "dune_production":  # outside any stage's try, in prepare
                raise RuntimeError("stage plumbing exploded")
            return stage(self, name, *args)

        monkeypatch.setattr(orchestrator._Stages, "stage", broken_for_dune)
        code = main_token_push(["--config", sim_config(sim_site)])
        out = capsys.readouterr().out
        assert code == EXIT_PARTIAL
        assert "2 service(s), 1 with failures" in out
        assert "dune_production: ticket FAILED (RuntimeError: stage plumbing exploded)" in out

    def test_unsaved_failure_counters_exit_one(self, sim_site, capsys, monkeypatch):
        def disk_full(self, service, node, success, now):
            raise statestore.StoreError("disk full")

        monkeypatch.setattr(statestore.Store, "record_push_outcome", disk_full)
        code = main_token_push(["--config", sim_config(sim_site)])
        out = capsys.readouterr().out
        assert code == EXIT_PARTIAL
        assert "2 service(s), 2 with failures" in out

    def test_unsaved_watermark_exits_one_after_every_send(self, sim_site, capsys,
                                                          monkeypatch):
        def disk_full(self, service, node):
            raise statestore.StoreError("disk full")

        monkeypatch.setattr(statestore.Store, "mark_notified", disk_full)
        faults = {"transfer:submit2.example.org": {
            "pattern": [{"fail": "no route to host"}]}}
        config = sim_config(sim_site, fault_schedules=faults,
                            retry={"max_attempts": 2, "base_backoff": "1ms"},
                            notification={"admin_recipients": ["ops@example.org"],
                                          "threshold": 1})
        code = main_token_push(["--config", config])
        out = capsys.readouterr().out
        assert code == EXIT_PARTIAL
        # Both stakeholder batches and the admin summary went out.
        assert "notifications sent: 3" in out

    def test_each_command_template_is_split_once(self, sim_site, capsys, monkeypatch):
        override = "condor_vault_storer -d {service}"
        sim_site.add_service("nova_production", overrides={"commands.storer": override})
        splits = collections.Counter()
        split = shlex.split

        def counting_split(text, *args, **kwargs):
            splits[text] += 1
            return split(text, *args, **kwargs)

        monkeypatch.setattr(shlex, "split", counting_split)
        code = main_token_push(["--config", sim_config(sim_site)])
        assert code == EXIT_OK
        assert "3 service(s), 0 with failures" in capsys.readouterr().out
        # Load, routing and three runs of each command; a template split
        # before this test is not split again.
        assert splits[override] == 1
        assert max(splits.values()) == 1

    def test_service_subset(self, sim_site, capsys):
        code = main_token_push(["--config", sim_config(sim_site),
                                "--service", "mu2e_production"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "1 service(s)" in out
        assert "dune_production" not in out

    def test_unknown_service_rejected_before_anything_runs(self, sim_site, capsys):
        code = main_token_push(["--config", sim_config(sim_site),
                                "--service", "ghost_production"])
        err = capsys.readouterr().err
        assert code == EXIT_SETUP
        assert "unknown service(s): ghost_production" in err
        assert not (sim_site.state_dir / "db").exists()

    def test_sigterm_cancels_the_run_and_the_old_handlers_come_back(self, sim_site, capsys,
                                                                      monkeypatch):
        before = handlers()
        cancelled = []
        real = orchestrator.run_token_push

        def run(config, deps, cancel, **kwargs):
            if handlers() != before:  # never deliver SIGTERM to the default handler
                signal.raise_signal(signal.SIGTERM)
                cancelled.append(cancel.is_set())
            return real(config, deps, cancel=cancel, **kwargs)

        monkeypatch.setattr(orchestrator, "run_token_push", run)
        main_token_push(["--config", sim_config(sim_site)])
        assert cancelled == [True]
        assert handlers() == before

    def test_old_handlers_come_back_after_a_setup_failure(self, sim_site, capsys):
        before = handlers()
        code = main_token_push(["--config", sim_config(sim_site),
                                "--service", "ghost_production"])
        assert code == EXIT_SETUP
        assert handlers() == before

    def test_dry_run_exits_zero_despite_scheduled_faults(self, sim_site, capsys):
        faults = {"transfer:submit1.example.org": {"pattern": [{"fail": "down"}]}}
        config = sim_config(sim_site, fault_schedules=faults)
        code = main_token_push(["--config", config, "--dry-run"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "(dry run)" in out
        assert "notifications sent" not in out
        with open_store(str(sim_site.state_dir)) as store:
            assert store.counters() == []

    @pytest.mark.parametrize("flags", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_bearer_token_fails_vault_store_once(self, sim_site, capsys, monkeypatch,
                                                 flags):
        # The rehearsal storer writes a bearer token (a JWT), not a vault token.
        monkeypatch.setattr(simkit, "write_token_from_env", functools.partial(
            simkit.write_token_from_env, content=b"eyJhbGciOiJSUzI1NiJ9.bearer\n"))
        config = sim_config(sim_site, token_prefix_check=True)
        code = main_token_push(["--config", config, "--service", "dune_production", *flags])
        out = capsys.readouterr().out
        assert code == EXIT_PARTIAL
        assert "1 service(s), 1 with failures" in out
        # The token fails where it enters; no push stage follows it.
        assert ("dune_production: registry ok, ticket ok, vault_store FAILED "
                "(TokenRejected: staged token at ") in out
        assert "does not start with hvs. or s.)\n" in out
        with open_store(str(sim_site.state_dir)) as store:
            assert store.counters() == []

    def test_missing_config_flag_is_a_usage_error(self, capsys):
        assert main_token_push([]) == EXIT_SETUP
        assert "--config" in capsys.readouterr().err

    def test_nonexistent_config_file(self, tmp_path, capsys):
        code = main_token_push(["--config", str(tmp_path / "missing.yaml")])
        assert code == EXIT_SETUP
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("services: [unclosed\n")
        assert main_token_push(["--config", str(path)]) == EXIT_SETUP
        assert "error:" in capsys.readouterr().err

    def test_config_failing_validation(self, sim_site, capsys):
        config = sim_config(sim_site, token_lifetimes={"bearer": "30d"})
        assert main_token_push(["--config", config]) == EXIT_SETUP
        assert "bearer" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        assert main_token_push(["--version"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("token-push ")

    def test_missing_fault_schedules_file_is_a_setup_failure(self, sim_site, capsys):
        missing = sim_site.root / "missing-faults.yaml"
        config = sim_config(sim_site, simulation={"fault_schedules": str(missing)})
        assert main_token_push(["--config", config]) == EXIT_SETUP
        assert capsys.readouterr().err == (
            f"error: {missing}: cannot read: No such file or directory\n")

    @pytest.mark.parametrize("text,problem", [
        pytest.param("storer: {pattern: [bogus]}", "unknown behavior 'bogus'",
                     id="unknown-behavior"),
        pytest.param('storer: {pattern: [succeed], repeat: "false"}',
                     "repeat must be a boolean (true or false)", id="quoted-repeat"),
        pytest.param("storer: {pattern: [succeed], repeats: false}",
                     "has unknown key(s) repeats", id="unknown-key"),
        pytest.param("storer: {pattern: [{delay: soon}]}",
                     "delay must be a number of seconds >= 0, got 'soon'", id="delay-string"),
        pytest.param("storer: {pattern: [{delay: -1}]}",
                     "delay must be a number of seconds >= 0, got -1", id="delay-negative"),
        pytest.param("storer: {pattern: []}", "needs a non-empty pattern list",
                     id="empty-pattern"),
        pytest.param("storer: [succeed]", "must be a mapping", id="entry-list"),
        pytest.param("- storer", "top level must be a mapping", id="top-level-list"),
        pytest.param("storer: {pattern: [succeed]", "malformed YAML", id="malformed-yaml"),
        pytest.param("# r\xe9sum\xe9\nstorer: {pattern: [succeed]}", "not UTF-8 text",
                     id="not-utf8"),
    ])
    def test_malformed_fault_schedules_are_a_setup_failure(self, sim_site, capsys, text,
                                                           problem):
        path = sim_site.root / "faults.yaml"
        path.write_bytes((text + "\n").encode("latin-1"))
        config = sim_config(sim_site, simulation={"fault_schedules": str(path)})
        assert main_token_push(["--config", config]) == EXIT_SETUP
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert problem in err

    def test_config_that_is_not_utf8_is_a_setup_failure(self, sim_site, capsys):
        config = sim_config(sim_site)
        with open(config, "ab") as fh:
            fh.write("# r\xe9sum\xe9\n".encode("latin-1"))
        assert main_token_push(["--config", config]) == EXIT_SETUP
        assert capsys.readouterr().err.startswith(f"error: {config}: not UTF-8 text: ")

    def test_locked_state_dir_is_a_setup_failure(self, sim_site, capsys):
        config = sim_config(sim_site)
        with open_store(str(sim_site.state_dir)):
            code = main_token_push(["--config", config])
        assert code == EXIT_SETUP
        assert "state store" in capsys.readouterr().err


class TestRefreshUids:
    def test_healthy_refresh(self, sim_site, capsys):
        code = main_refresh_uids(["--config", sim_config(sim_site)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "uid refresh: 2 account(s) updated, 0 failed" in out
        with open_store(str(sim_site.state_dir)) as store:
            assert store.lookup_uid("duneprod") == 1001
            assert store.lookup_uid("mu2eprod") == 2002

    def test_partial_failure_exits_one_and_names_the_account(self, sim_site,
                                                             capsys):
        faults = {"registry:mu2eprod": {"pattern": [{"fail": "ferry 500"}]}}
        code = main_refresh_uids(["--config",
                                  sim_config(sim_site, fault_schedules=faults)])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert "1 account(s) updated, 1 failed" in captured.out
        assert "account mu2eprod" in captured.err

    def test_missing_config(self, capsys):
        assert main_refresh_uids([]) == EXIT_SETUP

    def test_missing_fault_schedules_file_is_a_setup_failure(self, sim_site, capsys):
        missing = sim_site.root / "missing-faults.yaml"
        config = sim_config(sim_site, simulation={"fault_schedules": str(missing)})
        assert main_refresh_uids(["--config", config]) == EXIT_SETUP
        assert capsys.readouterr().err.startswith(f"error: {missing}: cannot read: ")

    def test_real_http_session_is_closed(self, site, capsys, monkeypatch):
        # Talk to 127.0.0.1 directly, whatever proxy the environment names.
        for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY",
                     "http_proxy", "https_proxy", "all_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        closed = []
        close = requests.Session.close

        def recording_close(session):
            closed.append(session)
            close(session)

        built = []
        build = adapters.build_real_bundle
        monkeypatch.setattr(requests.Session, "close", recording_close)
        monkeypatch.setattr(adapters, "build_real_bundle",
                            lambda config: built.append(build(config)) or built[-1])
        site.add_service("dune_production")
        config = site.config_path(adapter_mode="real",
                                  registry={"base_url": f"http://127.0.0.1:{port}",
                                            "timeout": "5s"})
        assert main_refresh_uids(["--config", config]) == EXIT_PARTIAL
        (bundle,) = built
        assert bundle.http._session in closed

    def test_version_flag(self, capsys):
        assert main_refresh_uids(["--version"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("refresh-uids ")


class TestPackaging:
    def test_console_scripts_installed(self):
        import importlib.metadata
        from pathlib import Path

        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts.get("token-push") == "managed_tokens.cli:main_token_push"
        assert scripts.get("refresh-uids") == "managed_tokens.cli:main_refresh_uids"
        # Historical alias kept for existing cron entries.
        assert scripts.get("refresh-uids-from-ferry") == (
            "managed_tokens.cli:main_refresh_uids")

        for target in scripts.values():
            module, _, attr = target.partition(":")
            func = getattr(importlib.import_module(module), attr, None)
            assert callable(func), target

        # An installed distribution must carry the declared entry points.
        try:
            dist = importlib.metadata.distribution("managed-tokens")
        except importlib.metadata.PackageNotFoundError:
            return
        installed = {ep.name: ep.value
                     for ep in dist.entry_points.select(group="console_scripts")}
        assert installed == scripts


class TestFormatReport:
    def test_empty_transfer_error_reads_transfer_failed(self, sim_site, capsys):
        faults = {"transfer:submit2.example.org": {"pattern": [{"fail": ""}]}}
        config = sim_config(sim_site, fault_schedules=faults, retry={"max_attempts": 1})
        assert main_token_push(["--config", config]) == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "@ submit2.example.org: transfer failed (after 1 attempt(s))" in out

    def test_exit_codes_stay_in_contract(self, sim_site):
        # Every path through the CLI returns one of the three documented codes.
        outcomes = {
            main_token_push(["--config", sim_config(sim_site)]),
            main_token_push(["--config", "/nope.yaml"]),
            main_token_push([]),
        }
        assert outcomes <= {EXIT_OK, EXIT_PARTIAL, EXIT_SETUP}
