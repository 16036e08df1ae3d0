"""End-to-end runs through the engine with hermetic adapters."""

from __future__ import annotations

import dataclasses
import random
import sqlite3
import sys
import threading
import time

import pytest

from managed_tokens import orchestrator, simkit, statestore
from managed_tokens.config import UnknownService
from managed_tokens.observability import report_to_spans
from managed_tokens.orchestrator import (
    FatalSetupError,
    RunReport,
    StageResult,
    order_services,
    run_token_push,
    run_uid_refresh,
)
from managed_tokens.statestore import open_store

from conftest import (
    SteppingBackClock,
    SubstringRouter,
    assert_pairwise_disjoint,
    load_spans,
    make_bundle,
    storer_log,
    ticket_log,
)


def fail_service_command(bundle, command, service, message):
    """Reroute one service's invocations of a command to an always-failing
    scripted runner; siblings keep the original."""
    clock = bundle.clock
    failing = simkit.scripted_runner(
        simkit.FaultSchedule("inject", (simkit.fail(message),)),
        clock=clock, name=f"{command}-fail")
    original = bundle.runner.routes[command]
    bundle.runner.routes[command] = SubstringRouter(original, {service: failing})
    return failing


#: A WLCG bearer token (a JWT), which must never be shipped as a vault token.
BEARER_TOKEN = b"eyJhbGciOiJSUzI1NiJ9.not-a-vault-token\n"


def bearer_token_bundle(**kwargs):
    """A bundle whose storer writes a bearer token instead of a vault token."""
    return make_bundle(storer_side_effects=simkit.write_token_from_env(content=BEARER_TOKEN),
                       **kwargs)


def stages_of(report, service):
    return [r.stage for r in report.per_service[service]]


class TestHappyPath:
    def test_all_services_all_stages(self, site):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        report = run_token_push(cfg, bundle)

        assert report.ok
        assert sorted(report.per_service) == ["dune_production", "mu2e_production"]
        for name in report.per_service:
            assert stages_of(report, name) == ["ticket", "vault_store", "push"]
            assert all(r.success for r in report.per_service[name])
        assert len(report.push_outcomes) == 4  # 2 services x 2 nodes
        assert all(o.success for o in report.push_outcomes)
        assert report.notifications_sent == 0
        assert bundle.sink.messages == []
        assert report.ended >= report.started
        with open_store(cfg.state_dir) as store:
            assert [c.consecutive_failures for c in store.counters()] == [0, 0, 0, 0]

    def test_tokens_land_on_every_node(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        uids = site.uid_map()
        site.seed_uids(uids)
        bundle = make_bundle()
        run_token_push(cfg, bundle)
        uid = uids["duneprod"]
        for node in ("submit1.example.org", "submit2.example.org"):
            user_copy = bundle.transfer.get(node, f"{site.tmp_dir}/vt_u{uid}")
            role_copy = bundle.transfer.get(
                node, f"{site.tmp_dir}/vt_u{uid}-dunevault_production")
            assert user_copy == role_copy
            assert user_copy.startswith(b"hvs.")

    def test_zero_failures_means_zero_sink_calls(self, site):
        site.add_service("dune_production")
        cfg = site.config(notification={"admin_recipients": ["ops@example.org"],
                                        "threshold": 1})
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        report = run_token_push(cfg, bundle)
        assert report.ok
        assert bundle.sink.messages == []
        assert report.notifications_sent == 0


class TestUidResolution:
    def test_live_fetch_records_a_registry_stage_and_persists(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        bundle = make_bundle(uids={"duneprod": 1001})
        report = run_token_push(cfg, bundle)
        assert stages_of(report, "dune_production") == [
            "registry", "ticket", "vault_store", "push"]
        registry_result = report.per_service["dune_production"][0]
        assert registry_result.success
        assert "fetched uid 1001" in registry_result.detail
        with open_store(cfg.state_dir) as store:
            assert store.lookup_uid("duneprod") == 1001

    def test_persisted_uid_skips_the_registry(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        bundle = make_bundle(uids={"duneprod": 1001})
        run_token_push(cfg, bundle)
        report = run_token_push(cfg, make_bundle(uids={"duneprod": 1001},
                                                 gateway=bundle.metrics_http))
        assert stages_of(report, "dune_production") == [
            "ticket", "vault_store", "push"]
        assert bundle.http.hits == {"duneprod": 1}

    def test_registry_failure_blocks_later_stages_for_that_service_only(self, site):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        bundle = make_bundle(uids={"mu2eprod": 2002})  # duneprod missing: 404
        report = run_token_push(cfg, bundle)
        assert not report.ok
        (only,) = report.per_service["dune_production"]
        assert only.stage == "registry" and not only.success
        assert "duneprod" in only.detail
        assert stages_of(report, "mu2e_production") == [
            "registry", "ticket", "vault_store", "push"]
        assert all(r.success for r in report.per_service["mu2e_production"])


    def test_negative_uid_fails_only_the_registry_stage(self, site, caplog):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        bundle = make_bundle(uids={"duneprod": -5, "mu2eprod": 2002})
        with caplog.at_level("ERROR", logger="managed_tokens"):
            report = run_token_push(cfg, bundle)
        (only,) = report.per_service["dune_production"]
        assert (only.stage, only.success) == ("registry", False)
        assert "not an integer >= 0: -5" in only.detail
        assert "pipeline crashed" not in caplog.text
        assert all(r.success for r in report.per_service["mu2e_production"])
        with open_store(cfg.state_dir) as store:
            assert store.lookup_uid("duneprod") is None


    def test_dry_run_persists_fetched_uids(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        report = run_token_push(cfg, make_bundle(uids={"duneprod": 1001}), dry_run=True)
        assert report.ok
        assert stages_of(report, "dune_production") == ["registry", "ticket", "vault_store"]
        with open_store(cfg.state_dir) as store:
            assert [(r.account, r.uid) for r in store.uid_records()] == [("duneprod", 1001)]

    def test_persisted_uids_are_read_without_per_service_lookups(self, site, monkeypatch):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())

        def no_lookups(self, account):
            raise RuntimeError("lookup_uid called")

        monkeypatch.setattr(statestore.Store, "lookup_uid", no_lookups)
        bundle = make_bundle()
        report = run_token_push(cfg, bundle)
        assert report.ok
        assert bundle.http.hits == {}

    def test_only_the_callers_thread_uses_the_store(self, site, monkeypatch):
        site.add_service("dune_production")  # UID persisted
        site.add_service("mu2e_production")  # UID fetched
        cfg = site.config(notification={"admin_recipients": ["ops@example.org"],
                                        "threshold": 1})
        site.seed_uids({"duneprod": 1001})
        calls = []
        for name, method in vars(statestore.Store).items():
            if callable(method) and not name.startswith("_"):
                def recording(self, *args, _name=name, _method=method, **kwargs):
                    calls.append((_name, threading.current_thread()))
                    return _method(self, *args, **kwargs)
                monkeypatch.setattr(statestore.Store, name, recording)
        faults = {"submit2.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        bundle = make_bundle(uids={"mu2eprod": 2002}, transfer_faults=faults)
        report = run_token_push(cfg, bundle)
        assert report.notifications_sent == 3  # two stakeholder batches, one summary
        names = [name for name, _ in calls]
        assert names.count("uid_records") == 1
        assert {"upsert_uid", "prune_counters", "record_push_outcome",
                "mark_notified"} <= set(names)
        assert {thread for _, thread in calls} == {threading.current_thread()}
        with open_store(cfg.state_dir) as store:
            assert store.lookup_uid("mu2eprod") == 2002

    def test_unsaved_uid_is_reported_not_raised(self, site, monkeypatch):
        site.add_service("dune_production")
        cfg = site.config()

        def disk_full(self, account, uid, now):
            raise statestore.StoreError("disk full")

        monkeypatch.setattr(statestore.Store, "upsert_uid", disk_full)
        report = run_token_push(cfg, make_bundle(uids={"duneprod": 1001}))
        assert not report.ok
        unsaved = report.per_service["dune_production"][-2:]
        assert [(r.stage, r.success, r.detail) for r in unsaved] == [
            ("registry", False, "uid not saved: StoreError: disk full"),
            ("push", False, "failure counters not saved: StoreError: disk full")]
        with open_store(cfg.state_dir) as store:
            assert store.uid_records() == [] and store.counters() == []


class TestFailureIsolation:
    def test_ticket_failure_stops_only_that_service(self, site):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        fail_service_command(bundle, "kinit", "dune_production",
                             "kinit: Preauthentication failed")
        report = run_token_push(cfg, bundle)
        assert not report.ok
        dune = report.per_service["dune_production"]
        assert [r.stage for r in dune] == ["ticket"]
        assert not dune[0].success
        assert "Preauthentication failed" in dune[0].detail
        assert all(r.success for r in report.per_service["mu2e_production"])
        # The failed service never reached the storer.
        storer_args = [e.args for e in storer_log(bundle).entries()]
        assert ("condor_vault_storer", "dune_production") not in storer_args

    def test_storer_failure_stops_before_push(self, site):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        fail_service_command(bundle, "condor_vault_storer", "dune_production",
                             "SEC_CREDENTIAL_STORER failed")
        report = run_token_push(cfg, bundle)
        dune = report.per_service["dune_production"]
        assert [r.stage for r in dune] == ["ticket", "vault_store"]
        assert not dune[-1].success
        assert len(report.push_outcomes) == 2  # only the healthy sibling
        assert {o.service for o in report.push_outcomes} == {"mu2e_production"}
        staged = site.state_dir / "tokens" / "dune_production" / "vaulttoken"
        assert not staged.exists()

    def test_push_partial_failure_reported_per_node(self, site):
        site.add_service("dune_production",
                         overrides={"retry.base_backoff": "1ms"})
        cfg = site.config()
        site.seed_uids(site.uid_map())
        faults = {"submit2.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        bundle = make_bundle(transfer_faults=faults)
        report = run_token_push(cfg, bundle)
        assert not report.ok
        push_result = report.per_service["dune_production"][-1]
        assert push_result.stage == "push" and not push_result.success
        assert push_result.detail == "failed nodes: submit2.example.org"
        by_node = {o.node: o for o in report.push_outcomes}
        assert by_node["submit1.example.org"].success
        assert not by_node["submit2.example.org"].success
        with open_store(cfg.state_dir) as store:
            assert store.get_counter("dune_production",
                                     "submit2.example.org").consecutive_failures == 1
            assert store.get_counter("dune_production",
                                     "submit1.example.org").consecutive_failures == 0

    def test_multi_line_transfer_error_is_one_line(self, site):
        site.add_service("dune_production", overrides={"retry.max_attempts": 1})
        cfg = site.config()
        site.seed_uids(site.uid_map())
        faults = {node: simkit.FaultSchedule("t", (simkit.fail("line one\nline two"),))
                  for node in ("submit1.example.org", "submit2.example.org")}
        bundle = make_bundle(transfer_faults=faults)
        report = run_token_push(cfg, bundle)
        assert [o.error for o in report.push_outcomes] == ["line one line two"] * 2
        (summary,) = bundle.sink.messages
        assert [line for line in summary.body.splitlines() if "line" in line] == [
            "  - [push] node=submit1.example.org line one line two",
            "  - [push] node=submit2.example.org line one line two"]

    def test_prefix_check_fails_vault_store_before_any_put(self, site):
        site.add_service("dune_production")
        cfg = site.config(token_prefix_check=True)
        site.seed_uids(site.uid_map())
        bundle = bearer_token_bundle()
        report = run_token_push(cfg, bundle)
        assert stages_of(report, "dune_production") == ["ticket", "vault_store"]
        store_result = report.per_service["dune_production"][-1]
        assert not store_result.success
        assert store_result.detail.startswith("TokenRejected: staged token at ")
        assert report.push_outcomes == ()
        assert bundle.transfer.log.entries() == ()
        with open_store(cfg.state_dir) as store:
            assert store.counters() == []
        (summary,) = bundle.sink.messages
        assert "1 failure(s)" in summary.subject
        assert summary.body.count("TokenRejected") == 1

    def test_prefix_check_off_by_default_pushes_the_same_token(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        bundle = bearer_token_bundle()
        report = run_token_push(cfg, bundle)
        assert report.ok
        assert [o.success for o in report.push_outcomes] == [True, True]
        assert len(bundle.transfer.log.entries()) == 4  # 2 nodes x 2 copies
        with open_store(cfg.state_dir) as store:
            assert [c.consecutive_failures for c in store.counters()] == [0, 0]

    def test_stale_token_at_the_shared_location_is_never_pushed(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        site.seed_uids({"duneprod": 5000})
        stale = site.tmp_dir / "vt_u5000"
        stale.write_bytes(b"hvs.STALE-token-from-yesterday\n")
        with open_store(cfg.state_dir) as store:
            store.record_push_outcome("dune_production", "submit1.example.org", False, 0.0)
            before = store.counters()
        bundle = make_bundle(storer_side_effects=lambda index, argv, env: None)
        report = run_token_push(cfg, bundle)
        assert stages_of(report, "dune_production") == ["ticket", "vault_store"]
        vault_store = report.per_service["dune_production"][-1]
        assert not vault_store.success
        assert vault_store.detail == f"TokenNotProduced: token at {stale} predates this storer run"
        assert bundle.transfer.log.entries() == ()
        assert report.push_outcomes == ()
        assert stale.read_bytes() == b"hvs.STALE-token-from-yesterday\n"
        with open_store(cfg.state_dir) as store:
            assert store.counters() == before

    def test_plumbing_crash_in_one_service_leaves_the_others(self, site, monkeypatch,
                                                               caplog):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        stage = orchestrator._Stages.stage

        def broken_for_dune(self, name, *args):
            if name == "dune_production":  # outside any stage's try, in prepare
                raise RuntimeError("stage plumbing exploded")
            return stage(self, name, *args)

        monkeypatch.setattr(orchestrator._Stages, "stage", broken_for_dune)
        bundle = make_bundle()
        with caplog.at_level("ERROR", logger="managed_tokens"):
            report = run_token_push(cfg, bundle)
        (crashed,) = report.per_service["dune_production"]
        assert (crashed.stage, crashed.success) == ("ticket", False)
        assert crashed.detail == "RuntimeError: stage plumbing exploded"
        assert not report.ok
        assert all(r.success for r in report.per_service["mu2e_production"])
        assert {o.service for o in report.push_outcomes} == {"mu2e_production"}
        assert any("pipeline crashed service=dune_production" in r.message
                   for r in caplog.records)
        (summary,) = bundle.sink.messages
        assert "[ticket] RuntimeError: stage plumbing exploded" in summary.body

    def test_plumbing_crash_at_the_storer_fails_the_vault_store_stage(self, site,
                                                                      monkeypatch):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        store_tokens = orchestrator._Stages.store_tokens

        def broken_for_dune(self, svc, uid):
            if svc.name == "dune_production":
                raise RuntimeError("storer hand-off exploded")
            return store_tokens(self, svc, uid)

        monkeypatch.setattr(orchestrator._Stages, "store_tokens", broken_for_dune)
        report = run_token_push(cfg, make_bundle())
        assert stages_of(report, "dune_production") == ["ticket", "vault_store"]
        crashed = report.per_service["dune_production"][-1]
        assert not crashed.success
        assert crashed.detail == "RuntimeError: storer hand-off exploded"
        assert not report.ok
        assert all(r.success for r in report.per_service["mu2e_production"])

    def test_failed_counter_save_changes_no_counter(self, site, monkeypatch):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        faults = {"submit2.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        run_token_push(cfg, make_bundle(transfer_faults=faults))
        with open_store(cfg.state_dir) as store:
            after_first = store.counters()
        assert [c.consecutive_failures for c in after_first] == [0, 1, 0, 1]

        record = statestore.Store.record_push_outcome
        calls = []

        def third_write_fails(self, service, node, success, now):
            calls.append((service, node))
            if len(calls) == 3:
                raise statestore.StoreError("disk full")
            return record(self, service, node, success, now)

        monkeypatch.setattr(statestore.Store, "record_push_outcome", third_write_fails)
        bundle = make_bundle(clock=simkit.FixedClock(start=1_800_000_000.0))
        report = run_token_push(cfg, bundle)
        assert len(calls) == 3
        with open_store(cfg.state_dir) as store:
            assert store.counters() == after_first
        assert not report.ok
        for name in ("dune_production", "mu2e_production"):
            push_result = report.per_service[name][-1]
            assert push_result.stage == "push" and not push_result.success
            assert push_result.detail == "failure counters not saved: StoreError: disk full"
        # The copies still landed; only their counters could not be saved.
        assert all(o.success for o in report.push_outcomes)
        assert len(bundle.transfer.log.entries()) == 8
        (summary,) = bundle.sink.messages
        assert summary.body.count("failure counters not saved") == 2  # one per service

    def test_non_transfer_error_counts_against_only_that_node(self, site):
        site.add_service("dune_production",
                         nodes=("ok1.example.org", "broken.example.org",
                                "ok2.example.org"))
        cfg = site.config()
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        put = bundle.transfer.put

        def disk_full_on_broken(local_path, node, remote_path, timeout=None):
            if node == "broken.example.org":
                raise OSError("disk full")
            put(local_path, node, remote_path, timeout=timeout)

        bundle.transfer.put = disk_full_on_broken
        report = run_token_push(cfg, bundle)
        push_result = report.per_service["dune_production"][-1]
        assert push_result.detail == "failed nodes: broken.example.org"
        with open_store(cfg.state_dir) as store:
            assert {c.node: c.consecutive_failures for c in store.counters()} == {
                "broken.example.org": 1, "ok1.example.org": 0, "ok2.example.org": 0}

    def test_every_stage_failure_logs_at_error_exactly_once(self, site, caplog):
        site.add_service("dune_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        fail_service_command(bundle, "kinit", "dune_production", "kdc down")
        with caplog.at_level("ERROR", logger="managed_tokens"):
            run_token_push(cfg, bundle)
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert "stage failed" in errors[0].message


class TestDryRun:
    def test_dry_run_contract(self, site):
        site.add_service("dune_production")
        cfg = site.config(
            metrics_gateway_url="http://gw.example.org:9091",
            notification={"admin_recipients": ["ops@example.org"], "threshold": 1})
        site.seed_uids(site.uid_map())
        faults = {"submit1.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("would have failed"),))}
        bundle = make_bundle(transfer_faults=faults)
        report = run_token_push(cfg, bundle, dry_run=True)

        assert report.ok
        assert stages_of(report, "dune_production") == ["ticket", "vault_store"]
        assert len(storer_log(bundle).entries()) == 1  # storer really ran
        assert bundle.transfer.log.entries() == ()  # push never invoked
        assert report.push_outcomes == ()
        assert report.notifications_sent == 0
        assert bundle.sink.messages == []
        with open_store(cfg.state_dir) as store:
            assert store.counters() == []  # no outcome recorded
        # Telemetry still flows on a dry run.
        assert len(bundle.metrics_http.requests) == 1

    def test_dry_run_stages_the_token(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        run_token_push(cfg, make_bundle(), dry_run=True)
        staged = site.state_dir / "tokens" / "dune_production" / "vaulttoken"
        assert staged.is_file() and staged.stat().st_size > 0


    def test_dry_run_deletes_no_counter(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        with open_store(cfg.state_dir) as store:
            store.record_push_outcome("gone_production", "submit1.example.org", False, 0.0)
        run_token_push(cfg, make_bundle(), dry_run=True)
        with open_store(cfg.state_dir) as store:
            assert [(c.service, c.node) for c in store.counters()] == [
                ("gone_production", "submit1.example.org")]
        run_token_push(cfg, make_bundle())
        with open_store(cfg.state_dir) as store:
            assert [(c.service, c.node) for c in store.counters()] == [
                ("dune_production", "submit1.example.org"),
                ("dune_production", "submit2.example.org")]


class TestSelection:
    def test_order_is_lexicographic(self, site):
        for name in ("c_svc", "a_svc", "b_svc"):
            site.add_service(name)
        cfg = site.config()
        assert order_services(cfg) == ["a_svc", "b_svc", "c_svc"]
        assert order_services(cfg, ["c_svc", "a_svc"]) == ["a_svc", "c_svc"]

    def test_unknown_selection_raises_with_names(self, site):
        site.add_service("a_svc")
        with pytest.raises(UnknownService, match="ghost"):
            order_services(site.config(), ["ghost"])

    def test_selection_limits_the_run(self, site):
        site.add_service("a_svc")
        site.add_service("b_svc")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        report = run_token_push(cfg, bundle, selection=["b_svc"])
        assert list(report.per_service) == ["b_svc"]
        assert all("b_svc" in " ".join(e.args)
                   for e in ticket_log(bundle).entries())

    def test_selection_run_leaves_other_services_counters(self, site):
        site.add_service("a_svc")
        site.add_service("b_svc")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        faults = {"submit2.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        run_token_push(cfg, make_bundle(transfer_faults=faults))
        run_token_push(cfg, make_bundle(), selection=["a_svc"])
        with open_store(cfg.state_dir) as store:
            assert [(c.service, c.node, c.consecutive_failures) for c in store.counters()] == [
                ("a_svc", "submit1.example.org", 0), ("a_svc", "submit2.example.org", 0),
                ("b_svc", "submit1.example.org", 0), ("b_svc", "submit2.example.org", 1)]

    def test_unknown_selection_is_fatal_before_any_stage(self, site):
        site.add_service("a_svc")
        cfg = site.config()
        bundle = make_bundle()
        with pytest.raises(FatalSetupError, match="ghost"):
            run_token_push(cfg, bundle, selection=["ghost"])
        assert ticket_log(bundle).entries() == ()


class TestFatalSetup:
    def test_locked_store(self, site):
        site.add_service("a_svc")
        cfg = site.config()
        holder = open_store(cfg.state_dir)
        try:
            with pytest.raises(FatalSetupError, match="state store"):
                run_token_push(cfg, make_bundle())
        finally:
            holder.close()

    def test_unusable_state_dir(self, site, tmp_path):
        site.add_service("a_svc")
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory")
        cfg = site.config(state_dir=str(blocker))
        with pytest.raises(FatalSetupError):
            run_token_push(cfg, make_bundle())

    def test_unreadable_uid_table(self, site, monkeypatch):
        site.add_service("a_svc")
        cfg = site.config()

        def malformed(self):
            raise sqlite3.DatabaseError("database disk image is malformed")

        monkeypatch.setattr(statestore.Store, "uid_records", malformed)
        bundle = make_bundle()
        with pytest.raises(FatalSetupError, match="state store unusable: database disk"):
            run_token_push(cfg, bundle)
        assert ticket_log(bundle).entries() == ()
        open_store(cfg.state_dir).close()  # the lock was released

    def test_refresh_with_locked_store(self, site):
        site.add_service("a_svc")
        cfg = site.config()
        holder = open_store(cfg.state_dir)
        try:
            with pytest.raises(FatalSetupError):
                run_uid_refresh(cfg, make_bundle())
        finally:
            holder.close()


class TestGracefulShutdown:
    def test_cancel_before_start_aborts_every_service(self, site, caplog):
        site.add_service("a_svc")
        site.add_service("b_svc")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        cancel = threading.Event()
        cancel.set()
        with caplog.at_level("WARNING", logger="managed_tokens"):
            report = run_token_push(cfg, bundle, cancel=cancel)
        assert not report.ok
        for name in ("a_svc", "b_svc"):
            (only,) = report.per_service[name]
            assert only.detail == "aborted: shutdown requested"
            assert not only.success
            assert only.started == only.ended
        assert ticket_log(bundle).entries() == ()
        assert report.notifications_sent == 1  # the admin summary only
        (summary,) = bundle.sink.messages
        assert summary.recipients == ("ops@example.org",)
        assert "2 failure(s) across 2 service(s)" in summary.subject
        for name in ("a_svc", "b_svc"):
            assert f"{name}:\n  - [ticket] aborted: shutdown requested\n" in summary.body
        aborts = [r for r in caplog.records if "aborted" in r.message]
        assert aborts and all(r.levelname == "WARNING" for r in aborts)

    def test_cancel_mid_run_skips_later_stages(self, site):
        site.add_service("a_svc")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        cancel = threading.Event()

        class CancellingRunner:
            """Succeeds as the ticket command, then requests shutdown."""

            def __init__(self, inner):
                self.inner = inner

            def run(self, argv, env_overrides=None, timeout=None):
                result = self.inner.run(argv, env_overrides=env_overrides,
                                        timeout=timeout)
                cancel.set()
                return result

        bundle.runner.routes["kinit"] = CancellingRunner(
            bundle.runner.routes["kinit"])
        report = run_token_push(cfg, bundle, cancel=cancel)
        results = report.per_service["a_svc"]
        assert [r.stage for r in results] == ["ticket", "vault_store"]
        assert results[0].success
        assert results[1].detail == "aborted: shutdown requested"
        assert storer_log(bundle).entries() == ()


    def test_cancel_during_the_first_attempt_starts_no_other(self, site):
        site.add_service("dune_production", nodes=("down.example.org",),
                         overrides={"retry.max_attempts": 6, "retry.base_backoff": "100s"})
        cfg = site.config()
        site.seed_uids(site.uid_map())
        with open_store(cfg.state_dir) as store:
            for _ in range(2):
                store.record_push_outcome("dune_production", "down.example.org", False, 0.0)
            before = store.counters()
        faults = {"down.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        bundle = make_bundle(clock=simkit.FixedClock(advance_on_sleep=True),
                             transfer_faults=faults)
        cancel = threading.Event()

        class CancellingTransfer:
            """Requests shutdown inside the first copy, which then fails."""

            def put(self, *args, **kwargs):
                cancel.set()
                return bundle.transfer.put(*args, **kwargs)

        started = bundle.clock.monotonic()
        report = run_token_push(cfg, dataclasses.replace(bundle, transfer=CancellingTransfer()),
                                cancel=cancel)
        assert len(bundle.transfer.log.entries()) == 1
        assert bundle.clock.monotonic() - started < 100  # no backoff slept
        (outcome,) = report.push_outcomes
        assert (outcome.success, outcome.attempts, outcome.error) == (
            False, 1, "aborted: shutdown requested")
        push = report.per_service["dune_production"][-1]
        assert (push.stage, push.success, push.detail) == (
            "push", False, "failed nodes: down.example.org")
        with open_store(cfg.state_dir) as store:
            assert store.counters() == before

    def test_cancel_wakes_a_backoff_sleep(self, site):
        site.add_service("dune_production", nodes=("down.example.org",),
                         overrides={"retry.max_attempts": 2, "retry.base_backoff": "30s"})
        cfg = site.config()
        site.seed_uids(site.uid_map())
        with open_store(cfg.state_dir) as store:
            store.record_push_outcome("dune_production", "down.example.org", False, 0.0)
            before = store.counters()
        cancel = threading.Event()
        timers = []

        class CancelDuringSleep(simkit.SystemClock):
            """Requests shutdown 0.1 s into each sleep."""

            def sleep(self, seconds, *args, **kwargs):
                timers.append(threading.Timer(0.1, cancel.set))
                timers[-1].start()
                super().sleep(seconds, *args, **kwargs)

        class TopOfWindow(random.Random):
            def uniform(self, a, b):
                return b

        faults = {"down.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        bundle = make_bundle(clock=CancelDuringSleep(), transfer_faults=faults)
        started = time.monotonic()
        report = run_token_push(cfg, dataclasses.replace(bundle, rng=TopOfWindow()),
                                cancel=cancel)
        elapsed = time.monotonic() - started
        for timer in timers:
            timer.join(timeout=5)
        assert len(timers) == 1  # the one backoff sleep, of 30 s
        assert elapsed < 2
        (outcome,) = report.push_outcomes
        assert (outcome.success, outcome.attempts, outcome.error) == (
            False, 1, "aborted: shutdown requested")
        with open_store(cfg.state_dir) as store:
            assert store.counters() == before


class TestNotificationsWiring:
    def test_threshold_one_pages_stakeholders_immediately(self, site):
        site.add_service("dune_production",
                         overrides={"retry.base_backoff": "1ms"})
        cfg = site.config(notification={"admin_recipients": ["ops@example.org"],
                                        "threshold": 1})
        site.seed_uids(site.uid_map())
        faults = {"submit2.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route"),))}
        bundle = make_bundle(transfer_faults=faults)
        report = run_token_push(cfg, bundle)
        assert report.notifications_sent == 2  # stakeholder batch + admin summary
        subjects = [m.subject for m in bundle.sink.messages]
        assert ("[managed-tokens] dune_production: token distribution failures"
                in subjects)
        assert any(s.startswith("[managed-tokens] run ") for s in subjects)
        recipients = {r for m in bundle.sink.messages for r in m.recipients}
        assert recipients == {"dune_production-admins@example.org",
                              "ops@example.org"}

    def test_failed_stakeholder_send_is_sent_on_the_next_run(self, site):
        site.add_service("dune_production",
                         nodes=("good.example.org", "bad.example.org"),
                         overrides={"retry.base_backoff": "1ms",
                                    "retry.max_attempts": 2})
        cfg = site.config(notification={"admin_recipients": ["ops@example.org"],
                                        "threshold": 3})
        site.seed_uids(site.uid_map())
        faults = {"bad.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        for _ in range(2):
            run_token_push(cfg, make_bundle(transfer_faults=faults))
        # Streak 3 is due, but the stakeholder send (the first) fails.
        smtp_down = simkit.RecordingSink(schedule=simkit.FaultSchedule(
            "sink", (simkit.fail("smtp down"), simkit.succeed())))
        report = run_token_push(cfg, make_bundle(transfer_faults=faults, sink=smtp_down))
        assert report.notifications_sent == 1  # the admin summary only
        with open_store(cfg.state_dir) as store:
            counter = store.get_counter("dune_production", "bad.example.org")
        assert (counter.consecutive_failures, counter.last_notified_count) == (3, 0)

        bundle = make_bundle(transfer_faults=faults)
        report = run_token_push(cfg, bundle)
        assert report.notifications_sent == 2
        (batch,) = [m for m in bundle.sink.messages
                    if m.recipients == ("dune_production-admins@example.org",)]
        assert "bad.example.org: 4 consecutive failed distribution attempts" in batch.body
        with open_store(cfg.state_dir) as store:
            counter = store.get_counter("dune_production", "bad.example.org")
        assert counter.last_notified_count == 4

    def leave_submit2_due(self, site):
        """Threshold 1; one run fails submit2 and its stakeholder send fails,
        so submit2's saved streak of 1 is still due."""
        site.add_service("dune_production",
                         overrides={"retry.base_backoff": "1ms",
                                    "retry.max_attempts": 2})
        cfg = site.config(notification={"admin_recipients": ["ops@example.org"],
                                        "threshold": 1})
        site.seed_uids(site.uid_map())
        faults = {"submit2.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        smtp_down = simkit.RecordingSink(schedule=simkit.FaultSchedule(
            "sink", (simkit.fail("smtp down"), simkit.succeed())))
        run_token_push(cfg, make_bundle(transfer_faults=faults, sink=smtp_down))
        with open_store(cfg.state_dir) as store:
            counter = store.get_counter("dune_production", "submit2.example.org")
        assert (counter.consecutive_failures, counter.last_notified_count) == (1, 0)
        return cfg

    def test_node_that_comes_back_starts_a_new_streak(self, site):
        def configure(nodes):
            site.add_service("dune_production", nodes=nodes,
                             overrides={"retry.max_attempts": 1})
            return site.config(notification={"admin_recipients": ["ops@example.org"],
                                             "threshold": 3})

        with_old = ("submit1.example.org", "old.example.org")
        site.seed_uids({"duneprod": 1001})
        faults = {"old.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        for _ in range(2):
            run_token_push(configure(with_old), make_bundle(transfer_faults=faults))
        run_token_push(configure(("submit1.example.org",)), make_bundle())
        bundle = make_bundle(transfer_faults=faults)
        report = run_token_push(configure(with_old), bundle)
        (summary,) = bundle.sink.messages  # no stakeholder page
        assert report.notifications_sent == 1
        assert summary.recipients == ("ops@example.org",)
        with open_store(site.config().state_dir) as store:
            counter = store.get_counter("dune_production", "old.example.org")
        assert counter.consecutive_failures == 1

    def test_failed_counter_save_pages_nobody_from_an_old_counter(self, site,
                                                                  monkeypatch):
        cfg = self.leave_submit2_due(site)

        def disk_full(self, service, node, success, now):
            raise statestore.StoreError("disk full")

        monkeypatch.setattr(statestore.Store, "record_push_outcome", disk_full)
        bundle = make_bundle()
        report = run_token_push(cfg, bundle)
        assert all(o.success for o in report.push_outcomes)
        assert report.notifications_sent == 1  # the admin summary only
        (summary,) = bundle.sink.messages
        assert summary.recipients == ("ops@example.org",)
        assert summary.body.count("failure counters not saved") == 1  # one per service
        monkeypatch.undo()
        with open_store(cfg.state_dir) as store:
            counter = store.get_counter("dune_production", "submit2.example.org")
        assert (counter.consecutive_failures, counter.last_notified_count) == (1, 0)

    def test_token_failing_validation_pages_nobody_from_an_old_counter(self, site):
        cfg = self.leave_submit2_due(site)
        cfg = dataclasses.replace(cfg, token_prefix_check=True)
        bundle = bearer_token_bundle()
        report = run_token_push(cfg, bundle)
        assert report.push_outcomes == ()
        assert report.notifications_sent == 1  # the admin summary only
        (summary,) = bundle.sink.messages
        assert summary.recipients == ("ops@example.org",)
        assert "1 failure(s)" in summary.subject
        assert summary.body.count("TokenRejected") == 1

    def test_unsaved_watermark_still_sends_the_admin_summary(self, site, monkeypatch,
                                                             caplog):
        site.add_service("dune_production",
                         overrides={"retry.base_backoff": "1ms",
                                    "retry.max_attempts": 2})
        cfg = site.config(notification={"admin_recipients": ["ops@example.org"],
                                        "threshold": 1})
        site.seed_uids(site.uid_map())
        faults = {"submit2.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}

        def disk_full(self, service, node):
            raise statestore.StoreError("disk full")

        monkeypatch.setattr(statestore.Store, "mark_notified", disk_full)
        bundle = make_bundle(transfer_faults=faults)
        with caplog.at_level("ERROR", logger="managed_tokens"):
            report = run_token_push(cfg, bundle)
        assert not report.ok
        assert report.notifications_sent == 2
        assert [m.recipients for m in bundle.sink.messages] == [
            ("dune_production-admins@example.org",), ("ops@example.org",)]
        unsaved = "watermark not saved service=dune_production error=StoreError: disk full"
        assert unsaved in caplog.text
        assert unsaved in bundle.sink.messages[-1].body
        monkeypatch.undo()
        # Still due, so the next run pages again: delivery is at-least-once.
        with open_store(cfg.state_dir) as store:
            counter = store.get_counter("dune_production", "submit2.example.org")
        assert (counter.consecutive_failures, counter.last_notified_count) == (1, 0)

    def test_push_wide_error_is_listed_once(self, site):
        # Distinct templates that render to the same path fail the push as a
        # whole, before any node is tried.
        site.add_service("dune_production", overrides={
            "destination_templates.user": f"{site.tmp_dir}/{{role}}",
            "destination_templates.role": f"{site.tmp_dir}/production"})
        cfg = site.config()
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        report = run_token_push(cfg, bundle)
        push_result = report.per_service["dune_production"][-1]
        assert push_result.stage == "push" and not push_result.success
        assert push_result.detail == "ValueError: destination paths must be distinct"
        assert report.push_outcomes == ()
        (summary,) = bundle.sink.messages
        assert "1 failure(s) across 1 service(s)" in summary.subject
        assert summary.body.count("ValueError") == 1

    def test_batch_without_recipients_is_named_in_the_summary(self, site, caplog):
        site.add_service("dune_production", stakeholder_emails=(),
                         overrides={"retry.base_backoff": "1ms",
                                    "retry.max_attempts": 2})
        cfg = site.config(notification={"admin_recipients": ["ops@example.org"],
                                        "threshold": 1})
        site.seed_uids(site.uid_map())
        faults = {"submit2.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        bundle = make_bundle(transfer_faults=faults)
        with caplog.at_level("WARNING", logger="managed_tokens"):
            report = run_token_push(cfg, bundle)
        assert report.notifications_sent == 1  # the admin summary only
        (summary,) = bundle.sink.messages
        unsent = "batch not sent service=dune_production: no stakeholder_emails"
        assert unsent in summary.body
        assert unsent in caplog.text
        with open_store(cfg.state_dir) as store:
            counter = store.get_counter("dune_production", "submit2.example.org")
        assert (counter.consecutive_failures, counter.last_notified_count) == (1, 0)

    def test_non_push_failures_reach_only_the_admin_summary(self, site):
        site.add_service("dune_production")
        cfg = site.config(notification={"admin_recipients": ["ops@example.org"],
                                        "threshold": 1})
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        fail_service_command(bundle, "kinit", "dune_production", "kdc down")
        report = run_token_push(cfg, bundle)
        assert report.notifications_sent == 1
        (message,) = bundle.sink.messages
        assert message.recipients == ("ops@example.org",)
        assert "kdc down" in message.body


class TestTelemetryWiring:
    def test_metrics_put_exactly_once_per_run(self, site):
        site.add_service("a_svc")
        cfg = site.config(metrics_gateway_url="http://gw.example.org:9091")
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        run_token_push(cfg, bundle)
        puts = [r for r in bundle.metrics_http.requests if r[0] == "PUT"]
        assert len(puts) == 1
        assert puts[0][1] == "/metrics/job/managed_tokens"

    def test_no_gateway_no_push(self, site):
        site.add_service("a_svc")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        bundle = make_bundle()
        run_token_push(cfg, bundle)
        assert bundle.metrics_http.requests == []

    def test_unreachable_gateway_never_fails_the_run(self, site):
        site.add_service("a_svc")
        cfg = site.config(metrics_gateway_url="http://gw.example.org:9091")
        site.seed_uids(site.uid_map())
        bundle = make_bundle(gateway=simkit.RecordingGateway(unreachable=True))
        report = run_token_push(cfg, bundle)
        assert report.ok

    def test_spans_exported_to_file(self, site, tmp_path):
        for name in ("a_svc", "b_svc", "c_svc"):
            site.add_service(name)
        span_path = tmp_path / "spans.jsonl"
        cfg = site.config(trace_export=str(span_path))
        site.seed_uids(site.uid_map())
        report = run_token_push(cfg, make_bundle())
        spans = load_spans(str(span_path))
        stage_count = sum(len(v) for v in report.per_service.values())
        assert len(spans) == 1 + stage_count
        (root,) = [s for s in spans if s.parent_id is None]
        assert root.name == "token-push"
        assert all(s.trace_id == root.trace_id for s in spans)
        assert all(s.parent_id == root.span_id for s in spans if s is not root)
        vault_spans = [s for s in spans if s.name.endswith("/vault_store")]
        assert len(vault_spans) == 3
        assert_pairwise_disjoint([(s.start, s.end) for s in vault_spans])


    def test_selection_runs_push_to_their_own_groups(self, site):
        site.add_service("a_svc")
        site.add_service("b_svc")
        cfg = site.config(metrics_gateway_url="http://gw.example.org:9091")
        site.seed_uids(site.uid_map())
        gateway = simkit.RecordingGateway()
        for selection in (None, ["a_svc"], ["b_svc"], ["b_svc", "a_svc"]):
            run_token_push(cfg, make_bundle(gateway=gateway), selection=selection)
        assert [path for _, path, _ in gateway.requests] == [
            "/metrics/job/managed_tokens",
            "/metrics/job/managed_tokens/selection/a_svc",
            "/metrics/job/managed_tokens/selection/b_svc",
            "/metrics/job/managed_tokens/selection/a_svc%2Bb_svc"]


class TestBackwardClock:
    def test_clock_stepping_back_mid_run_fails_no_stage(self, site, tmp_path):
        site.add_service("dune_production")
        span_path = tmp_path / "spans.jsonl"
        cfg = site.config(trace_export=str(span_path))
        site.seed_uids(site.uid_map())
        report = run_token_push(cfg, make_bundle(clock=SteppingBackClock()))
        assert report.ok
        assert stages_of(report, "dune_production") == ["ticket", "vault_store", "push"]
        assert report.ended >= report.started
        assert all(r.ended >= r.started for r in report.per_service["dune_production"])
        spans = load_spans(str(span_path))
        assert len(spans) == 4
        assert all(span.end >= span.start for span in spans)


class TestBuildSpans:
    def make_report(self, ok=True):
        results = (
            StageResult("a", "ticket", True, 1.0, 2.0, ""),
            StageResult("a", "vault_store", True, 2.0, 3.0, "staged"),
            StageResult("a", "push", ok, 3.0, 4.0, "" if ok else "failed nodes: n"),
        )
        return RunReport(run_id="r1", started=0.0, ended=5.0,
                         per_service={"a": results})

    def test_structure(self):
        spans = report_to_spans(self.make_report())
        assert len(spans) == 4
        root = spans[0]
        assert root.parent_id is None and root.status == "ok"
        assert root.attributes == {"run_id": "r1"}
        names = [s.name for s in spans[1:]]
        assert names == ["a/ticket", "a/vault_store", "a/push"]
        for span in spans[1:]:
            assert span.parent_id == root.span_id
            assert root.start <= span.start <= span.end <= root.end

    def test_failure_marks_root_and_stage(self):
        spans = report_to_spans(self.make_report(ok=False))
        assert spans[0].status == "error"
        assert spans[-1].status == "error"
        assert spans[-1].attributes["detail"] == "failed nodes: n"


class TestUidRefresh:
    def test_shared_accounts_fetched_once(self, site):
        site.add_service("dune_production", account="sharedprod")
        site.add_service("dune_analysis", account="sharedprod", role="analysis")
        site.add_service("mu2e_production")
        cfg = site.config()
        bundle = make_bundle(uids={"sharedprod": 1001, "mu2eprod": 2002})
        report = run_uid_refresh(cfg, bundle)
        assert (report.ok, report.failed) == (2, 0)
        assert bundle.http.hits == {"sharedprod": 1, "mu2eprod": 1}
        with open_store(cfg.state_dir) as store:
            assert store.lookup_uid("sharedprod") == 1001

    def test_partial_failure_reported(self, site):
        site.add_service("dune_production")
        site.add_service("mu2e_production")
        cfg = site.config()
        bundle = make_bundle(uids={"duneprod": 1001})  # mu2eprod missing
        report = run_uid_refresh(cfg, bundle)
        assert (report.ok, report.failed) == (1, 1)
        assert "mu2eprod" in report.errors

    def test_refresh_pushes_metrics_when_configured(self, site):
        site.add_service("dune_production")
        cfg = site.config(metrics_gateway_url="http://gw.example.org:9091")
        bundle = make_bundle(uids={"duneprod": 1001})
        run_uid_refresh(cfg, bundle)
        ((method, path, body),) = bundle.metrics_http.requests
        assert method == "PUT" and path == "/metrics/job/managed_tokens_uid_refresh"
        assert "uid_refresh_success_total 1" in body

    def test_refresh_and_token_push_replace_different_groups(self, site):
        # A Pushgateway PUT replaces its whole group, so one group for both
        # executables would let each push wipe the other's series.
        site.add_service("dune_production")
        cfg = site.config(metrics_gateway_url="http://gw.example.org:9091")
        site.seed_uids(site.uid_map())
        gateway = simkit.RecordingGateway()
        run_token_push(cfg, make_bundle(gateway=gateway))
        run_uid_refresh(cfg, make_bundle(uids={"duneprod": 1001}, gateway=gateway))
        (_, push_group, push_body), (_, refresh_group, refresh_body) = gateway.requests
        assert push_group != refresh_group
        assert "stage_success_total" in push_body
        assert "uid_refresh_success_total" in refresh_body


class TestConcurrency:
    def test_vault_store_serialized_while_tickets_overlap(self, site):
        for i in range(4):
            site.add_service(f"svc{i}_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        clock = simkit.SystemClock()
        bundle = make_bundle(
            clock=clock,
            ticket_schedule=simkit.FaultSchedule("t", (simkit.delay(0.03),)),
            storer_schedule=simkit.FaultSchedule("s", (simkit.delay(0.03),)),
        )
        report = run_token_push(cfg, bundle)
        assert report.ok
        storer_intervals = [(e.start, e.end) for e in storer_log(bundle).entries()]
        assert len(storer_intervals) == 4
        assert_pairwise_disjoint(storer_intervals)
        ticket_intervals = sorted(
            (e.start, e.end) for e in ticket_log(bundle).entries())
        overlapping = any(
            a_end > b_start
            for (a_start, a_end), (b_start, b_end) in zip(ticket_intervals,
                                                          ticket_intervals[1:]))
        assert overlapping, "expected ticket acquisitions to overlap in time"

    @staticmethod
    def peak_threads_in_put(site, services, nodes, parallelism):
        """Run S services of N nodes on a pool of P; return the run's report,
        the thread count before it, and the peak count seen in ``put``."""
        node_names = tuple(f"submit{j:02d}.example.org" for j in range(nodes))
        for i in range(services):
            site.add_service(f"svc{i}_production", nodes=node_names)
        cfg = site.config(transfer_parallelism=parallelism)
        site.seed_uids(site.uid_map())
        bundle = make_bundle(
            clock=simkit.SystemClock(),
            transfer_faults={n: simkit.FaultSchedule("t", (simkit.delay(0.002),))
                             for n in node_names})
        inner = bundle.transfer
        mutex = threading.Lock()
        peak = [0]

        class CountingTransfer:
            def put(self, local_path, node, remote_path, timeout=None):
                with mutex:
                    peak[0] = max(peak[0], threading.active_count())
                inner.put(local_path, node, remote_path, timeout=timeout)

        bundle.transfer = CountingTransfer()
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = run_token_push(cfg, bundle)
        finally:
            sys.setswitchinterval(interval)
        assert report.ok
        assert all(len(results) == 3 for results in report.per_service.values())
        assert len(report.push_outcomes) == services * nodes
        assert inner.high_water <= parallelism
        assert threading.active_count() == before
        return before, peak[0]

    @pytest.mark.parametrize("services", [6, 24])
    def test_thread_count_is_independent_of_services(self, site, services):
        parallelism = 2
        before, peak = self.peak_threads_in_put(site, services, 12, parallelism)
        # The storer, the transfer pool and a prepare pool of at most P
        # workers that is still draining; never a thread per service.
        assert peak <= before + 2 * parallelism + 1

    def test_every_uid_fetched_by_the_prepare_pool_is_saved(self, site):
        # 24 accounts fetched by 8 prepare workers on fewer cores, with a short
        # switch interval: a fetched UID lost between workers would be missing.
        for i in range(24):
            site.add_service(f"svc{i:02d}_production", nodes=("n.example.org",))
        cfg = site.config(transfer_parallelism=8)
        uids = site.uid_map()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = run_token_push(cfg, make_bundle(uids=uids))
        finally:
            sys.setswitchinterval(interval)
        assert report.ok
        with open_store(cfg.state_dir) as store:
            assert {r.account: r.uid for r in store.uid_records()} == uids

    def test_down_node_on_a_clock_that_never_advances(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        faults = {"submit2.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        bundle = make_bundle(clock=simkit.FixedClock(), transfer_faults=faults)
        reports = []
        runner = threading.Thread(target=lambda: reports.append(
            run_token_push(cfg, bundle)))
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "run did not finish on a still clock"
        (report,) = reports
        by_node = {o.node: o for o in report.push_outcomes}
        assert by_node["submit1.example.org"].attempts == 1
        assert by_node["submit2.example.org"].attempts == cfg.retry.max_attempts == 3
        failed = [e for e in bundle.transfer.log.entries()
                  if e.args[0] == "submit2.example.org"]
        assert len(failed) == 3
