"""End-to-end runs through the engine with hermetic adapters."""

from __future__ import annotations

import os
import sys
import threading

import pytest

from managed_tokens import credentials, simkit
from managed_tokens.config import UnknownService
from managed_tokens.notifications import ErrorEvent
from managed_tokens.orchestrator import (
    EventStream,
    FatalSetupError,
    RunReport,
    StageResult,
    build_spans,
    order_services,
    run_token_push,
    run_uid_refresh,
)
from managed_tokens.statestore import open_store
from managed_tokens.observability import load_spans

from conftest import (
    SubstringRouter,
    assert_pairwise_disjoint,
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

    def test_invalid_staged_token_fails_push_before_any_put(self, site, monkeypatch):
        site.add_service("dune_production")
        cfg = site.config()
        site.seed_uids(site.uid_map())
        store_vault_tokens = credentials.store_vault_tokens

        def world_readable(*args, **kwargs):
            token = store_vault_tokens(*args, **kwargs)
            os.chmod(token.path, 0o644)
            return token

        monkeypatch.setattr(credentials, "store_vault_tokens", world_readable)
        bundle = make_bundle()
        report = run_token_push(cfg, bundle)
        push_result = report.per_service["dune_production"][-1]
        assert push_result.stage == "push" and not push_result.success
        assert push_result.detail.startswith("ValueError: staged token at ")
        assert "failed validation" in push_result.detail
        assert report.push_outcomes == ()
        assert bundle.transfer.log.entries() == ()
        with open_store(cfg.state_dir) as store:
            assert store.counters() == []
        (summary,) = bundle.sink.messages
        assert "failed validation" in summary.body

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
        assert report.notifications_sent == 0
        assert bundle.sink.messages == []
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
        spans = build_spans(self.make_report())
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
        spans = build_spans(self.make_report(ok=False))
        assert spans[0].status == "error"
        assert spans[-1].status == "error"
        assert spans[-1].attributes["detail"] == "failed nodes: n"


class TestEventStream:
    def test_concurrent_emitters_all_collected(self):
        stream = EventStream()

        def emitter(i):
            for j in range(50):
                stream.emit(ErrorEvent(f"svc{i}", "ticket", f"e{j}", float(j)))

        threads = [threading.Thread(target=emitter, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = stream.close()
        assert len(events) == 200
        assert isinstance(events, tuple)

    def test_close_with_nothing_emitted(self):
        assert EventStream().close() == ()


class TestStageResultInvariants:
    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="stage"):
            StageResult("s", "warp", True, 0.0, 1.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            StageResult("s", "ticket", True, 2.0, 1.0)


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
        assert method == "PUT" and path == "/metrics/job/managed_tokens"
        assert "uid_refresh_success_total 1" in body


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

    def test_thread_count_is_bounded_by_services_and_pool(self, site):
        services, nodes, parallelism = 6, 12, 2
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
        assert len(report.push_outcomes) == services * nodes
        assert inner.high_water <= parallelism
        # The callers' threads, one pipeline thread per service, the pool's
        # workers and the event consumer; never a thread per node.
        assert peak[0] <= before + services + parallelism + 2
        assert threading.active_count() == before

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
