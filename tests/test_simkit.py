"""The in-package test doubles themselves: schedules, scripted adapters,
in-memory transfer, fixture registry, recorders."""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest
import yaml

from managed_tokens import simkit
from managed_tokens.adapters import build_simulation_bundle
from managed_tokens.config import ConfigError
from managed_tokens.interfaces import (
    CommandTimeout,
    TransferError,
    TransportError,
    TransportTimeout,
)
from managed_tokens.notifications import Message
from managed_tokens.orchestrator import run_token_push
from managed_tokens.registry import HttpError, fetch_uid

README = Path(__file__).resolve().parents[1] / "README.md"


class TestFixedClock:
    def test_now_is_constant(self):
        clock = simkit.FixedClock(start=123.0)
        assert clock.now() == 123.0
        clock.sleep(10.0)
        assert clock.now() == 123.0

    def test_advance_on_sleep(self):
        clock = simkit.FixedClock(start=100.0, advance_on_sleep=True)
        clock.sleep(2.5)
        clock.sleep(0.5)
        assert clock.now() == clock.monotonic() == 103.0

    def test_sleep_never_blocks(self):
        import time
        clock = simkit.FixedClock()
        begin = time.monotonic()
        clock.sleep(60.0)
        assert time.monotonic() - begin < 1.0


class TestFaultSchedule:
    def test_repeating_pattern_cycles(self):
        schedule = simkit.FaultSchedule("t", (simkit.fail("x"), simkit.succeed()))
        kinds = [schedule.behavior_at(i).kind for i in range(5)]
        assert kinds == ["fail", "succeed", "fail", "succeed", "fail"]

    def test_non_repeating_pattern_exhausts(self):
        schedule = simkit.FaultSchedule("t", (simkit.succeed(),), repeat=False)
        schedule.behavior_at(0)
        with pytest.raises(simkit.ScheduleExhausted, match="'t'"):
            schedule.behavior_at(1)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            simkit.FaultSchedule("t", ())

    def test_always_succeed(self):
        schedule = simkit.always_succeed("x")
        assert all(schedule.behavior_at(i).kind == "succeed" for i in range(10))


class TestLoadFaultSchedules:
    def write(self, tmp_path, payload):
        path = tmp_path / "faults.yaml"
        path.write_text(yaml.safe_dump(payload))
        return str(path)

    def test_full_format(self, tmp_path):
        path = self.write(tmp_path, {
            "ticket": {"pattern": ["succeed", {"fail": "kdc down"},
                                   {"delay": 0.25}, "hang"], "repeat": False},
            "transfer:submit1": {"pattern": [{"fail": "no route"}]},
        })
        schedules = simkit.load_fault_schedules(path)
        assert set(schedules) == {"ticket", "transfer:submit1"}
        ticket = schedules["ticket"]
        assert [b.kind for b in ticket.pattern] == ["succeed", "fail", "delay",
                                                    "hang"]
        assert ticket.pattern[1].message == "kdc down"
        assert ticket.pattern[2].delay == 0.25
        assert ticket.repeat is False
        assert schedules["transfer:submit1"].repeat is True

    def test_empty_file_gives_no_schedules(self, tmp_path):
        path = tmp_path / "faults.yaml"
        path.write_text("")
        assert simkit.load_fault_schedules(str(path)) == {}

    @pytest.mark.parametrize("payload", [
        ["a", "list"],
        {"ticket": "succeed"},
        {"ticket": {"pattern": []}},
        {"ticket": {"pattern": ["warp"]}},
        {"ticket": {"pattern": [{"fail": "x", "delay": 1}]}},
    ])
    def test_malformed_files_rejected(self, tmp_path, payload):
        with pytest.raises(ConfigError):
            simkit.load_fault_schedules(self.write(tmp_path, payload))


class TestScriptedRunner:
    def test_replay_in_order(self):
        schedule = simkit.FaultSchedule(
            "t", (simkit.fail("first"), simkit.succeed()), repeat=False)
        runner = simkit.scripted_runner(schedule, clock=simkit.FixedClock())
        first = runner.run(["cmd"])
        second = runner.run(["cmd"])
        assert (first.exit_code, first.stderr) == (1, "first")
        assert second.exit_code == 0
        assert [e.outcome for e in runner.log.entries()] == ["fail", "ok"]

    def test_hang_raises_after_consuming_the_timeout(self):
        clock = simkit.FixedClock(start=50.0, advance_on_sleep=True)
        runner = simkit.scripted_runner(
            simkit.FaultSchedule("t", (simkit.hang(),)), clock=clock)
        with pytest.raises(CommandTimeout) as err:
            runner.run(["cmd"], timeout=30.0)
        assert err.value.timeout == 30.0
        (entry,) = runner.log.entries()
        assert entry.outcome == "timeout"
        assert entry.end - entry.start == 30.0

    def test_delay_advances_the_clock(self):
        clock = simkit.FixedClock(start=0.0, advance_on_sleep=True)
        runner = simkit.scripted_runner(
            simkit.FaultSchedule("t", (simkit.delay(5.0),)), clock=clock)
        inv = runner.run(["cmd"])
        assert inv.exit_code == 0
        (entry,) = runner.log.entries()
        assert entry.end - entry.start == 5.0

    def test_side_effects_fire_on_success_only(self):
        fired = []
        schedule = simkit.FaultSchedule(
            "t", (simkit.fail("no"), simkit.hang(), simkit.succeed()), repeat=False)
        runner = simkit.scripted_runner(
            schedule, side_effects=lambda i, argv, env: fired.append(i),
            clock=simkit.FixedClock())
        runner.run(["cmd"])
        with pytest.raises(CommandTimeout):
            runner.run(["cmd"])
        assert fired == []
        runner.run(["cmd"])
        assert fired == [2]

    def test_callable_side_effects_see_argv_and_env(self):
        seen = []
        runner = simkit.scripted_runner(
            simkit.always_succeed(),
            side_effects=lambda i, argv, env: seen.append((i, argv, dict(env))),
            clock=simkit.FixedClock())
        runner.run(["cmd", "arg"], env_overrides={"K": "V"})
        assert seen == [(0, ("cmd", "arg"), {"K": "V"})]

    def test_write_token_from_env(self, tmp_path):
        effect = simkit.write_token_from_env(content=b"hvs.fake\n")
        path = tmp_path / "nested" / "vt_u1"
        effect(0, ("cmd",), {"MANAGED_TOKENS_DEFAULT_TOKEN_PATH": str(path)})
        assert path.read_bytes() == b"hvs.fake\n"
        assert path.stat().st_mode & 0o177 == 0

    def test_write_token_from_env_without_designation_is_a_no_op(self, tmp_path):
        simkit.write_token_from_env()(0, ("cmd",), {})


class TestRoutedRunner:
    def test_routes_by_basename(self):
        clock = simkit.FixedClock()
        a = simkit.scripted_runner(simkit.always_succeed(), clock=clock, name="a")
        b = simkit.scripted_runner(
            simkit.FaultSchedule("b", (simkit.fail("routed"),)), clock=clock,
            name="b")
        routed = simkit.RoutedRunner({"kinit": a, "storer": b})
        assert routed.run(["/usr/bin/kinit", "-k"]).exit_code == 0
        assert routed.run(["storer", "svc"]).exit_code == 1
        assert len(a.log.entries()) == 1
        assert len(b.log.entries()) == 1

    def test_unrouted_command_without_default(self):
        with pytest.raises(KeyError):
            simkit.RoutedRunner({}).run(["mystery"])


class TestMemoryTransfer:
    def test_round_trip_and_isolation(self, tmp_path):
        local = tmp_path / "token"
        local.write_bytes(b"hvs.data")
        transfer = simkit.MemoryTransfer()
        transfer.put(str(local), "node1", "/remote/a")
        transfer.put(str(local), "node2", "/remote/a")
        assert transfer.get("node1", "/remote/a") == b"hvs.data"
        assert transfer.get("node1", "/remote/b") is None
        assert set(transfer.files()) == {("node1", "/remote/a"),
                                         ("node2", "/remote/a")}

    def test_per_node_fault_schedules(self, tmp_path):
        local = tmp_path / "token"
        local.write_bytes(b"x")
        faults = {"bad": simkit.FaultSchedule("t", (simkit.fail("nope"),))}
        transfer = simkit.MemoryTransfer(faults=faults)
        transfer.put(str(local), "good", "/p")
        with pytest.raises(TransferError, match="nope"):
            transfer.put(str(local), "bad", "/p")

    def test_hang_respects_timeout(self, tmp_path):
        local = tmp_path / "token"
        local.write_bytes(b"x")
        clock = simkit.FixedClock(advance_on_sleep=True)
        faults = {"slow": simkit.FaultSchedule("t", (simkit.hang(),))}
        transfer = simkit.MemoryTransfer(faults=faults, clock=clock)
        with pytest.raises(TransferError, match="timed out"):
            transfer.put(str(local), "slow", "/p", timeout=7.0)

    def test_concurrent_puts_never_tear(self, tmp_path):
        a = tmp_path / "a"
        a.write_bytes(b"A" * 4096)
        b = tmp_path / "b"
        b.write_bytes(b"B" * 4096)
        transfer = simkit.MemoryTransfer()

        def spam(path):
            for _ in range(50):
                transfer.put(str(path), "node", "/contested")

        threads = [threading.Thread(target=spam, args=(p,)) for p in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = transfer.get("node", "/contested")
        assert final in (b"A" * 4096, b"B" * 4096)

    def test_high_water_tracks_concurrency(self, tmp_path):
        local = tmp_path / "token"
        local.write_bytes(b"x")
        transfer = simkit.MemoryTransfer()
        for i in range(5):
            transfer.put(str(local), f"n{i}", "/p")
        assert transfer.high_water == 1


class TestFakeRegistry:
    def test_fixture_hit(self):
        registry = simkit.fake_registry({"duneprod": 1001})
        status, body = registry.request(
            "GET", "http://r.example.org/getUserInfo?username=duneprod")
        assert status == 200
        assert '"uid": 1001' in body
        assert '"ferry_status": "success"' in body
        assert registry.hits == {"duneprod": 1}

    def test_unknown_account_404(self):
        registry = simkit.fake_registry({})
        status, body = registry.request(
            "GET", "http://r.example.org/getUserInfo?username=ghost")
        assert status == 404
        assert "failure" in body

    def test_error_fixture(self):
        registry = simkit.fake_registry(
            {"x": simkit.ErrorFixture(503, "maintenance")})
        status, body = registry.request(
            "GET", "http://r.example.org/getUserInfo?username=x")
        assert (status, body) == (503, "maintenance")

    def test_timeout_fixture(self):
        clock = simkit.FixedClock(start=0.0, advance_on_sleep=True)
        registry = simkit.fake_registry(
            {"x": 1}, faults={"x": simkit.FaultSchedule("x", (simkit.hang(),))},
            clock=clock)
        with pytest.raises(TransportTimeout):
            registry.request("GET", "http://r.example.org/getUserInfo?username=x",
                             timeout=4.0)
        assert clock.now() == 4.0

    def test_one_schedule_entry_per_lookup(self):
        registry = simkit.fake_registry({"x": 1}, faults={"x": simkit.FaultSchedule(
            "x", (simkit.fail("down"), simkit.succeed()), repeat=False)})
        url = "http://r.example.org/getUserInfo?username=x"
        assert registry.request("GET", url) == (500, "down")
        assert registry.request("GET", url)[0] == 200
        assert registry.hits == {"x": 2}

    def test_delay_advances_the_clock(self):
        clock = simkit.FixedClock(start=0.0, advance_on_sleep=True)
        registry = simkit.fake_registry(
            {"x": 1}, faults={"x": simkit.FaultSchedule("x", (simkit.delay(2.5),))},
            clock=clock)
        assert registry.request("GET", "http://r.example.org/getUserInfo?username=x")[0] == 200
        assert clock.now() == 2.5

    def test_unmatched_path_is_404(self):
        registry = simkit.fake_registry({"x": 1})
        status, _ = registry.request("GET", "http://r.example.org/other")
        assert status == 404

    def test_custom_template_and_json_path(self):
        registry = simkit.fake_registry(
            {"x": 7}, endpoint_template="/v2/{account}/uid",
            uid_json_path="data.uid")
        status, body = registry.request("GET", "http://r.example.org/v2/x/uid")
        assert status == 200
        assert '"data"' in body and '"uid": 7' in body

    def test_quoted_account_unquoted_for_lookup(self):
        registry = simkit.fake_registry({"odd name": 5})
        status, _ = registry.request(
            "GET", "http://r.example.org/getUserInfo?username=odd%20name")
        assert status == 200
        assert registry.hits == {"odd name": 1}

    def test_synthetic_uid_is_stable_and_in_range(self):
        first = simkit.synthetic_uid("duneprod")
        assert first == simkit.synthetic_uid("duneprod")
        assert 1000 <= first < 61000
        assert simkit.synthetic_uid("a") != simkit.synthetic_uid("b")


class TestRecorders:
    def test_recording_sink_captures_messages(self):
        sink = simkit.RecordingSink()
        sink.send(["a@x.org"], "subj", "body")
        assert sink.messages == [Message(("a@x.org",), "subj", "body")]

    def test_recording_sink_scripted_failure(self):
        sink = simkit.RecordingSink(schedule=simkit.FaultSchedule(
            "s", (simkit.fail("smtp down"), simkit.succeed()), repeat=False))
        with pytest.raises(RuntimeError, match="smtp down"):
            sink.send(["a@x.org"], "s", "b")
        sink.send(["a@x.org"], "s2", "b2")
        assert [m.subject for m in sink.messages] == ["s2"]

    def test_recording_sink_scripted_hang(self):
        sink = simkit.RecordingSink(schedule=simkit.FaultSchedule(
            "s", (simkit.hang(), simkit.succeed()), repeat=False))
        with pytest.raises(TimeoutError):
            sink.send(["a@x.org"], "s", "b")
        sink.send(["a@x.org"], "s2", "b2")
        assert [m.subject for m in sink.messages] == ["s2"]

    def test_recording_gateway(self):
        gateway = simkit.RecordingGateway(status=202)
        status, _ = gateway.request("PUT", "http://gw/metrics/job/x", body="data")
        assert status == 202
        assert gateway.requests == [("PUT", "/metrics/job/x", "data")]

    def test_unreachable_gateway(self):
        gateway = simkit.RecordingGateway(unreachable=True)
        with pytest.raises(TransportError):
            gateway.request("PUT", "http://gw/metrics/job/x")
        assert gateway.requests == []


class TestInvocationLog:
    def test_canonical_is_interleaving_independent(self):
        log_a = simkit.InvocationLog("x")
        log_b = simkit.InvocationLog("x")
        entries = [(("cmd", str(i)), float(i), float(i + 1), "ok")
                   for i in range(6)]
        for args, start, end, outcome in entries:
            log_a.append(args, start, end, outcome)
        for args, start, end, outcome in reversed(entries):
            log_b.append(args, start, end, outcome)
        assert log_a.entries() != log_b.entries()
        assert log_a.canonical() == log_b.canonical()

    def test_two_identical_scripted_runs_leave_identical_logs(self):
        def run_once():
            clock = simkit.FixedClock(start=10.0, advance_on_sleep=True)
            schedule = simkit.FaultSchedule(
                "t", (simkit.succeed(), simkit.fail("x"), simkit.delay(1.0)))
            runner = simkit.scripted_runner(schedule, clock=clock)
            for i in range(6):
                try:
                    runner.run(["cmd", str(i)], timeout=5.0)
                except CommandTimeout:
                    pass
            return runner.log.canonical()

        assert run_once() == run_once()


class TestSimulationBundle:
    """Fault schedules reach the doubles of ``adapters.build_simulation_bundle``."""

    def build(self, site, fault_schedules: str, **service):
        site.add_service("dune_production", **service)
        path = site.root / "faults.yaml"
        path.write_text(fault_schedules)
        cfg = site.config(adapter_mode="simulation",
                          simulation={"registry_uids": {"duneprod": 1001},
                                      "fault_schedules": str(path)})
        return cfg, build_simulation_bundle(cfg)

    def test_readme_schedules_reach_their_doubles(self, site):
        section = README.read_text().split("## Simulation mode", 1)[1]
        example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg, bundle = self.build(site, example)
        schedules = simkit.load_fault_schedules(cfg.simulation.fault_schedules)
        assert set(schedules) == {"ticket", "storer", "transfer:submit2.example.org",
                                  "registry:duneprod"}
        routes = bundle.runner.routes
        assert routes["kinit"].faults.schedules == {"ticket": schedules["ticket"]}
        assert routes["condor_vault_storer"].faults.schedules == {
            "storer": schedules["storer"]}
        assert bundle.transfer.faults.schedules == {
            "submit2.example.org": schedules["transfer:submit2.example.org"]}
        assert bundle.http.faults.schedules == {"duneprod": schedules["registry:duneprod"]}

    def test_registry_schedule_consumes_one_entry_per_fetch(self, site):
        cfg, bundle = self.build(site, yaml.safe_dump(
            {"registry:duneprod": {"pattern": [{"fail": "down"}, "succeed"]}}))
        with pytest.raises(HttpError) as err:
            fetch_uid(cfg.registry, bundle.http, "duneprod")
        assert (err.value.status, err.value.body) == (500, "down")
        assert fetch_uid(cfg.registry, bundle.http, "duneprod") == 1001

    def test_registry_delay_delays_the_fetch(self, site):
        cfg, bundle = self.build(site, yaml.safe_dump(
            {"registry:duneprod": {"pattern": [{"delay": 0.2}]}}))
        begin = time.monotonic()
        assert fetch_uid(cfg.registry, bundle.http, "duneprod") == 1001
        assert time.monotonic() - begin >= 0.2

    def test_service_command_overrides_are_routed(self, site):
        cfg, bundle = self.build(site, "", overrides={
            "commands.storer": "/opt/site/bin/storer-wrapper {service}"})
        report = run_token_push(cfg, bundle)
        assert report.ok
        assert len(bundle.runner.routes["storer-wrapper"].log.entries()) == 1
