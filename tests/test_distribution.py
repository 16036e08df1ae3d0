"""Token fan-out: destination rendering, per-node retries, budgeted parallelism."""

from __future__ import annotations

import os
import random
import tempfile
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from managed_tokens import simkit
from managed_tokens.config import RetryPolicy, resolve_service
from managed_tokens.credentials import VaultTokenFile
from managed_tokens.distribution import (
    Destination,
    ParallelismBudget,
    compute_destinations,
    push_all,
    push_token,
)
from managed_tokens.statestore import open_store


def one_service(site, name="dune_production", **add_kwargs):
    site.add_service(name, **add_kwargs)
    return resolve_service(site.config(), name)


@pytest.fixture
def staged_token(tmp_path):
    path = tmp_path / "vaulttoken"
    path.write_bytes(b"hvs.staged-token\n")
    os.chmod(path, 0o600)
    return VaultTokenFile(service="dune_production", path=str(path),
                          acquired_at=0.0, lifetime=604800.0, uid=4521)


def retry(max_attempts=3, base_backoff=0.01):
    return RetryPolicy(max_attempts=max_attempts, base_backoff=base_backoff)


class TestDestinations:
    def test_default_templates(self, site):
        svc = one_service(site)
        dest = compute_destinations(svc, "submit1.example.org", 4521)
        assert dest.node == "submit1.example.org"
        assert dest.paths == (
            f"{svc.tmp_dir}/vt_u4521",
            f"{svc.tmp_dir}/vt_u4521-dunevault_production",
        )

    def test_uid_zero(self, site):
        svc = one_service(site)
        dest = compute_destinations(svc, "n", 0)
        assert dest.paths[0].endswith("/vt_u0")
        assert dest.paths[1].endswith("/vt_u0-dunevault_production")

    def test_negative_uid_rejected(self, site):
        svc = one_service(site)
        with pytest.raises(ValueError):
            compute_destinations(svc, "n", -1)

    def test_custom_templates(self, site):
        site.add_service("dune_production", overrides={
            "destination_templates.user": "/var/tokens/{account}",
            "destination_templates.role": "/var/tokens/{account}.{role}",
        })
        svc = resolve_service(site.config(), "dune_production")
        dest = compute_destinations(svc, "n", 4521)
        assert dest.paths == ("/var/tokens/duneprod",
                              "/var/tokens/duneprod.production")

    def test_tmp_dir_override_argument(self, site):
        svc = one_service(site)
        dest = compute_destinations(svc, "n", 7, tmp_dir="/othertmp")
        assert dest.paths[0] == "/othertmp/vt_u7"

    def test_identical_paths_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Destination(node="n", paths=("/tmp/a", "/tmp/a"))

    def test_relative_path_rejected(self):
        with pytest.raises(ValueError, match="absolute"):
            Destination(node="n", paths=("/tmp/a", "tmp/b"))


class TestPushToken:
    def dest(self):
        return Destination(node="submit1.example.org",
                           paths=("/tmp/vt_u4521", "/tmp/vt_u4521-iss_role"))

    def test_happy_path_lands_both_copies(self, staged_token):
        transfer = simkit.memory_transfer()
        outcome = push_token(staged_token, self.dest(), transfer, retry(),
                             simkit.FixedClock())
        assert outcome.success and outcome.attempts == 1
        node = "submit1.example.org"
        assert transfer.get(node, "/tmp/vt_u4521") == b"hvs.staged-token\n"
        assert transfer.get(node, "/tmp/vt_u4521-iss_role") == b"hvs.staged-token\n"

    def test_fail_once_then_succeed(self, staged_token):
        # Schedules index per put call: attempt 1 is one failed put, attempt 2
        # is two successful puts (one per destination path).
        faults = {"submit1.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("connection reset"), simkit.succeed(),
                  simkit.succeed()))}
        clock = simkit.FixedClock(advance_on_sleep=True)
        transfer = simkit.memory_transfer(faults=faults, clock=clock)
        outcome = push_token(staged_token, self.dest(), transfer, retry(), clock,
                             rng=random.Random(1))
        assert outcome.success
        assert outcome.attempts == 2
        assert outcome.error is None

    def test_always_failing_node(self, staged_token):
        faults = {"submit1.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        clock = simkit.FixedClock(advance_on_sleep=True)
        transfer = simkit.memory_transfer(faults=faults, clock=clock)
        outcome = push_token(staged_token, self.dest(), transfer, retry(), clock,
                             rng=random.Random(1))
        assert not outcome.success
        assert outcome.attempts == 3
        assert "no route to host" in outcome.error
        assert transfer.files() == {}

    def test_partial_copy_is_a_failed_attempt(self, staged_token):
        # Second put of each attempt fails; the attempt never counts.
        faults = {"submit1.example.org": simkit.FaultSchedule(
            "t", (simkit.succeed(), simkit.fail("quota")))}
        clock = simkit.FixedClock(advance_on_sleep=True)
        transfer = simkit.memory_transfer(faults=faults, clock=clock)
        outcome = push_token(staged_token, self.dest(), transfer,
                             retry(max_attempts=2), clock, rng=random.Random(1))
        assert not outcome.success
        assert outcome.attempts == 2

    def test_missing_staged_token_is_a_caller_bug(self, tmp_path):
        token = VaultTokenFile("svc", str(tmp_path / "gone"), 0.0, 1.0, 4521)
        with pytest.raises(ValueError, match="validation"):
            push_token(token, self.dest(), simkit.memory_transfer(), retry(),
                       simkit.FixedClock())

    def test_world_readable_staged_token_rejected(self, staged_token):
        os.chmod(staged_token.path, 0o644)
        with pytest.raises(ValueError):
            push_token(staged_token, self.dest(), simkit.memory_transfer(),
                       retry(), simkit.FixedClock())

    def test_backoff_windows_double_per_attempt(self, staged_token):
        """Replay the jitter draws with an identically seeded RNG and compare
        the slept durations against the full-jitter windows."""
        faults = {"submit1.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("down"),))}
        clock = simkit.FixedClock(advance_on_sleep=True)
        transfer = simkit.memory_transfer(faults=faults, clock=clock)
        policy = retry(max_attempts=4, base_backoff=1.0)
        push_token(staged_token, self.dest(), transfer, policy, clock,
                   rng=random.Random(42))
        slept = clock.now() - simkit.FixedClock().now()
        reference = random.Random(42)
        expected = sum(reference.uniform(0, 1.0 * 2 ** k) for k in range(3))
        assert slept == pytest.approx(expected)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           max_attempts=st.integers(min_value=1, max_value=5))
    def test_attempt_count_never_exceeds_policy(self, seed, max_attempts):
        clock = simkit.FixedClock(advance_on_sleep=True)
        faults = {"n": simkit.FaultSchedule("t", (simkit.fail("x"),))}
        transfer = simkit.memory_transfer(faults=faults, clock=clock)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "tok")
            with open(path, "wb") as fh:
                fh.write(b"hvs.t\n")
            os.chmod(path, 0o600)
            token = VaultTokenFile("svc", path, 0.0, 1.0, 1)
            outcome = push_token(
                token, Destination("n", ("/a", "/b")), transfer,
                retry(max_attempts=max_attempts), clock,
                rng=random.Random(seed))
        assert outcome.attempts == max_attempts
        assert not outcome.success


class TestPushAll:
    def test_all_nodes_served_in_node_order(self, site, staged_token):
        nodes = ("submit3.example.org", "submit1.example.org",
                 "submit2.example.org")
        svc = one_service(site, nodes=nodes)
        transfer = simkit.memory_transfer()
        with open_store(str(site.state_dir)) as store:
            outcomes = push_all(svc, staged_token, store, transfer,
                                ParallelismBudget(4), simkit.FixedClock())
            assert [o.node for o in outcomes] == list(nodes)
            assert all(o.success for o in outcomes)
            landed = transfer.files()
            for node in nodes:
                assert store.get_counter(svc.name, node).consecutive_failures == 0
                assert len([k for k in landed if k[0] == node]) == 2

    def test_one_down_node_does_not_stop_the_others(self, site, staged_token):
        svc = one_service(site, nodes=("ok1.example.org", "down.example.org",
                                       "ok2.example.org"),
                          overrides={"retry.base_backoff": "10ms"})
        faults = {"down.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("unreachable"),))}
        transfer = simkit.memory_transfer(faults=faults)
        with open_store(str(site.state_dir)) as store:
            outcomes = push_all(svc, staged_token, store, transfer,
                                ParallelismBudget(4), simkit.SystemClock())
            by_node = {o.node: o for o in outcomes}
            assert by_node["ok1.example.org"].success
            assert by_node["ok2.example.org"].success
            assert not by_node["down.example.org"].success
            assert store.get_counter(svc.name,
                                     "down.example.org").consecutive_failures == 1
            assert store.get_counter(svc.name,
                                     "ok1.example.org").consecutive_failures == 0

    def test_budget_of_one_serializes_the_delays(self, site, staged_token):
        nodes = tuple(f"n{i}.example.org" for i in range(4))
        svc = one_service(site, nodes=nodes)
        faults = {n: simkit.FaultSchedule("t", (simkit.delay(0.05), simkit.succeed()))
                  for n in nodes}
        with open_store(str(site.state_dir)) as store:
            transfer = simkit.memory_transfer(faults=faults)
            begin = time.monotonic()
            outcomes = push_all(svc, staged_token, store, transfer,
                                ParallelismBudget(1), simkit.SystemClock())
            serial = time.monotonic() - begin
        assert all(o.success for o in outcomes)
        assert serial >= 0.2
        assert transfer.high_water <= 1

    def test_budget_of_four_overlaps_the_delays(self, site, staged_token):
        nodes = tuple(f"n{i}.example.org" for i in range(4))
        svc = one_service(site, nodes=nodes)
        faults = {n: simkit.FaultSchedule("t", (simkit.delay(0.05), simkit.succeed()))
                  for n in nodes}
        with open_store(str(site.state_dir)) as store:
            transfer = simkit.memory_transfer(faults=faults)
            begin = time.monotonic()
            outcomes = push_all(svc, staged_token, store, transfer,
                                ParallelismBudget(4), simkit.SystemClock())
            parallel = time.monotonic() - begin
        assert all(o.success for o in outcomes)
        assert parallel < 0.2
        assert transfer.high_water <= 4

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ParallelismBudget(0)

    def test_non_transfer_error_fails_only_that_node(self, site, staged_token):
        nodes = ("ok1.example.org", "broken.example.org", "ok2.example.org")
        svc = one_service(site, nodes=nodes)

        class DiskFullOn:
            def __init__(self, inner, node):
                self.inner, self.node = inner, node

            def put(self, local_path, node, remote_path, timeout=None):
                if node == self.node:
                    raise OSError("disk full")
                self.inner.put(local_path, node, remote_path, timeout=timeout)

        inner = simkit.memory_transfer()
        with open_store(str(site.state_dir)) as store, ParallelismBudget(4) as budget:
            outcomes = push_all(svc, staged_token, store,
                                DiskFullOn(inner, "broken.example.org"), budget,
                                simkit.FixedClock())
            by_node = {o.node: o for o in outcomes}
            broken = by_node["broken.example.org"]
            assert not broken.success
            assert broken.error == "OSError: disk full"
            assert broken.attempts == 1  # not a TransferError: never retried
            assert by_node["ok1.example.org"].success
            assert by_node["ok2.example.org"].success
            assert store.get_counter(svc.name,
                                     "broken.example.org").consecutive_failures == 1
            assert store.get_counter(svc.name,
                                     "ok1.example.org").consecutive_failures == 0

    def test_service_override_caps_its_in_flight_attempts(self, site, staged_token):
        nodes = tuple(f"n{i}.example.org" for i in range(4))
        svc = one_service(site, nodes=nodes, overrides={"transfer_parallelism": 1})
        faults = {n: simkit.FaultSchedule("t", (simkit.delay(0.05), simkit.succeed()))
                  for n in nodes}
        transfer = simkit.memory_transfer(faults=faults)
        with open_store(str(site.state_dir)) as store, ParallelismBudget(4) as budget:
            begin = time.monotonic()
            outcomes = push_all(svc, staged_token, store, transfer, budget,
                                simkit.SystemClock())
            serial = time.monotonic() - begin
        assert all(o.success for o in outcomes)
        assert transfer.high_water == 1
        assert serial >= 0.2

    def test_backoff_holds_no_transfer_slot(self, site, staged_token):
        down = "down.example.org"
        healthy = ("ok1.example.org", "ok2.example.org", "ok3.example.org")
        svc = one_service(site, nodes=(down,) + healthy,
                          overrides={"retry.base_backoff": "500ms",
                                     "retry.max_attempts": 2})

        class TopOfWindow(random.Random):
            def uniform(self, a, b):
                return b

        faults = {down: simkit.FaultSchedule("t", (simkit.fail("unreachable"),))}
        transfer = simkit.memory_transfer(faults=faults)
        with open_store(str(site.state_dir)) as store, ParallelismBudget(1) as budget:
            outcomes = push_all(svc, staged_token, store, transfer, budget,
                                simkit.SystemClock(), rng=TopOfWindow())
        assert [o.success for o in outcomes] == [False, True, True, True]
        entries = transfer.log.entries()
        retries = [e for e in entries if e.args[0] == down]
        copies = [e for e in entries if e.args[0] != down]
        assert len(retries) == 2 and len(copies) == 2 * len(healthy)
        assert retries[1].start >= max(e.end for e in copies)
