"""Token fan-out: destination rendering, per-node retries, budgeted parallelism."""

from __future__ import annotations

import os
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from managed_tokens import simkit
from managed_tokens.config import resolve_service
from managed_tokens.credentials import VaultTokenFile
from managed_tokens.distribution import PushScheduler, compute_destinations

from conftest import Site, SteppingBackClock


def one_service(site, name="dune_production", **add_kwargs):
    site.add_service(name, **add_kwargs)
    return resolve_service(site.config(), name)


def stage_token(path):
    path.write_bytes(b"hvs.staged-token\n")
    os.chmod(path, 0o600)
    return VaultTokenFile(path=str(path), uid=4521)


def run_scheduler(svc, token, transfer, limit, clock, rng=None):
    """Push one service's token through a :class:`PushScheduler` of its own
    with ``limit`` transfer workers, as a run does, and return its outcomes
    in node order."""
    with PushScheduler(limit, transfer, clock, rng) as scheduler:
        scheduler.add(svc, token)
        finished = []
        while scheduler.busy:
            finished += scheduler.step()[0]
    (push,) = finished
    return [push.settled[i] for i in range(len(push.svc.nodes))]


@pytest.fixture
def staged_token(tmp_path):
    return stage_token(tmp_path / "vaulttoken")


class TestDestinations:
    def test_default_templates(self, site):
        svc = one_service(site)
        assert compute_destinations(svc, 4521) == (
            f"{svc.tmp_dir}/vt_u4521",
            f"{svc.tmp_dir}/vt_u4521-dunevault_production",
        )

    def test_uid_zero(self, site):
        svc = one_service(site)
        user, role = compute_destinations(svc, 0)
        assert user.endswith("/vt_u0")
        assert role.endswith("/vt_u0-dunevault_production")

    def custom(self, site, user, role):
        return one_service(site, overrides={"destination_templates.user": user,
                                            "destination_templates.role": role})

    def test_custom_templates(self, site):
        svc = self.custom(site, "/var/tokens/{account}", "/var/tokens/{account}.{role}")
        assert compute_destinations(svc, 4521) == ("/var/tokens/duneprod",
                                                   "/var/tokens/duneprod.production")

    def test_identical_paths_rejected(self, site):
        # Distinct templates that render to the same path.
        svc = self.custom(site, "/var/tokens/{role}", "/var/tokens/production")
        with pytest.raises(ValueError, match="distinct"):
            compute_destinations(svc, 4521)


class TestPushToken:
    """One token to one node: a one-node service through the same scheduler
    as a whole run."""

    NODE = "submit1.example.org"

    def push(self, site, token, transfer, clock, max_attempts=3,
             base_backoff="10ms", rng=None):
        svc = one_service(site, nodes=(self.NODE,),
                          overrides={"retry.max_attempts": max_attempts,
                                     "retry.base_backoff": base_backoff})
        (outcome,) = run_scheduler(svc, token, transfer, 1, clock, rng=rng)
        return outcome

    def test_happy_path_lands_both_copies(self, site, staged_token):
        transfer = simkit.memory_transfer()
        outcome = self.push(site, staged_token, transfer, simkit.FixedClock())
        assert outcome.success and outcome.attempts == 1
        user_path = f"{site.tmp_dir}/vt_u4521"
        assert transfer.get(self.NODE, user_path) == b"hvs.staged-token\n"
        assert (transfer.get(self.NODE, f"{user_path}-dunevault_production")
                == b"hvs.staged-token\n")

    def test_fail_once_then_succeed(self, site, staged_token):
        # Schedules index per put call: attempt 1 is one failed put, attempt 2
        # is two successful puts (one per destination path).
        faults = {self.NODE: simkit.FaultSchedule(
            "t", (simkit.fail("connection reset"), simkit.succeed(),
                  simkit.succeed()))}
        clock = simkit.FixedClock(advance_on_sleep=True)
        transfer = simkit.memory_transfer(faults=faults, clock=clock)
        outcome = self.push(site, staged_token, transfer, clock, rng=random.Random(1))
        assert outcome.success
        assert outcome.attempts == 2
        assert outcome.error is None

    def test_wall_clock_stepping_back_does_not_stretch_a_retry(self, site, staged_token):
        faults = {self.NODE: simkit.FaultSchedule(
            "t", (simkit.fail("connection reset"), simkit.succeed(),
                  simkit.succeed()))}
        clock = SteppingBackClock(start=0.0, advance_on_sleep=True)
        transfer = simkit.memory_transfer(faults=faults)
        outcome = self.push(site, staged_token, transfer, clock, base_backoff="1ms",
                            rng=random.Random(1))
        assert (outcome.success, outcome.attempts) == (True, 2)
        assert 0.0 < clock.monotonic() <= 0.001  # one sleep, within its drawn window

    def test_empty_transfer_error_reads_transfer_failed(self, site, staged_token):
        faults = {self.NODE: simkit.FaultSchedule("t", (simkit.fail(""),))}
        transfer = simkit.memory_transfer(faults=faults)
        outcome = self.push(site, staged_token, transfer, simkit.FixedClock(),
                            max_attempts=1)
        assert (outcome.success, outcome.error) == (False, "transfer failed")

    def test_always_failing_node(self, site, staged_token):
        faults = {self.NODE: simkit.FaultSchedule(
            "t", (simkit.fail("no route to host"),))}
        clock = simkit.FixedClock(advance_on_sleep=True)
        transfer = simkit.memory_transfer(faults=faults, clock=clock)
        outcome = self.push(site, staged_token, transfer, clock, rng=random.Random(1))
        assert not outcome.success
        assert outcome.attempts == 3
        assert "no route to host" in outcome.error
        assert transfer.files() == {}

    def test_partial_copy_is_a_failed_attempt(self, site, staged_token):
        # Second put of each attempt fails; the attempt never counts.
        faults = {self.NODE: simkit.FaultSchedule(
            "t", (simkit.succeed(), simkit.fail("quota")))}
        clock = simkit.FixedClock(advance_on_sleep=True)
        transfer = simkit.memory_transfer(faults=faults, clock=clock)
        outcome = self.push(site, staged_token, transfer, clock, max_attempts=2,
                            rng=random.Random(1))
        assert not outcome.success
        assert outcome.attempts == 2

    def test_backoff_windows_double_per_attempt(self, site, staged_token):
        """Replay the jitter draws with an identically seeded RNG and compare
        the slept durations against the full-jitter windows."""
        faults = {self.NODE: simkit.FaultSchedule("t", (simkit.fail("down"),))}
        clock = simkit.FixedClock(advance_on_sleep=True)
        transfer = simkit.memory_transfer(faults=faults, clock=clock)
        self.push(site, staged_token, transfer, clock, max_attempts=4,
                  base_backoff="1s", rng=random.Random(42))
        slept = clock.now() - simkit.FixedClock().now()
        reference = random.Random(42)
        expected = sum(reference.uniform(0, 1.0 * 2 ** k) for k in range(3))
        assert slept == pytest.approx(expected)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           max_attempts=st.integers(min_value=1, max_value=5))
    def test_attempt_count_never_exceeds_policy(self, seed, max_attempts):
        clock = simkit.FixedClock(advance_on_sleep=True)
        faults = {self.NODE: simkit.FaultSchedule("t", (simkit.fail("x"),))}
        transfer = simkit.memory_transfer(faults=faults, clock=clock)
        with tempfile.TemporaryDirectory() as tmp:
            token = stage_token(Path(tmp) / "tok")
            outcome = self.push(Site(Path(tmp)), token, transfer, clock,
                                max_attempts=max_attempts, rng=random.Random(seed))
        assert outcome.attempts == max_attempts
        assert not outcome.success


class TestPushAll:
    def test_all_nodes_served_in_node_order(self, site, staged_token):
        nodes = ("submit3.example.org", "submit1.example.org",
                 "submit2.example.org")
        svc = one_service(site, nodes=nodes)
        transfer = simkit.memory_transfer()
        outcomes = run_scheduler(svc, staged_token, transfer, 4, simkit.FixedClock())
        assert [o.node for o in outcomes] == list(nodes)
        assert all(o.success for o in outcomes)
        landed = transfer.files()
        for node in nodes:
            assert len([k for k in landed if k[0] == node]) == 2

    def test_one_down_node_does_not_stop_the_others(self, site, staged_token):
        svc = one_service(site, nodes=("ok1.example.org", "down.example.org",
                                       "ok2.example.org"),
                          overrides={"retry.base_backoff": "10ms"})
        faults = {"down.example.org": simkit.FaultSchedule(
            "t", (simkit.fail("unreachable"),))}
        transfer = simkit.memory_transfer(faults=faults)
        outcomes = run_scheduler(svc, staged_token, transfer, 4, simkit.SystemClock())
        by_node = {o.node: o for o in outcomes}
        assert by_node["ok1.example.org"].success
        assert by_node["ok2.example.org"].success
        assert not by_node["down.example.org"].success

    def test_budget_of_one_serializes_the_delays(self, site, staged_token):
        nodes = tuple(f"n{i}.example.org" for i in range(4))
        svc = one_service(site, nodes=nodes)
        faults = {n: simkit.FaultSchedule("t", (simkit.delay(0.05), simkit.succeed()))
                  for n in nodes}
        transfer = simkit.memory_transfer(faults=faults)
        begin = time.monotonic()
        outcomes = run_scheduler(svc, staged_token, transfer, 1, simkit.SystemClock())
        serial = time.monotonic() - begin
        assert all(o.success for o in outcomes)
        assert serial >= 0.2
        assert transfer.high_water <= 1

    def test_budget_of_four_overlaps_the_delays(self, site, staged_token):
        nodes = tuple(f"n{i}.example.org" for i in range(4))
        svc = one_service(site, nodes=nodes)
        faults = {n: simkit.FaultSchedule("t", (simkit.delay(0.05), simkit.succeed()))
                  for n in nodes}
        transfer = simkit.memory_transfer(faults=faults)
        begin = time.monotonic()
        outcomes = run_scheduler(svc, staged_token, transfer, 4, simkit.SystemClock())
        parallel = time.monotonic() - begin
        assert all(o.success for o in outcomes)
        assert parallel < 0.2
        assert transfer.high_water <= 4

    def test_budget_validation(self):
        with pytest.raises(ValueError), \
                PushScheduler(0, simkit.memory_transfer(), simkit.FixedClock()):
            pass

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
        outcomes = run_scheduler(svc, staged_token, DiskFullOn(inner, "broken.example.org"),
                                 4, simkit.FixedClock())
        by_node = {o.node: o for o in outcomes}
        broken = by_node["broken.example.org"]
        assert not broken.success
        assert broken.error == "OSError: disk full"
        assert broken.attempts == 1  # not a TransferError: never retried
        assert by_node["ok1.example.org"].success
        assert by_node["ok2.example.org"].success

    def test_service_override_caps_its_in_flight_attempts(self, site, staged_token):
        nodes = tuple(f"n{i}.example.org" for i in range(4))
        svc = one_service(site, nodes=nodes, overrides={"transfer_parallelism": 1})
        faults = {n: simkit.FaultSchedule("t", (simkit.delay(0.05), simkit.succeed()))
                  for n in nodes}
        transfer = simkit.memory_transfer(faults=faults)
        begin = time.monotonic()
        outcomes = run_scheduler(svc, staged_token, transfer, 4, simkit.SystemClock())
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
        outcomes = run_scheduler(svc, staged_token, transfer, 1, simkit.SystemClock(),
                                 rng=TopOfWindow())
        assert [o.success for o in outcomes] == [False, True, True, True]
        entries = transfer.log.entries()
        retries = [e for e in entries if e.args[0] == down]
        copies = [e for e in entries if e.args[0] != down]
        assert len(retries) == 2 and len(copies) == 2 * len(healthy)
        assert retries[1].start >= max(e.end for e in copies)
