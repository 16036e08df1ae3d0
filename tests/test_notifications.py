"""Event aggregation, threshold gating, and notification delivery."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from managed_tokens import simkit
from managed_tokens.notifications import (
    AdminSummary,
    ErrorEvent,
    aggregate,
    dispatch,
    render,
    render_admin_summary,
)
from managed_tokens.statestore import open_store

from conftest import ReferenceCounter, Site


def push_event(service="dune_production", node="submit1.example.org",
               message="no route to host", at=100.0) -> ErrorEvent:
    return ErrorEvent(service=service, stage="push", message=message,
                      occurred_at=at, node=node)


def stage_event(service="dune_production", stage="ticket",
                message="kinit failed", at=100.0) -> ErrorEvent:
    return ErrorEvent(service=service, stage=stage, message=message, occurred_at=at)


def seed_failures(store, service, node, count, success_first=False):
    if success_first:
        store.record_push_outcome(service, node, True, now=0.0)
    for i in range(count):
        store.record_push_outcome(service, node, False, now=float(i + 1))


class TestErrorEvent:
    def test_push_requires_node(self):
        with pytest.raises(ValueError, match="node"):
            ErrorEvent("svc", "push", "m", 0.0)

    @pytest.mark.parametrize("stage", ["registry", "ticket", "vault_store"])
    def test_non_push_forbids_node(self, stage):
        with pytest.raises(ValueError, match="node"):
            ErrorEvent("svc", stage, "m", 0.0, node="n")

    def test_unknown_stage(self):
        with pytest.raises(ValueError, match="stage"):
            ErrorEvent("svc", "teleport", "m", 0.0)

    def test_valid_forms(self):
        push_event()
        stage_event(stage="registry")
        stage_event(stage="vault_store")


class TestAggregate:
    def make_config(self, site=None, threshold=3, **services):
        site = site if site is not None else self.site
        for name, kwargs in services.items():
            site.add_service(name, **kwargs)
        return site.config(notification={"admin_recipients": ["ops@example.org"],
                                         "threshold": threshold})

    @pytest.fixture(autouse=True)
    def _site(self, site):
        self.site = site

    def test_no_events_no_output(self):
        cfg = self.make_config(dune_production={})
        with open_store(str(self.site.state_dir)) as store:
            batches, summary = aggregate([], store, cfg, "r1", now=500.0)
        assert batches == []
        assert summary.events == ()

    def test_below_threshold_reaches_only_the_admin_summary(self):
        cfg = self.make_config(dune_production={})
        with open_store(str(self.site.state_dir)) as store:
            seed_failures(store, "dune_production", "submit1.example.org", 2)
            batches, summary = aggregate([push_event()], store, cfg, "r1", 500.0)
        assert batches == []
        assert summary.events == (push_event(),)

    def test_batch_at_threshold(self):
        cfg = self.make_config(dune_production={})
        with open_store(str(self.site.state_dir)) as store:
            seed_failures(store, "dune_production", "submit1.example.org", 3)
            batches, summary = aggregate([push_event()], store, cfg, "r1", 500.0)
            (batch,) = batches
            assert batch.subject == ("[managed-tokens] dune_production: "
                                     "token distribution failures")
            assert batch.recipients == ("dune_production-admins@example.org",)
            assert batch.node_failures == (
                ("submit1.example.org", 3, "no route to host"),)
            assert "3 consecutive failed distribution attempts" in batch.body
            assert batch.body == render(batch)
            # Aggregating writes nothing: the batch stays due until it is sent.
            again, _ = aggregate([push_event()], store, cfg, "r1", 500.0)
            assert again == batches
            # Sending advanced the watermark: aggregating again stays quiet.
            assert dispatch(batches, None, simkit.RecordingSink(), store) == 1
            again, _ = aggregate([push_event()], store, cfg, "r1", 500.0)
            assert again == []

    def test_non_push_failures_never_page_stakeholders(self):
        cfg = self.make_config(dune_production={})
        with open_store(str(self.site.state_dir)) as store:
            batches, summary = aggregate(
                [stage_event(stage="ticket"), stage_event(stage="vault_store",
                                                          message="storer died")],
                store, cfg, "r1", 500.0)
        assert batches == []
        assert len(summary.events) == 2

    def test_stale_counter_without_a_fresh_event_stays_quiet(self):
        cfg = self.make_config(dune_production={})
        with open_store(str(self.site.state_dir)) as store:
            seed_failures(store, "dune_production", "submit1.example.org", 5)
            batches, _ = aggregate([], store, cfg, "r1", 500.0)
        assert batches == []

    def test_two_services_two_batches_disjoint_recipients(self):
        cfg = self.make_config(
            dune_production={}, mu2e_production={})
        events = [push_event(), push_event(service="mu2e_production",
                                           node="submit2.example.org",
                                           message="disk full")]
        with open_store(str(self.site.state_dir)) as store:
            seed_failures(store, "dune_production", "submit1.example.org", 3)
            seed_failures(store, "mu2e_production", "submit2.example.org", 4)
            store.mark_notified("mu2e_production", "submit2.example.org")
            # mu2e was acknowledged at 4; one more failure is below threshold.
            store.record_push_outcome("mu2e_production", "submit2.example.org",
                                      False, now=9.0)
            batches, _ = aggregate(events, store, cfg, "r1", 500.0)
        assert [b.service for b in batches] == ["dune_production"]

        # Reference replay of the same history agrees.
        reference = ReferenceCounter()
        for _ in range(4):
            reference.record(False)
        reference.ack()
        reference.record(False)
        assert not reference.due(3)

    def test_matches_reference_policy_across_services(self):
        cfg = self.make_config(dune_production={}, mu2e_production={},
                               nova_production={})
        histories = {
            ("dune_production", "submit1.example.org"): [False] * 3,
            ("mu2e_production", "submit1.example.org"): [False, True, False],
            ("nova_production", "submit2.example.org"): [False] * 6,
        }
        events = [push_event(service=s, node=n, message="down")
                  for (s, n) in histories]
        with open_store(str(self.site.state_dir)) as store:
            expected_due = set()
            for (service, node), outcomes in histories.items():
                reference = ReferenceCounter()
                for i, success in enumerate(outcomes):
                    store.record_push_outcome(service, node, success, float(i))
                    reference.record(success)
                if reference.due(3):
                    expected_due.add(service)
            batches, _ = aggregate(events, store, cfg, "r1", 500.0)
        assert {b.service for b in batches} == expected_due

    def test_summary_lists_every_event_exactly_once(self):
        cfg = self.make_config(dune_production={}, mu2e_production={})
        events = [
            stage_event(),
            stage_event(service="mu2e_production", stage="registry",
                        message="registry returned HTTP 500"),
            push_event(),
        ]
        with open_store(str(self.site.state_dir)) as store:
            _, summary = aggregate(events, store, cfg, "r7", 500.0)
        assert sorted(summary.events, key=str) == sorted(events, key=str)
        assert summary.subject == ("[managed-tokens] run r7: 3 failure(s) "
                                   "across 2 service(s)")
        assert summary.body.count("registry returned HTTP 500") == 1
        assert summary.body == render_admin_summary(summary)

    def test_order_insensitive(self, tmp_path_factory):
        events = [
            push_event(at=10.0, message="err-a"),
            push_event(at=12.0, message="err-b"),
            stage_event(service="mu2e_production"),
            push_event(service="mu2e_production", node="submit2.example.org",
                       message="err-c", at=11.0),
        ]
        rendered = set()
        for permutation in itertools.permutations(events):
            site = Site(tmp_path_factory.mktemp("perm"))
            site.add_service("dune_production")
            site.add_service("mu2e_production")
            cfg = site.config(notification={
                "admin_recipients": ["ops@example.org"], "threshold": 3})
            with open_store(str(site.state_dir)) as store:
                seed_failures(store, "dune_production", "submit1.example.org", 3)
                seed_failures(store, "mu2e_production", "submit2.example.org", 3)
                batches, summary = aggregate(list(permutation), store, cfg,
                                             "r1", 500.0)
            rendered.add((tuple((b.subject, b.body, b.recipients)
                                for b in batches), summary.body))
        assert len(rendered) == 1

    def test_latest_event_message_wins_in_the_batch(self):
        cfg = self.make_config(dune_production={})
        events = [push_event(at=10.0, message="older error"),
                  push_event(at=20.0, message="newest error")]
        with open_store(str(self.site.state_dir)) as store:
            seed_failures(store, "dune_production", "submit1.example.org", 3)
            (batch,), _ = aggregate(events, store, cfg, "r1", 500.0)
        assert batch.node_failures[0][2] == "newest error"


class TestDispatch:
    NODE = "submit1.example.org"

    def batch(self, service="dune_production",
              recipients=("dune-admins@example.org",)):
        return aggregate_free_batch(service, recipients)

    @pytest.fixture
    def store(self, site):
        with open_store(str(site.state_dir)) as store:
            yield store

    def watermark(self, store, service):
        return store.get_counter(service, self.NODE).last_notified_count

    def test_batches_plus_summary(self, store):
        sink = simkit.RecordingSink()
        batches = [self.batch(), self.batch("mu2e_production",
                                            ("mu2e-admins@example.org",))]
        summary = make_summary(events=(stage_event(),))
        sent = dispatch(batches, summary, sink, store)
        assert sent == 3
        assert [m.recipients for m in sink.messages] == [
            ("dune-admins@example.org",),
            ("mu2e-admins@example.org",),
            ("ops@example.org",),
        ]

    def test_empty_event_summary_not_sent(self, store):
        sink = simkit.RecordingSink()
        assert dispatch([], make_summary(events=()), sink, store) == 0
        assert sink.messages == []

    def test_missing_recipients_skipped(self, store):
        seed_failures(store, "dune_production", self.NODE, 3)
        sink = simkit.RecordingSink()
        sent = dispatch([self.batch(recipients=())], None, sink, store)
        assert sent == 0
        assert sink.messages == []
        assert self.watermark(store, "dune_production") == 0  # still due

    def test_sink_failure_does_not_stop_later_sends(self, store):
        seed_failures(store, "dune_production", self.NODE, 3)
        seed_failures(store, "mu2e_production", self.NODE, 3)
        sink = simkit.RecordingSink(schedule=simkit.FaultSchedule(
            "sink", (simkit.fail("smtp down"), simkit.succeed(),
                     simkit.succeed())))
        batches = [self.batch(), self.batch("mu2e_production",
                                            ("mu2e-admins@example.org",))]
        sent = dispatch(batches, make_summary(events=(stage_event(),)), sink, store)
        assert sent == 2
        assert [m.recipients[0] for m in sink.messages] == [
            "mu2e-admins@example.org", "ops@example.org"]
        assert self.watermark(store, "dune_production") == 0  # failed: still due
        assert self.watermark(store, "mu2e_production") == 3


def aggregate_free_batch(service, recipients):
    from managed_tokens.notifications import NotificationBatch
    return NotificationBatch(
        service=service, recipients=tuple(recipients),
        subject=f"[managed-tokens] {service}: token distribution failures",
        body="body\n",
        node_failures=(("submit1.example.org", 3, "no route to host"),),
        run_id="r1", generated_at=500.0)


def make_summary(events):
    return AdminSummary(recipients=("ops@example.org",),
                        subject="[managed-tokens] run r1: summary",
                        body="body\n", events=events, run_id="r1",
                        generated_at=500.0)


class TestRenderDeterminism:
    @given(count=st.integers(min_value=1, max_value=50),
           at=st.floats(min_value=0, max_value=2_000_000_000, allow_nan=False))
    def test_batch_body_is_a_pure_function_of_the_batch(self, count, at):
        batch = aggregate_free_batch("svc_x", ("a@example.org",))
        from dataclasses import replace
        batch = replace(batch, node_failures=(("n1", count, "err"),),
                        generated_at=at)
        assert render(batch) == render(batch)
        assert render(batch).endswith("\n")
        assert f"{count} consecutive" in render(batch)
