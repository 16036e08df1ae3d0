"""Aggregation of a run's record, threshold gating, and notification delivery."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from managed_tokens import simkit
from managed_tokens.distribution import PushOutcome
from managed_tokens.notifications import (
    AdminSummary,
    aggregate,
    dispatch,
    render,
    render_admin_summary,
)
from managed_tokens.orchestrator import StageResult
from managed_tokens.statestore import FailureCounter, open_store

from conftest import ReferenceCounter


def push_failure(service="dune_production", node="submit1.example.org",
                 error="no route to host") -> PushOutcome:
    return PushOutcome(service=service, node=node, success=False, attempts=3, error=error)


def stage_failure(service="dune_production", stage="ticket",
                  detail="kinit failed") -> StageResult:
    return StageResult(service, stage, False, 100.0, 100.0, detail)


def run_record(*failures):
    """The stage results and push outcomes, by service, of a run with these
    failures. A service with a failed node also gets the failed push result
    the engine records for it."""
    results: dict[str, list[StageResult]] = {}
    outcomes: dict[str, list[PushOutcome]] = {}
    for failure in failures:
        by_service = outcomes if isinstance(failure, PushOutcome) else results
        by_service.setdefault(failure.service, []).append(failure)
    for service, failed in outcomes.items():
        nodes = ", ".join(sorted(o.node for o in failed))
        results.setdefault(service, []).append(
            stage_failure(service, "push", "failed nodes: " + nodes))
    return results, outcomes


def seed_failures(store, service, node, count, success_first=False):
    if success_first:
        store.record_push_outcome(service, node, True, now=0.0)
    for i in range(count):
        store.record_push_outcome(service, node, False, now=float(i + 1))


KEY = ("dune_production", "submit1.example.org")


def streak(failures, notified=0, service="dune_production",
           node="submit1.example.org"):
    """The counters a run saved, holding one (service, node) counter."""
    return {(service, node): FailureCounter(service, node, failures, notified)}


class TestAggregate:
    def make_config(self, threshold=3, **services):
        for name, kwargs in services.items():
            self.site.add_service(name, **kwargs)
        return self.site.config(notification={"admin_recipients": ["ops@example.org"],
                                              "threshold": threshold})

    @pytest.fixture(autouse=True)
    def _site(self, site):
        self.site = site

    def test_no_events_no_output(self):
        cfg = self.make_config(dune_production={})
        ticket = StageResult("dune_production", "ticket", True, 100.0, 100.0)
        pushed = PushOutcome("dune_production", "submit1.example.org", True, 1)
        batches, summary = aggregate({"dune_production": [ticket]},
                                     {"dune_production": [pushed]}, {}, cfg, "r1", now=500.0)
        assert batches == []
        assert (summary.stages, summary.nodes) == ((), ())

    def test_below_threshold_reaches_only_the_admin_summary(self):
        cfg = self.make_config(dune_production={})
        batches, summary = aggregate(*run_record(push_failure()), streak(2), cfg, "r1", 500.0)
        assert batches == []
        assert summary.nodes == (push_failure(),)

    def test_batch_at_threshold(self):
        cfg = self.make_config(dune_production={})
        record = run_record(push_failure())
        with open_store(str(self.site.state_dir)) as store:
            seed_failures(store, "dune_production", "submit1.example.org", 3)
            saved = {KEY: store.get_counter(*KEY)}
            batches, summary = aggregate(*record, saved, cfg, "r1", 500.0)
            (batch,) = batches
            assert batch.subject == ("[managed-tokens] dune_production: "
                                     "token distribution failures")
            assert batch.recipients == ("dune_production-admins@example.org",)
            assert batch.node_failures == (
                ("submit1.example.org", 3, "no route to host"),)
            assert "3 consecutive failed distribution attempts" in batch.body
            assert batch.body == render(batch)
            # Aggregating writes nothing: the batch stays due until it is sent.
            again, _ = aggregate(*record, {KEY: store.get_counter(*KEY)},
                                 cfg, "r1", 500.0)
            assert again == batches
            # Sending advanced the watermark: aggregating again stays quiet.
            assert dispatch(batches, None, simkit.RecordingSink(), store) == 1
            after = store.get_counter(*KEY)
            assert after.last_notified_count == 3
            again, _ = aggregate(*record, {KEY: after}, cfg, "r1", 500.0)
            assert again == []

    def test_non_push_failures_never_page_stakeholders(self):
        cfg = self.make_config(dune_production={})
        batches, summary = aggregate(
            *run_record(stage_failure(stage="ticket"),
                        stage_failure(stage="vault_store", detail="storer died")),
            streak(5), cfg, "r1", 500.0)
        assert batches == []
        assert len(summary.stages) == 2

    def test_stale_counter_without_a_fresh_event_stays_quiet(self):
        cfg = self.make_config(dune_production={})
        batches, _ = aggregate({}, {}, streak(5), cfg, "r1", 500.0)
        assert batches == []

    def test_two_services_two_batches_disjoint_recipients(self):
        cfg = self.make_config(
            dune_production={}, mu2e_production={})
        record = run_record(push_failure(), push_failure(service="mu2e_production",
                                                         node="submit2.example.org",
                                                         error="disk full"))
        # mu2e was acknowledged at 4; one more failure is below threshold.
        saved = {**streak(3),
                 **streak(5, notified=4, service="mu2e_production",
                          node="submit2.example.org")}
        batches, _ = aggregate(*record, saved, cfg, "r1", 500.0)
        assert [b.service for b in batches] == ["dune_production"]

        # Reference replay of the same history agrees.
        reference = ReferenceCounter()
        for _ in range(4):
            reference.record(False)
        reference.ack()
        reference.record(False)
        assert (reference.streak, reference.watermark) == (5, 4)
        assert not reference.due(3)

    def test_matches_reference_policy_across_services(self):
        cfg = self.make_config(dune_production={}, mu2e_production={},
                               nova_production={})
        histories = {
            ("dune_production", "submit1.example.org"): [False] * 3,
            ("mu2e_production", "submit1.example.org"): [False, True, False],
            ("nova_production", "submit2.example.org"): [False] * 6,
        }
        record = run_record(*(push_failure(service=s, node=n, error="down")
                              for (s, n) in histories))
        saved = {}
        expected_due = set()
        for (service, node), outcomes in histories.items():
            reference = ReferenceCounter()
            for success in outcomes:
                reference.record(success)
            saved.update(streak(reference.streak, reference.watermark, service, node))
            if reference.due(3):
                expected_due.add(service)
        batches, _ = aggregate(*record, saved, cfg, "r1", 500.0)
        assert {b.service for b in batches} == expected_due

    def test_summary_lists_every_event_exactly_once(self):
        cfg = self.make_config(dune_production={}, mu2e_production={})
        results, outcomes = run_record(
            stage_failure(service="mu2e_production", stage="registry",
                          detail="registry returned HTTP 500"),
            push_failure(),
        )
        results["dune_production"].append(stage_failure(
            stage="push", detail="failure counters not saved: StoreError: disk full"))
        _, summary = aggregate(results, outcomes, {}, cfg, "r7", 500.0)
        assert summary.stages == (*results["dune_production"], *results["mu2e_production"])
        assert summary.nodes == (push_failure(),)
        assert summary.subject == ("[managed-tokens] run r7: 3 failure(s) "
                                   "across 2 service(s)")
        assert summary.body == (
            "run: r7\n"
            "generated: 1970-01-01T00:08:20Z\n"
            "\n"
            "3 failure(s) this run:\n"
            "\n"
            "dune_production:\n"
            "  - [push] failed nodes: submit1.example.org\n"
            "  - [push] failure counters not saved: StoreError: disk full\n"
            "  - [push] node=submit1.example.org no route to host\n"
            "mu2e_production:\n"
            "  - [registry] registry returned HTTP 500\n")
        assert summary.body == render_admin_summary(summary)

    def test_order_insensitive(self):
        cfg = self.make_config(dune_production={}, mu2e_production={})
        saved = {**streak(3), **streak(3, node="submit3.example.org"),
                 **streak(3, service="mu2e_production", node="submit2.example.org")}
        failures = [
            push_failure(error="err-a"),
            push_failure(node="submit3.example.org", error="err-b"),
            push_failure(service="mu2e_production", node="submit2.example.org",
                         error="err-c"),
        ]
        rendered = set()
        for permutation in itertools.permutations(failures):
            batches, summary = aggregate(*run_record(*permutation), saved, cfg, "r1", 500.0)
            rendered.add((tuple((b.subject, b.body, b.recipients)
                                for b in batches), summary.body))
        (only,) = rendered
        assert len(only[0]) == 2  # both services paged, whatever the order

    def test_push_wide_failure_is_listed_once_and_pages_nobody(self):
        cfg = self.make_config(dune_production={})
        failed = stage_failure(stage="push",
                               detail="ValueError: destination paths must be distinct")
        batches, summary = aggregate(*run_record(failed), streak(5), cfg, "r1", 500.0)
        assert batches == []
        assert summary.subject.endswith("1 failure(s) across 1 service(s)")
        assert summary.body.count("ValueError") == 1


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
        summary = make_summary(stages=(stage_failure(),))
        sent = dispatch(batches, summary, sink, store)
        assert sent == 3
        assert [m.recipients for m in sink.messages] == [
            ("dune-admins@example.org",),
            ("mu2e-admins@example.org",),
            ("ops@example.org",),
        ]

    def test_empty_event_summary_not_sent(self, store):
        sink = simkit.RecordingSink()
        assert dispatch([], make_summary(stages=()), sink, store) == 0
        assert sink.messages == []

    def test_missing_recipients_skipped(self, store):
        seed_failures(store, "dune_production", self.NODE, 3)
        sink = simkit.RecordingSink()
        sent = dispatch([self.batch(recipients=())], None, sink, store)
        assert sent == 0
        assert sink.messages == []
        assert self.watermark(store, "dune_production") == 0  # still due

    def test_batch_without_recipients_is_named_in_the_summary(self, store):
        seed_failures(store, "dune_production", self.NODE, 3)
        sink = simkit.RecordingSink()
        summary = make_summary(stages=(stage_failure(),))
        assert dispatch([self.batch(recipients=())], summary, sink, store) == 1
        (message,) = sink.messages
        assert message.body == ("body\n\n"
                                "batch not sent service=dune_production: "
                                "no stakeholder_emails\n")
        assert self.watermark(store, "dune_production") == 0  # still due

    def test_sink_failure_does_not_stop_later_sends(self, store):
        seed_failures(store, "dune_production", self.NODE, 3)
        seed_failures(store, "mu2e_production", self.NODE, 3)
        sink = simkit.RecordingSink(schedule=simkit.FaultSchedule(
            "sink", (simkit.fail("smtp down"), simkit.succeed(),
                     simkit.succeed())))
        batches = [self.batch(), self.batch("mu2e_production",
                                            ("mu2e-admins@example.org",))]
        sent = dispatch(batches, make_summary(stages=(stage_failure(),)), sink, store)
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


def make_summary(stages):
    return AdminSummary(recipients=("ops@example.org",),
                        subject="[managed-tokens] run r1: summary",
                        body="body\n", stages=stages, nodes=(), run_id="r1",
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
