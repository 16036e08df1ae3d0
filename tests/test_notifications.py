"""Aggregation of a run's record, threshold gating, and notification delivery."""

from __future__ import annotations

import itertools
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from managed_tokens import simkit
from managed_tokens.distribution import PushOutcome
from managed_tokens.notifications import Message, aggregate, dispatch
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
        pages, summary = aggregate({"dune_production": [ticket]},
                                   {"dune_production": [pushed]}, {}, cfg, "r1", now=500.0)
        assert pages == []
        assert summary is None

    def test_below_threshold_reaches_only_the_admin_summary(self):
        cfg = self.make_config(dune_production={})
        pages, summary = aggregate(*run_record(push_failure()), streak(2), cfg, "r1", 500.0)
        assert pages == []
        assert summary.body.endswith("  - [push] node=submit1.example.org no route to host\n")

    def test_batch_at_threshold(self):
        cfg = self.make_config(dune_production={})
        record = run_record(push_failure())
        with open_store(str(self.site.state_dir)) as store:
            seed_failures(store, "dune_production", "submit1.example.org", 3)
            saved = {KEY: store.get_counter(*KEY)}
            pages, summary = aggregate(*record, saved, cfg, "r1", 500.0)
            (page,) = pages
            assert page.subject == ("[managed-tokens] dune_production: "
                                    "token distribution failures")
            assert page.recipients == ("dune_production-admins@example.org",)
            assert (page.service, page.nodes) == ("dune_production", ("submit1.example.org",))
            assert page.body == (
                "service: dune_production\n"
                "run: r1\n"
                "generated: 1970-01-01T00:08:20Z\n"
                "\n"
                "vault token distribution to the following submit points keeps failing:\n"
                "\n"
                "node submit1.example.org: 3 consecutive failed distribution attempts;"
                " last error: no route to host\n"
                "\n"
                "The service will keep retrying on its schedule. If the node is\n"
                "expected to be offline, no action is needed.\n")
            # Aggregating writes nothing: the page stays due until it is sent.
            again, _ = aggregate(*record, {KEY: store.get_counter(*KEY)},
                                 cfg, "r1", 500.0)
            assert again == pages
            # Sending advanced the watermark: aggregating again stays quiet.
            assert dispatch(pages, None, simkit.RecordingSink(), store) == 1
            after = store.get_counter(*KEY)
            assert after.last_notified_count == 3
            again, _ = aggregate(*record, {KEY: after}, cfg, "r1", 500.0)
            assert again == []

    def test_non_push_failures_never_page_stakeholders(self):
        cfg = self.make_config(dune_production={})
        pages, summary = aggregate(
            *run_record(stage_failure(stage="ticket"),
                        stage_failure(stage="vault_store", detail="storer died")),
            streak(5), cfg, "r1", 500.0)
        assert pages == []
        assert summary.subject.endswith("2 failure(s) across 1 service(s)")
        assert summary.body.endswith("dune_production:\n"
                                     "  - [ticket] kinit failed\n"
                                     "  - [vault_store] storer died\n")

    def test_stale_counter_without_a_fresh_event_stays_quiet(self):
        cfg = self.make_config(dune_production={})
        pages, _ = aggregate({}, {}, streak(5), cfg, "r1", 500.0)
        assert pages == []

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
        pages, _ = aggregate(*record, saved, cfg, "r1", 500.0)
        assert [p.service for p in pages] == ["dune_production"]

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
        pages, _ = aggregate(*record, saved, cfg, "r1", 500.0)
        assert {p.service for p in pages} == expected_due

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
        assert (summary.recipients, summary.service, summary.nodes) == (
            ("ops@example.org",), "", ())
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
            pages, summary = aggregate(*run_record(*permutation), saved, cfg, "r1", 500.0)
            rendered.add((tuple(pages), summary))
        (only,) = rendered
        assert len(only[0]) == 2  # both services paged, whatever the order

    def test_push_wide_failure_is_listed_once_and_pages_nobody(self):
        cfg = self.make_config(dune_production={})
        failed = stage_failure(stage="push",
                               detail="ValueError: destination paths must be distinct")
        pages, summary = aggregate(*run_record(failed), streak(5), cfg, "r1", 500.0)
        assert pages == []
        assert summary.subject.endswith("1 failure(s) across 1 service(s)")
        assert summary.body.count("ValueError") == 1


class TestDispatch:
    NODE = "submit1.example.org"

    def page(self, service="dune_production",
             recipients=("dune-admins@example.org",)):
        return Message(tuple(recipients),
                       f"[managed-tokens] {service}: token distribution failures",
                       "body\n", service=service, nodes=(self.NODE,))

    @pytest.fixture
    def store(self, site):
        with open_store(str(site.state_dir)) as store:
            yield store

    def watermark(self, store, service):
        return store.get_counter(service, self.NODE).last_notified_count

    def test_batches_plus_summary(self, store):
        sink = simkit.RecordingSink()
        pages = [self.page(), self.page("mu2e_production", ("mu2e-admins@example.org",))]
        sent = dispatch(pages, SUMMARY, sink, store)
        assert sent == 3
        assert [m.recipients for m in sink.messages] == [
            ("dune-admins@example.org",),
            ("mu2e-admins@example.org",),
            ("ops@example.org",),
        ]

    def test_empty_event_summary_not_sent(self, site, store):
        site.add_service("dune_production")
        ticket = StageResult("dune_production", "ticket", True, 100.0, 100.0)
        pages, summary = aggregate({"dune_production": [ticket]}, {}, {}, site.config(),
                                   "r1", 500.0)
        sink = simkit.RecordingSink()
        assert dispatch(pages, summary, sink, store) == 0
        assert sink.messages == []

    def test_missing_recipients_skipped(self, store):
        seed_failures(store, "dune_production", self.NODE, 3)
        sink = simkit.RecordingSink()
        sent = dispatch([self.page(recipients=())], None, sink, store)
        assert sent == 0
        assert sink.messages == []
        assert self.watermark(store, "dune_production") == 0  # still due

    def test_batch_without_recipients_is_named_in_the_summary(self, store):
        seed_failures(store, "dune_production", self.NODE, 3)
        sink = simkit.RecordingSink()
        assert dispatch([self.page(recipients=())], SUMMARY, sink, store) == 1
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
        pages = [self.page(), self.page("mu2e_production", ("mu2e-admins@example.org",))]
        sent = dispatch(pages, SUMMARY, sink, store)
        assert sent == 2
        assert [m.recipients[0] for m in sink.messages] == [
            "mu2e-admins@example.org", "ops@example.org"]
        assert self.watermark(store, "dune_production") == 0  # failed: still due
        assert self.watermark(store, "mu2e_production") == 3


SUMMARY = Message(("ops@example.org",), "[managed-tokens] run r1: summary", "body\n")


class TestRenderDeterminism:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(count=st.integers(min_value=1, max_value=50),
           at=st.floats(min_value=0, max_value=2_000_000_000, allow_nan=False))
    def test_batch_body_is_a_pure_function_of_the_batch(self, site, count, at):
        # The config is only read, so one site serves every example.
        if "svc_x" not in site.services:
            site.add_service("svc_x", nodes=("n1",))
        cfg = site.config(notification={"threshold": 1})
        record = run_record(push_failure(service="svc_x", node="n1", error="err"))
        saved = streak(count, service="svc_x", node="n1")
        (page,) = aggregate(*record, saved, cfg, "r1", at)[0]
        assert aggregate(*record, saved, cfg, "r1", at)[0] == [page]
        assert page.body.endswith("\n")
        assert f"{count} consecutive" in page.body
        generated = datetime.fromtimestamp(at, tz=timezone.utc)
        assert f"generated: {generated:%Y-%m-%dT%H:%M:%SZ}\n" in page.body
