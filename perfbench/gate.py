"""Correctness gate: every run is checked against an independent model of
what it must leave behind. Any mismatch raises :class:`GateFailure`, and the
benchmark then exits non-zero without printing numbers."""

from __future__ import annotations

import os

from managed_tokens.statestore import open_store

from .doubles import Deployment, Doubles
from .workloads import Plan, node_names


class GateFailure(Exception):
    """A run's outputs differ from what the workload must produce."""


def _expect(what: str, got, want) -> None:
    if got != want:
        raise GateFailure(f"{what}: got {got!r}, want {want!r}")


class Gate:
    """Replays the failure-streak and notification policy for one state dir.

    Success resets a (service, node) streak and its notification watermark;
    a failure extends the streak. A stakeholder batch is due for a service
    when one of its nodes failed this run with a streak at least
    ``threshold`` and at least ``threshold`` past the watermark; sending it
    moves the watermark to the streak. The admin summary goes out whenever a
    run has any failure.
    """

    def __init__(self, deployment: Deployment, plan: Plan):
        self.deployment = deployment
        self.workload = deployment.workload
        self.services = deployment.services()
        self.pairs = [(s, n) for s in self.services for n in node_names(self.workload)]
        self.failing = {(s, n) for s, n in self.pairs if n in plan.down}
        self.streak = dict.fromkeys(self.pairs, 0)
        self.watermark = dict.fromkeys(self.pairs, 0)
        self.runs = 0
        self.notifications_sent = 0

    def expected_sent(self) -> int:
        """Advance the model by one run and return the sends it must make."""
        threshold = self.workload.threshold
        due_services = set()
        for pair in self.pairs:
            if pair in self.failing:
                self.streak[pair] += 1
                if (self.streak[pair] >= threshold
                        and self.streak[pair] - self.watermark[pair] >= threshold):
                    self.watermark[pair] = self.streak[pair]
                    due_services.add(pair[0])
            else:
                self.streak[pair] = 0
                self.watermark[pair] = 0
        return len(due_services) + (1 if self.failing else 0)

    def check(self, report, doubles: Doubles, before: dict) -> None:
        """Check one finished run. ``before`` holds the doubles' cumulative
        counts taken just before the run started."""
        cold = not self.workload.warm and self.runs == 0
        self.runs += 1
        want_sent = self.expected_sent()
        transfer = doubles.transfer

        _expect("transfer destinations outside the expected set", transfer.unexpected, [])
        outcomes = {(o.service, o.node): o for o in report.push_outcomes}
        _expect("push outcomes", len(report.push_outcomes), len(self.pairs))
        _expect("pushed (service, node) pairs", sorted(outcomes), sorted(self.pairs))
        failed = {pair for pair, o in outcomes.items() if not o.success}
        _expect("failed (service, node) set", sorted(failed), sorted(self.failing))

        destinations = self.deployment.destinations()
        for pair, outcome in outcomes.items():
            if not outcome.success:
                continue
            token = doubles.tokens.token(pair[0])
            node = pair[1]
            for path in destinations[pair]:
                if transfer.files.get((node, path)) != token:
                    raise GateFailure(f"{node}:{path} does not hold this run's token "
                                      f"of {pair[0]}")
            if pair not in transfer.ready:
                raise GateFailure(f"{pair} reported success but never held both copies")

        stages = ["ticket", "vault_store", "push"]
        if cold:
            stages.insert(0, "registry")
        for service in self.services:
            results = report.per_service.get(service, ())
            _expect(f"{service} stages", [r.stage for r in results], stages)
            for result in results:
                want_ok = result.stage != "push" or not any(
                    (service, n) in self.failing for n in node_names(self.workload))
                _expect(f"{service} {result.stage} success", result.success, want_ok)
            shared = self.deployment.shared_token_path(service)
            if os.path.exists(shared):
                raise GateFailure(f"token left at the shared default path {shared}")

        _expect("storer calls", len(doubles.storer.log.entries()) - before["storer_calls"],
                self.workload.services * self.workload.credds)
        hits = sum(doubles.registry.inner.hits.values()) - before["registry_hits"]
        _expect("registry fetches", hits, self.workload.services if cold else 0)

        _expect("notifications_sent", report.notifications_sent, want_sent)
        _expect("messages at the sink", len(doubles.sink.messages) - before["messages"],
                want_sent)
        self.notifications_sent += want_sent

        with open_store(self.deployment.config.state_dir) as store:
            counters = {(c.service, c.node): (c.consecutive_failures, c.last_notified_count)
                        for c in store.counters()}
            uids = {r.account: r.uid for r in store.uid_records()}
        model = {pair: (self.streak[pair], self.watermark[pair]) for pair in self.pairs}
        _expect("failure counters", counters, model)
        _expect("stored UIDs", uids, self.deployment.uids())
