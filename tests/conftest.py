"""Shared fixtures: a throwaway deployment layout plus hermetic adapter
bundles assembled from the in-package doubles."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Mapping, Optional

import pytest
import yaml
from hypothesis import settings

from managed_tokens import simkit
from managed_tokens.config import GlobalConfig, load_config
from managed_tokens.interfaces import AdapterBundle
from managed_tokens.observability import SpanRecord
from managed_tokens.statestore import open_store

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


class Site:
    """One hermetic deployment rooted in a temp directory: state dir, shared
    tmp dir, keytabs, and a generated config file."""

    def __init__(self, root: Path):
        self.root = root
        self.state_dir = root / "state"
        self.tmp_dir = root / "tmp"
        self.keytab_dir = root / "keytabs"
        for directory in (self.state_dir, self.tmp_dir, self.keytab_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.services: dict[str, dict] = {}

    def keytab(self, name: str) -> str:
        path = self.keytab_dir / f"{name}.keytab"
        path.write_bytes(b"\x05\x02keytab")
        return str(path)

    def add_service(
        self,
        name: str,
        account: Optional[str] = None,
        nodes: tuple[str, ...] = ("submit1.example.org", "submit2.example.org"),
        credd_hosts: tuple[str, ...] = ("credd1.example.org",),
        role: str = "production",
        stakeholder_emails: Optional[tuple[str, ...]] = None,
        overrides: Optional[Mapping[str, object]] = None,
    ) -> str:
        experiment = name.split("_")[0]
        account = account or f"{experiment}prod"
        entry = {
            "account": account,
            "experiment": experiment,
            "role": role,
            "keytab_path": self.keytab(name),
            "principal_user": account,
            "principal_purpose": "managedtokens",
            "principal_host": "tokens.example.org",
            "credd_hosts": list(credd_hosts),
            "nodes": list(nodes),
            "token_issuer": f"{experiment}vault",
            "stakeholder_emails": list(
                stakeholder_emails
                if stakeholder_emails is not None
                else (f"{name}-admins@example.org",)
            ),
        }
        if overrides:
            entry["overrides"] = dict(overrides)
        self.services[name] = entry
        return account

    @property
    def accounts(self) -> dict[str, str]:
        return {name: svc["account"] for name, svc in self.services.items()}

    def uid_map(self, start: int = 5000) -> dict[str, int]:
        uids: dict[str, int] = {}
        for account in self.accounts.values():
            uids.setdefault(account, start + len(uids))
        return uids

    def config_path(self, **global_fields) -> str:
        raw = {
            "state_dir": str(self.state_dir),
            "tmp_dir": str(self.tmp_dir),
            "kerberos_realm": "EXAMPLE.ORG",
            "notification": {"admin_recipients": ["ops@example.org"]},
            "registry": {"base_url": "http://registry.example.org"},
            "services": self.services,
        }
        for key, value in global_fields.items():
            raw[key] = value
        path = self.root / "config.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=True))
        return str(path)

    def config(self, **global_fields) -> GlobalConfig:
        return load_config(self.config_path(**global_fields))

    def seed_uids(self, uids: Mapping[str, int], now: float = 0.0) -> None:
        with open_store(str(self.state_dir)) as store:
            for account, uid in uids.items():
                store.upsert_uid(account, uid, now)


@pytest.fixture
def site(tmp_path: Path) -> Site:
    return Site(tmp_path)


class SteppingBackClock(simkit.FixedClock):
    """A wall clock that NTP keeps stepping back: every ``now()`` reads 5 s
    earlier than the one before. ``monotonic()`` is never stepped."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._reads = itertools.count()

    def now(self) -> float:
        return super().now() - 5.0 * next(self._reads)


class SubstringRouter:
    """CommandRunner double that picks a scripted runner by substring match
    against the argv, so one service's commands can be scripted differently
    from the rest."""

    def __init__(self, default, routes: Optional[Mapping[str, object]] = None):
        self.default = default
        self.routes = dict(routes or {})

    def run(self, argv, env_overrides=None, timeout=None):
        joined = " ".join(argv)
        for key, runner in self.routes.items():
            if key in joined:
                return runner.run(argv, env_overrides=env_overrides, timeout=timeout)
        return self.default.run(argv, env_overrides=env_overrides, timeout=timeout)


def make_bundle(
    clock=None,
    ticket_schedule: Optional[simkit.FaultSchedule] = None,
    storer_schedule: Optional[simkit.FaultSchedule] = None,
    storer_side_effects=None,
    transfer_faults: Optional[Mapping[str, simkit.FaultSchedule]] = None,
    uids: Optional[Mapping[str, object]] = None,
    sink=None,
    gateway=None,
    seed: int = 7,
) -> AdapterBundle:
    """Hermetic bundle: scripted kinit/storer, in-memory transfer, fixture
    registry, recording sink and gateway. Reach the pieces through the bundle
    fields (runner.routes["kinit"].log and friends)."""
    clock = clock if clock is not None else simkit.FixedClock()
    ticket = simkit.scripted_runner(
        ticket_schedule or simkit.always_succeed("ticket"), clock=clock, name="ticket")
    storer = simkit.scripted_runner(
        storer_schedule or simkit.always_succeed("storer"),
        side_effects=(storer_side_effects if storer_side_effects is not None
                      else simkit.write_token_from_env()),
        clock=clock, name="storer")
    runner = simkit.RoutedRunner({"kinit": ticket, "condor_vault_storer": storer})
    return AdapterBundle(
        runner=runner,
        transfer=simkit.MemoryTransfer(faults=transfer_faults, clock=clock),
        http=simkit.fake_registry(uids or {}),
        sink=sink if sink is not None else simkit.RecordingSink(),
        clock=clock,
        metrics_http=gateway if gateway is not None else simkit.RecordingGateway(),
        rng=random.Random(seed),
    )


def ticket_log(bundle: AdapterBundle) -> simkit.InvocationLog:
    return bundle.runner.routes["kinit"].log


def storer_log(bundle: AdapterBundle) -> simkit.InvocationLog:
    return bundle.runner.routes["condor_vault_storer"].log


class ReferenceCounter:
    """Independent replay of the per-(service, node) failure-streak policy:
    success resets streak and watermark, failure extends the streak, a
    notification is due once the streak has grown by the threshold past the
    last acknowledged point."""

    def __init__(self) -> None:
        self.streak = 0
        self.watermark = 0

    def record(self, success: bool) -> None:
        if success:
            self.streak = 0
            self.watermark = 0
        else:
            self.streak += 1

    def due(self, threshold: int) -> bool:
        return (self.streak >= threshold
                and self.streak - self.watermark >= threshold)

    def ack(self) -> None:
        self.watermark = self.streak


def load_spans(path: str) -> list[SpanRecord]:
    """Read back a JSON-lines span file."""
    with open(path, "r", encoding="utf-8") as fh:
        return [SpanRecord(**json.loads(line)) for line in fh if line.strip()]


def intervals_overlap(a_start: float, a_end: float, b_start: float, b_end: float) -> bool:
    return a_start < b_end and b_start < a_end


def assert_pairwise_disjoint(entries) -> None:
    """Entries are (start, end) interval pairs; fail on any overlap."""
    ordered = sorted(entries)
    for (s1, e1), (s2, e2) in zip(ordered, ordered[1:]):
        assert e1 <= s2 + 1e-9, f"intervals overlap: ({s1}, {e1}) and ({s2}, {e2})"
