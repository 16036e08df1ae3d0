"""The benchmark's deployment and adapter bundle.

A :class:`Deployment` is one throwaway site on local disk: state dir, shared
tmp dir, keytabs and a generated config. :func:`build_doubles` wires the
in-package ``simkit`` doubles into an ``AdapterBundle`` with real sleeps for
the injected latencies, plus two doubles of the benchmark's own: a transfer
double that injects node faults keyed by (service, node) and records when a
node holds both copies, and a registry double that adds latency.

The doubles sleep on their own clock. The bundle's clock is a separate
instance, so every sleep on it is the program's retry backoff.
"""

from __future__ import annotations

import os
import random
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

from managed_tokens import simkit
from managed_tokens.config import GlobalConfig, load_config
from managed_tokens.interfaces import AdapterBundle, SystemClock, TransferError
from managed_tokens.statestore import open_store

from .workloads import Plan, Workload, account_name, node_names, service_name

TICKET_COMMAND = "kinit -k -t {keytab} -c {cache} {principal}"
STORER_COMMAND = "condor_vault_storer {service}"
USER_TEMPLATE = "{tmp_dir}/vt_u{uid}"
ROLE_TEMPLATE = "{tmp_dir}/vt_u{uid}-{issuer}_{role}"
REGISTRY_URL = "http://registry.bench.example.org"
GATEWAY_URL = "http://pushgateway.bench.example.org:9091"
ROLE = "production"
FIRST_UID = 5000


@dataclass
class Deployment:
    """One site: its directories, generated config and set-up timings."""

    root: Path
    workload: Workload
    config: GlobalConfig
    setup_s: float
    load_s: float

    @property
    def tmp_dir(self) -> str:
        return str(self.root / "tmp")

    def services(self) -> list[str]:
        return [service_name(i) for i in range(self.workload.services)]

    def uid(self, service: str) -> int:
        return FIRST_UID + self.services().index(service)

    def uids(self) -> dict[str, int]:
        return {account_name(i): FIRST_UID + i for i in range(self.workload.services)}

    def destinations(self) -> dict[tuple[str, str], tuple[str, str]]:
        """(service, node) -> the two remote paths, rendered independently of
        the program from the templates the config was written with."""
        out = {}
        for i, service in enumerate(self.services()):
            values = {"tmp_dir": self.tmp_dir, "uid": FIRST_UID + i,
                      "issuer": f"svc{i:02d}vault", "role": ROLE}
            for node in node_names(self.workload):
                out[(service, node)] = (USER_TEMPLATE.format(**values),
                                        ROLE_TEMPLATE.format(**values))
        return out

    def shared_token_path(self, service: str) -> str:
        return USER_TEMPLATE.format(tmp_dir=self.tmp_dir, uid=self.uid(service))


def create_deployment(root: Path, workload: Workload) -> Deployment:
    """Build the site, write and load its config and, for a warm workload,
    seed every UID into the store. The whole call is the set-up time."""
    started = time.perf_counter()
    root = root.resolve()
    for sub in ("state", "tmp", "keytabs"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    nodes = node_names(workload)
    services = {}
    for i in range(workload.services):
        name, account = service_name(i), account_name(i)
        keytab = root / "keytabs" / f"{name}.keytab"
        keytab.write_bytes(b"\x05\x02keytab")
        services[name] = {
            "account": account,
            "experiment": f"svc{i:02d}",
            "role": ROLE,
            "keytab_path": str(keytab),
            "principal_user": account,
            "principal_purpose": "managedtokens",
            "principal_host": "tokens.bench.example.org",
            "credd_hosts": [f"credd{c}.bench.example.org" for c in range(workload.credds)],
            "nodes": nodes,
            "token_issuer": f"svc{i:02d}vault",
            "stakeholder_emails": [f"{name}-admins@bench.example.org"],
        }
    raw = {
        "state_dir": str(root / "state"),
        "tmp_dir": str(root / "tmp"),
        "kerberos_realm": "BENCH.EXAMPLE.ORG",
        "transfer_parallelism": workload.parallelism,
        "retry": {"max_attempts": workload.max_attempts,
                  "base_backoff": workload.base_backoff},
        "notification": {"admin_recipients": ["ops@bench.example.org"],
                         "threshold": workload.threshold},
        "registry": {"base_url": REGISTRY_URL},
        "metrics_gateway_url": GATEWAY_URL,
        "commands": {"ticket": TICKET_COMMAND, "storer": STORER_COMMAND},
        "destination_templates": {"user": USER_TEMPLATE, "role": ROLE_TEMPLATE},
        "default_token_path": USER_TEMPLATE,
        "services": services,
    }
    config_path = root / "config.yaml"
    config_path.write_text(yaml.safe_dump(raw, sort_keys=True))
    load_started = time.perf_counter()
    config = load_config(str(config_path))
    load_s = time.perf_counter() - load_started
    deployment = Deployment(root, workload, config, 0.0, load_s)
    if workload.warm:
        with open_store(config.state_dir) as store:
            for account, uid in deployment.uids().items():
                store.upsert_uid(account, uid, time.time())
    deployment.setup_s = time.perf_counter() - started
    return deployment


class TokenWriter:
    """Storer side effect: writes a token unique to (service, run) at the
    shared default path the invocation designates."""

    def __init__(self) -> None:
        self.run = 0

    def token(self, service: str) -> bytes:
        return f"hvs.perfbench.{service}.run{self.run}\n".encode()

    def __call__(self, index, argv, env) -> None:
        path = env["MANAGED_TOKENS_DEFAULT_TOKEN_PATH"]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(self.token(argv[-1]))
        os.chmod(path, 0o600)


class TransferDouble:
    """TransferAdapter double: every copy sleeps ``latency`` on its own clock.

    Faults are keyed by (service, node): a down node fails every copy, a
    flaky node fails the first copy of each (service, node) in a run. Copies
    land in memory. Per run it records when each (service, node) first holds
    two copies, the concurrency high-water mark and the highest thread count
    seen on entry.
    """

    def __init__(self, latency: float, plan: Plan,
                 destinations: dict[tuple[str, str], tuple[str, str]]):
        self.latency = latency
        self.down = plan.down
        self.flaky = plan.flaky
        self.clock = SystemClock()
        self.files: dict[tuple[str, str], bytes] = {}
        self._owner = {path: service for (service, _), paths in destinations.items()
                       for path in paths}
        self._mutex = threading.Lock()
        self.begin_run(time.perf_counter())

    def begin_run(self, t0: float) -> None:
        with self._mutex:
            self._t0 = t0
            self._tries: dict[tuple[str, str], int] = {}
            self._landed: dict[tuple[str, str], set[str]] = {}
            self.ready: dict[tuple[str, str], float] = {}
            self.unexpected: list[tuple[str, str]] = []
            self._active = 0
            self.high_water = 0
            self.peak_threads = 0

    def put(self, local_path: str, node: str, remote_path: str,
            timeout: Optional[float] = None) -> None:
        threads = threading.active_count()
        with self._mutex:
            self.peak_threads = max(self.peak_threads, threads)
            self._active += 1
            self.high_water = max(self.high_water, self._active)
            key = (self._owner.get(remote_path, ""), node)
            tries = self._tries[key] = self._tries.get(key, 0) + 1
        try:
            self.clock.sleep(self.latency)
            if not key[0]:
                with self._mutex:
                    self.unexpected.append((node, remote_path))
                raise TransferError(f"unexpected destination {node}:{remote_path}")
            if node in self.down or (node in self.flaky and tries == 1):
                raise TransferError(f"injected fault: {node} unreachable")
            with open(local_path, "rb") as fh:
                content = fh.read()
            landed_at = time.perf_counter()
            with self._mutex:
                self.files[(node, remote_path)] = content
                landed = self._landed.setdefault(key, set())
                landed.add(remote_path)
                if len(landed) == 2 and key not in self.ready:
                    self.ready[key] = landed_at - self._t0
        finally:
            with self._mutex:
                self._active -= 1


class RegistryDouble:
    """HttpAdapter double: the ``simkit`` fake registry behind a per-account
    latency."""

    def __init__(self, uids: dict[str, int], latency: dict[str, float]):
        self.inner = simkit.fake_registry(uids)
        self.latency = latency
        self.clock = SystemClock()

    def request(self, method, url, headers=None, body=None, timeout=None):
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
        account = query.get("username", [""])[0]
        self.clock.sleep(self.latency.get(account, 0.0))
        return self.inner.request(method, url, headers=headers, body=body, timeout=timeout)


@dataclass
class Doubles:
    bundle: AdapterBundle
    storer: simkit.ScriptedRunner
    tokens: TokenWriter
    transfer: TransferDouble
    registry: RegistryDouble
    sink: simkit.RecordingSink
    gateway: simkit.RecordingGateway


def build_doubles(deployment: Deployment, plan: Plan) -> Doubles:
    workload = deployment.workload
    double_clock = SystemClock()
    tokens = TokenWriter()
    ticket = simkit.scripted_runner(simkit.always_succeed("ticket"),
                                    clock=double_clock, name="ticket")
    storer = simkit.scripted_runner(
        simkit.FaultSchedule("storer", (simkit.delay(workload.t_storer),)),
        side_effects=tokens, clock=double_clock, name="storer")
    transfer = TransferDouble(workload.t_xfer, plan, deployment.destinations())
    registry = RegistryDouble(deployment.uids(), plan.registry_latency)
    sink = simkit.RecordingSink()
    gateway = simkit.RecordingGateway()
    bundle = AdapterBundle(
        runner=simkit.RoutedRunner({"kinit": ticket, "condor_vault_storer": storer}),
        transfer=transfer,
        http=registry,
        sink=sink,
        clock=SystemClock(),
        metrics_http=gateway,
        rng=random.Random(plan.bundle_seed),
    )
    return Doubles(bundle, storer, tokens, transfer, registry, sink, gateway)
