"""The benchmark's workloads, their fault plans and their critical-path bound.

A workload fixes the shape of the fleet (services S, credd hosts C, nodes per
service N, transfer budget P), the latencies injected into the doubles and
the faults. The seed only chooses which nodes carry the faults and how much
jitter the registry adds; the program never sees the seed, only the config
and the adapter bundle built from the plan.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# ``distribution.push_all`` starts one OS thread per (service, node) and the
# orchestrator one per service, so a run holds about S*(N+1) threads at once.
# Refuse any shape above this cap; never sweep towards thousands of threads.
THREAD_CAP = 512


class WorkloadTooLarge(ValueError):
    """The shape would start more threads than :data:`THREAD_CAP`."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    services: int
    credds: int
    nodes: int
    parallelism: int
    t_storer: float
    t_xfer: float
    # Warm: one state dir with every UID seeded, reused by every run.
    # Cold: a fresh, empty state dir for each sequence of ``sequence_runs``.
    warm: bool
    sequence_runs: int = 1
    t_registry: float = 0.0
    down_nodes: int = 0
    flaky_nodes: int = 0
    max_attempts: int = 3
    base_backoff: float = 1.0
    threshold: int = 3

    def program_threads(self) -> int:
        return self.services * (self.nodes + 1)

    def check_size(self) -> None:
        threads = self.program_threads()
        if threads > THREAD_CAP:
            raise WorkloadTooLarge(
                f"workload {self.name}: S*(N+1) = {self.services}*({self.nodes}+1) = "
                f"{threads} threads exceeds the cap of {THREAD_CAP}")
        if self.down_nodes + self.flaky_nodes > self.nodes:
            raise ValueError(f"workload {self.name}: more faulty nodes than nodes")

    def bound_s(self, registry_s: float = 0.0) -> float:
        """Critical-path lower bound of one run.

        Either every storer call runs back to back and the last service then
        pushes its nodes, or the first service stores and every push of the
        run then shares the budget. One budget permit covers both copies of a
        node. Retries and backoff are ignored. ``registry_s`` is added on a
        cold run, where no storer call can start before a UID is fetched.
        """
        S, C, N, P = self.services, self.credds, self.nodes, self.parallelism
        serial_storer = S * C * self.t_storer + math.ceil(N / P) * 2 * self.t_xfer
        shared_budget = C * self.t_storer + math.ceil(S * N / P) * 2 * self.t_xfer
        return max(serial_storer, shared_budget) + registry_s


@dataclass(frozen=True)
class Plan:
    """Everything the seed decides for one state dir."""

    down: frozenset[str]
    flaky: frozenset[str]
    registry_latency: dict[str, float]  # account -> seconds
    bundle_seed: int


def service_name(i: int) -> str:
    return f"svc{i:02d}_production"


def account_name(i: int) -> str:
    return f"svc{i:02d}prod"


def node_names(workload: Workload) -> list[str]:
    # Services share the site's submit nodes, so a down node fails for all.
    return [f"submit{j:02d}.bench.example.org" for j in range(workload.nodes)]


def make_plan(workload: Workload, rng: random.Random) -> Plan:
    """Draw one state dir's fault placement, registry jitter and bundle seed.

    Registry jitter only lengthens a call (1x to 1.5x ``t_registry``) so the
    bound, which adds the nominal latency, stays a lower bound.
    """
    picked = rng.sample(node_names(workload), workload.down_nodes + workload.flaky_nodes)
    latency = {
        account_name(i): workload.t_registry * (1.0 + 0.5 * rng.random())
        for i in range(workload.services)
    }
    return Plan(
        down=frozenset(picked[:workload.down_nodes]),
        flaky=frozenset(picked[workload.down_nodes:]),
        registry_latency=latency,
        bundle_seed=rng.getrandbits(32),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="storer_serial",
            why=("48 serialized storer calls set the critical path and pushes are few: "
                 "exercises credentials and the storer lock, bypasses fan-out and "
                 "statestore writes"),
            services=24, credds=2, nodes=2, parallelism=4,
            t_storer=0.010, t_xfer=0.002, warm=True,
        ),
        Workload(
            name="wide_fanout",
            why=("384 node pushes and 384 counter commits per run with ~400 threads: "
                 "exercises distribution, statestore writes, thread start-up and "
                 "per-node telemetry; credentials has little to do"),
            services=24, credds=1, nodes=16, parallelism=4,
            t_storer=0.001, t_xfer=0.002, warm=True,
        ),
        Workload(
            name="flaky_cold",
            why=("5 runs from an empty state dir with down and flaky nodes: exercises "
                 "registry fetch, retries and backoff, failure counters and "
                 "threshold notifications"),
            services=8, credds=1, nodes=8, parallelism=4,
            t_storer=0.010, t_xfer=0.002, warm=False, sequence_runs=5,
            t_registry=0.020, down_nodes=2, flaky_nodes=2,
            max_attempts=3, base_backoff=0.020, threshold=3,
        ),
    )
}
