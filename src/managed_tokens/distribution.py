"""Fan-out of staged vault tokens to submit-point nodes.

Every node receives two copies of the token: one at the per-user discovery
path (keyed by UID only) and one at the per-UID/issuer/role path, because
the two downstream consumers locate tokens differently. A node counts as
successfully served only when both copies land.

One transfer pool per run (:class:`ParallelismBudget`) runs every push
attempt, where an attempt is both copies to one node; its workers only copy.
One :class:`PushScheduler` per run decides, from the caller's thread, what
runs on that pool. A failed node's retry waits on its backoff heap, so it
holds no transfer slot. Retry ``k`` waits a full-jitter draw from
``[0, base_backoff * 2**(k-1)]``, which keeps concurrent retries from
synchronizing; nothing caps the window.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import logging
import os.path
import random
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Optional

from .config import ResolvedService
from .credentials import VaultTokenFile, validate_token_file
from .interfaces import Clock, TransferAdapter, TransferError, describe_error
from .statestore import Store

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Destination:
    node: str
    paths: tuple[str, str]  # (user-style, uid/issuer/role-style)

    def __post_init__(self) -> None:
        if len(self.paths) != 2 or self.paths[0] == self.paths[1]:
            raise ValueError("a destination carries exactly two distinct paths")
        if not all(os.path.isabs(p) for p in self.paths):
            raise ValueError("destination paths must be absolute")


@dataclass(frozen=True)
class PushOutcome:
    service: str
    node: str
    success: bool
    attempts: int
    error: Optional[str] = None


class ParallelismBudget:
    """The run's transfer pool: ``limit`` worker threads, so at most
    ``limit`` push attempts run at once across every service.

    Leaving its ``with`` block waits for the workers and stops them.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("parallelism budget must be >= 1")
        self.limit = limit
        self._pool = ThreadPoolExecutor(limit, thread_name_prefix="transfer")

    def submit(self, fn: Callable[..., None], *args: Any) -> Future:
        return self._pool.submit(fn, *args)

    def __enter__(self) -> "ParallelismBudget":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._pool.shutdown(wait=True)


def compute_destinations(
    svc: ResolvedService,
    node: str,
    uid: int,
    tmp_dir: Optional[str] = None,
) -> Destination:
    """Render the two remote paths for one node from the configured templates."""
    if uid < 0:
        raise ValueError("uid must be >= 0")
    values = {
        "tmp_dir": tmp_dir if tmp_dir is not None else svc.tmp_dir,
        "uid": uid,
        "issuer": svc.token_issuer,
        "role": svc.role,
        "service": svc.name,
        "account": svc.account,
    }
    user_path = svc.destination_templates.user.format(**values)
    role_path = svc.destination_templates.role.format(**values)
    return Destination(node=node, paths=(user_path, role_path))


def _attempt(local_path: str, dest: Destination, transfer: TransferAdapter,
             timeout: Optional[float]) -> None:
    """One attempt: both copies to one node. The first failed copy raises."""
    for path in dest.paths:
        transfer.put(local_path, dest.node, path, timeout=timeout)


@dataclass(eq=False)
class ServicePush:
    """One service's nodes in the scheduler. ``failure`` holds the first
    error that recording one of its outcomes raised."""

    svc: ResolvedService
    token: VaultTokenFile
    dests: list[Destination]
    started: float
    attempts: list[int]
    ready: collections.deque
    settled: dict[int, PushOutcome] = field(default_factory=dict)
    recorded: int = 0
    running: int = 0
    failure: Optional[Exception] = None


class PushScheduler:
    """Every push of one run, scheduled on its transfer pool.

    At most ``2 * budget.limit`` attempts are submitted at once (one running
    and one queued per worker), ``svc.transfer_parallelism`` of them one
    service's; free slots go to services in the order they were added. A
    ``TransferError`` is retried up to the service's policy; any other
    exception fails its node at once. A node's final outcome goes into its
    persistent failure counter at the next step that hands nothing back.
    """

    def __init__(self, budget: ParallelismBudget, transfer: TransferAdapter,
                 store: Store, clock: Clock, rng: Optional[random.Random] = None):
        self._budget = budget
        self._transfer = transfer
        self._store = store
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._open: list[ServicePush] = []
        self._finished: list[ServicePush] = []
        # (due on clock, tie-breaker, service, node index): a min-heap
        self._backoff: list[tuple[float, int, ServicePush, int]] = []
        self._order = itertools.count()
        self._in_flight: dict[Future, tuple[ServicePush, int]] = {}
        self._window = 2 * budget.limit
        self._unrecorded: collections.deque[tuple[ServicePush, int]] = collections.deque()

    @property
    def busy(self) -> bool:
        """Some added service has not been handed back by :meth:`step` yet."""
        return bool(self._open or self._finished)

    def add(self, svc: ResolvedService, token: VaultTokenFile) -> None:
        """Queue every node of ``svc``. The staged token is validated first,
        and so is its ``hvs.``/``s.`` prefix when the service asks for it; a
        token that fails raises ``ValueError`` before any copy."""
        check = validate_token_file(token.path, svc.token_prefix_check)
        if not check.ok:
            raise ValueError(f"staged token at {token.path} failed validation: {check}")
        dests = [compute_destinations(svc, node, token.uid) for node in svc.nodes]
        push = ServicePush(svc, token, dests, self._clock.now(), [0] * len(dests),
                           collections.deque(range(len(dests))))
        (self._open if dests else self._finished).append(push)

    def step(self, others: Collection[Future] = ()) -> tuple[list[ServicePush], set[Future]]:
        """Start what may start, then wait until an attempt or one of
        ``others`` finishes or the next retry falls due. Returns the services
        settled since the last step and the finished ``others``. Only with
        nothing in flight does it sleep on the clock, and the retry it slept
        for then goes out even if the clock did not move, so a clock that
        never advances still finishes."""
        now = self._clock.now()
        while self._backoff and self._backoff[0][0] <= now:
            _, _, push, i = heapq.heappop(self._backoff)
            push.ready.append(i)
        self._start()
        done: set[Future] = set()
        if self._in_flight or others or self._unrecorded:
            # Record one outcome per step that hands nothing back: no refill
            # or stage hand-off then waits behind more than one store commit.
            until_due = (0.0 if self._unrecorded else
                         max(0.0, self._backoff[0][0] - self._clock.now())
                         if self._backoff else None)
            done, _ = wait([*self._in_flight, *others], timeout=until_due,
                           return_when=FIRST_COMPLETED)
            pushes = {f for f in done if f in self._in_flight}
            for future in pushes:
                self._finish(future)
            done -= pushes
            self._start()
            if self._unrecorded and not done:
                self._record(*self._unrecorded.popleft())
        elif self._backoff:
            due, _, push, i = heapq.heappop(self._backoff)
            self._clock.sleep(due - self._clock.now())
            push.ready.append(i)
        finished, self._finished = self._finished, []
        return finished, done

    def _start(self) -> None:
        for push in self._open:
            while (push.ready and push.running < push.svc.transfer_parallelism
                   and len(self._in_flight) < self._window):
                i = push.ready.popleft()
                push.attempts[i] += 1
                push.running += 1
                future = self._budget.submit(_attempt, push.token.path, push.dests[i],
                                             self._transfer, push.svc.timeouts.transfer)
                self._in_flight[future] = (push, i)
            if len(self._in_flight) >= self._window:
                return

    def _finish(self, future: Future) -> None:
        """Book a finished attempt: its node settles, or waits for a retry."""
        push, i = self._in_flight.pop(future)
        push.running -= 1
        exc = future.exception()
        error = None
        if exc is not None:
            retryable = isinstance(exc, TransferError)
            error = str(exc) if retryable else describe_error(exc)
            logger.warning("transfer attempt failed service=%s node=%s attempt=%d error=%s",
                           push.svc.name, push.dests[i].node, push.attempts[i], error)
            if retryable and push.attempts[i] < push.svc.retry.max_attempts:
                window = push.svc.retry.base_backoff * 2 ** (push.attempts[i] - 1)
                due = self._clock.now() + self._rng.uniform(0, window)
                heapq.heappush(self._backoff, (due, next(self._order), push, i))
                return
        push.settled[i] = PushOutcome(service=push.svc.name, node=push.dests[i].node,
                                      success=error is None, attempts=push.attempts[i],
                                      error=error)
        self._unrecorded.append((push, i))

    def _record(self, push: ServicePush, i: int) -> None:
        outcome = push.settled[i]
        try:
            self._store.record_push_outcome(push.svc.name, outcome.node,
                                            outcome.success, self._clock.now())
        except Exception as exc:
            push.failure = push.failure or exc
        push.recorded += 1
        if push.recorded == len(push.dests):
            self._open.remove(push)
            self._finished.append(push)
