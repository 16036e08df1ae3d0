"""Fan-out of staged vault tokens to submit-point nodes.

Every node receives two copies of the token: one at the per-user discovery
path (keyed by UID only) and one at the per-UID/issuer/role path, because
the two downstream consumers locate tokens differently. A node counts as
successfully served only when both copies land.

One :class:`PushScheduler` per run owns the run's transfer pool, whose
workers only copy, and decides from the caller's thread which push attempt
runs on it next; an attempt is both copies to one node. It only schedules:
the caller saves each settled node's outcome. A failed node's retry waits on
its backoff heap, so it holds no transfer slot. Retry ``k`` waits a
full-jitter draw from ``[0, base_backoff * 2**(k-1)]``, which keeps
concurrent retries from synchronizing; nothing caps the window. Waits are
scheduled on ``Clock.monotonic``, so a wall clock stepped back does not
stretch them. Once the run's cancel event is set no attempt starts: the
attempts in flight finish, and every node still unsettled is settled as
:data:`ABORTED`. A backoff sleep already begun wakes when the event is set.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import logging
import random
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Collection, Optional

from .config import ResolvedService, placeholders
from .credentials import VaultTokenFile
from .interfaces import Clock, TransferAdapter, TransferError, describe_error

logger = logging.getLogger(__name__)

ABORTED = "aborted: shutdown requested"


@dataclass(frozen=True)
class PushOutcome:
    service: str
    node: str
    success: bool
    attempts: int
    error: Optional[str] = None


def compute_destinations(svc: ResolvedService, uid: int) -> tuple[str, str]:
    """Render a service's two remote paths, the same on every node, from the
    configured templates: (user-style, uid/issuer/role-style)."""
    values = placeholders(svc, uid)
    paths = (svc.destination_templates.user.format(**values),
             svc.destination_templates.role.format(**values))
    if paths[0] == paths[1]:
        raise ValueError("destination paths must be distinct")
    return paths


def _attempt(local_path: str, node: str, paths: tuple[str, str],
             transfer: TransferAdapter, timeout: Optional[float]) -> None:
    """One attempt: both copies to one node. The first failed copy raises."""
    for path in paths:
        transfer.put(local_path, node, path, timeout=timeout)


@dataclass(eq=False)
class ServicePush:
    """One service's nodes in the scheduler."""

    svc: ResolvedService
    token: VaultTokenFile
    paths: tuple[str, str]  # the same on every node of svc.nodes
    started: float
    attempts: list[int]
    ready: collections.deque
    settled: dict[int, PushOutcome] = field(default_factory=dict)
    running: int = 0


class PushScheduler:
    """Every push of one run, scheduled on its transfer pool of ``limit``
    worker threads, so at most ``limit`` attempts run at once across every
    service.

    At most ``2 * limit`` attempts are submitted at once (one running and one
    queued per worker), ``svc.transfer_parallelism`` of them one service's;
    free slots go to services in the order they were added. A
    ``TransferError`` is retried up to the service's policy; any other
    exception fails its node at once. A service is handed back as soon as
    its last node settles. Leaving the ``with`` block waits for the workers
    and stops them.
    """

    def __init__(self, limit: int, transfer: TransferAdapter, clock: Clock,
                 rng: Optional[random.Random] = None,
                 cancel: Optional[threading.Event] = None):
        self._pool = ThreadPoolExecutor(limit, thread_name_prefix="transfer")
        self._window = 2 * limit
        self._transfer = transfer
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._cancel = cancel
        self._open: list[ServicePush] = []
        self._finished: list[ServicePush] = []
        # (due on the monotonic clock, tie-breaker, service, node index): a min-heap
        self._backoff: list[tuple[float, int, ServicePush, int]] = []
        self._order = itertools.count()
        self._in_flight: dict[Future, tuple[ServicePush, int]] = {}

    def __enter__(self) -> "PushScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._pool.shutdown(wait=True)

    @property
    def busy(self) -> bool:
        """Some added service has not been handed back by :meth:`step` yet."""
        return bool(self._open or self._finished)

    def add(self, svc: ResolvedService, token: VaultTokenFile) -> None:
        """Queue every node of ``svc``. Paths that render equal raise
        ``ValueError`` before any copy; the token itself was checked when it
        was staged."""
        self._open.append(ServicePush(svc, token, compute_destinations(svc, token.uid),
                                      self._clock.now(), [0] * len(svc.nodes),
                                      collections.deque(range(len(svc.nodes)))))

    def step(self, others: Collection[Future] = ()) -> tuple[list[ServicePush], set[Future]]:
        """Start what may start, then wait until an attempt or one of
        ``others`` finishes or the next retry falls due. Returns the services
        settled since the last step and the finished ``others``. Only with
        nothing in flight does it sleep on the clock, and the retry it slept
        for then goes out even if the clock did not move, so a clock that
        never advances still finishes."""
        now = self._clock.monotonic()
        while self._backoff and self._backoff[0][0] <= now:
            _, _, push, i = heapq.heappop(self._backoff)
            push.ready.append(i)
        self._start()
        done: set[Future] = set()
        if self._in_flight or others:
            until_due = (max(0.0, self._backoff[0][0] - self._clock.monotonic())
                         if self._backoff else None)
            done, _ = wait([*self._in_flight, *others], timeout=until_due,
                           return_when=FIRST_COMPLETED)
            pushes = {f for f in done if f in self._in_flight}
            for future in pushes:
                self._finish(future)
            done -= pushes
            self._start()
        elif self._backoff:
            due, _, push, i = heapq.heappop(self._backoff)
            self._clock.sleep(due - self._clock.monotonic(), until=self._cancel)
            push.ready.append(i)
        finished, self._finished = self._finished, []
        return finished, done

    def _start(self) -> None:
        if self._cancel is not None and self._cancel.is_set():
            self._abort()
            return
        for push in self._open:
            while (push.ready and push.running < push.svc.transfer_parallelism
                   and len(self._in_flight) < self._window):
                i = push.ready.popleft()
                push.attempts[i] += 1
                push.running += 1
                future = self._pool.submit(_attempt, push.token.path, push.svc.nodes[i],
                                           push.paths, self._transfer,
                                           push.svc.timeouts.transfer)
                self._in_flight[future] = (push, i)
            if len(self._in_flight) >= self._window:
                return

    def _abort(self) -> None:
        """Settle every node that waits for an attempt or a retry as aborted."""
        for _, _, push, i in self._backoff:
            push.ready.append(i)
        self._backoff.clear()
        for push in list(self._open):
            while push.ready:
                self._settle(push, push.ready.popleft(), ABORTED)

    def _finish(self, future: Future) -> None:
        """Book a finished attempt: its node settles, or waits for a retry."""
        push, i = self._in_flight.pop(future)
        push.running -= 1
        exc = future.exception()
        error = None
        if exc is not None:
            retryable = isinstance(exc, TransferError)
            text = " ".join(str(exc).split())  # one line, as describe_error writes
            error = (text or "transfer failed") if retryable else describe_error(exc)
            logger.warning("transfer attempt failed service=%s node=%s attempt=%d error=%s",
                           push.svc.name, push.svc.nodes[i], push.attempts[i], error)
            if retryable and push.attempts[i] < push.svc.retry.max_attempts:
                window = push.svc.retry.base_backoff * 2 ** (push.attempts[i] - 1)
                due = self._clock.monotonic() + self._rng.uniform(0, window)
                heapq.heappush(self._backoff, (due, next(self._order), push, i))
                return
        self._settle(push, i, error)

    def _settle(self, push: ServicePush, i: int, error: Optional[str]) -> None:
        push.settled[i] = PushOutcome(service=push.svc.name, node=push.svc.nodes[i],
                                      success=error is None, attempts=push.attempts[i],
                                      error=error)
        if len(push.settled) == len(push.svc.nodes):
            self._open.remove(push)
            self._finished.append(push)
