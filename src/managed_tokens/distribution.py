"""Fan-out of staged vault tokens to submit-point nodes.

Every node receives two copies of the token: one at the per-user discovery
path (keyed by UID only) and one at the per-UID/issuer/role path, because
the two downstream consumers locate tokens differently. A node counts as
successfully served only when both copies land.

One transfer pool per run (:class:`ParallelismBudget`) runs every push
attempt, where an attempt is both copies to one node. Its workers only copy:
they never sleep and never touch the store. The thread that calls
:func:`push_all` schedules its own service's nodes on that pool. It keeps a
failed node's retry on a heap until its backoff has passed, so a retry waits
without holding a transfer slot. Retry ``k`` waits a full-jitter draw from
``[0, base_backoff * 2**(k-1)]``, which keeps concurrent retries from
synchronizing; nothing caps the window.
"""

from __future__ import annotations

import collections
import heapq
import logging
import os.path
import random
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from .config import ResolvedService, RetryPolicy
from .credentials import VaultTokenFile, validate_token_file
from .interfaces import Clock, TransferAdapter, TransferError, describe_error
from .statestore import Store

logger = logging.getLogger(__name__)

_module_rng = random.Random()


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
    duration: float
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


def _run_inline(fn: Callable[..., None], *args: Any) -> Future:
    """Run ``fn`` in the caller and hand back its already settled future."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _push(
    token: VaultTokenFile,
    dests: Sequence[Destination],
    transfer: TransferAdapter,
    retry: RetryPolicy,
    clock: Clock,
    rng: Optional[random.Random],
    timeout: Optional[float],
    submit: Callable[..., Future],
    cap: int,
) -> Iterator[tuple[int, PushOutcome]]:
    """Drive every destination to its final outcome and yield
    ``(index, outcome)`` as each one settles.

    The staged token is validated before any attempt. At most ``cap``
    attempts are in flight. A ``TransferError`` is retried up to the policy;
    any other exception fails its node at once. While attempts are in flight
    the caller waits for the first of them to finish or for the next retry to
    fall due; only with nothing in flight does it sleep on ``clock``, and the
    retry it slept for then goes out even if ``clock`` did not move, so a
    clock that never advances still finishes.
    """
    check = validate_token_file(token.path)
    if not (check.exists and check.non_empty and check.perms_ok):
        raise ValueError(f"staged token at {token.path} failed validation: {check}")
    rng = rng if rng is not None else _module_rng

    attempts = [0] * len(dests)
    started = [0.0] * len(dests)
    ready = collections.deque(range(len(dests)))
    backoff: list[tuple[float, int]] = []  # (due on clock, index): a min-heap
    in_flight: dict[Future, int] = {}

    def settle(i: int, error: Optional[str] = None) -> PushOutcome:
        return PushOutcome(service=token.service, node=dests[i].node,
                           success=error is None, attempts=attempts[i],
                           duration=clock.now() - started[i], error=error)

    while ready or backoff or in_flight:
        now = clock.now()
        while backoff and backoff[0][0] <= now:
            ready.append(heapq.heappop(backoff)[1])
        while ready and len(in_flight) < cap:
            i = ready.popleft()
            if attempts[i] == 0:
                started[i] = clock.now()
            attempts[i] += 1
            in_flight[submit(_attempt, token.path, dests[i], transfer, timeout)] = i
        if not in_flight:
            due, i = heapq.heappop(backoff)
            clock.sleep(due - clock.now())
            ready.append(i)
            continue
        until_due = max(0.0, backoff[0][0] - clock.now()) if backoff else None
        done, _ = wait(in_flight, timeout=until_due, return_when=FIRST_COMPLETED)
        for future in done:
            i = in_flight.pop(future)
            exc = future.exception()
            if exc is None:
                yield i, settle(i)
                continue
            retryable = isinstance(exc, TransferError)
            error = str(exc) if retryable else describe_error(exc)
            logger.warning(
                "transfer attempt failed service=%s node=%s attempt=%d error=%s",
                token.service, dests[i].node, attempts[i], error,
            )
            if retryable and attempts[i] < retry.max_attempts:
                window = retry.base_backoff * 2 ** (attempts[i] - 1)
                heapq.heappush(backoff, (clock.now() + rng.uniform(0, window), i))
            else:
                yield i, settle(i, error)


def push_token(
    token: VaultTokenFile,
    dest: Destination,
    transfer: TransferAdapter,
    retry: RetryPolicy,
    clock: Clock,
    rng: Optional[random.Random] = None,
    timeout: Optional[float] = None,
) -> PushOutcome:
    """Copy the staged token to both paths on one node, with retries, in the
    caller's thread.

    One attempt means one try at *both* paths; a partial copy is a failed
    attempt (a node holding only one of the two files is broken for one of
    its consumers). Failure is reported in the outcome, never raised.
    """
    [(_, outcome)] = _push(token, [dest], transfer, retry, clock, rng, timeout,
                           _run_inline, cap=1)
    return outcome


def push_all(
    svc: ResolvedService,
    token: VaultTokenFile,
    store: Store,
    transfer: TransferAdapter,
    limiter: ParallelismBudget,
    clock: Clock,
    rng: Optional[random.Random] = None,
) -> list[PushOutcome]:
    """Push to every node of the service through the run's transfer pool.

    At most ``min(svc.transfer_parallelism, limiter.limit)`` of this
    service's attempts are in flight at once. Each node's final outcome is
    folded into its persistent failure counter as soon as it is known; one
    node failing never stops the others. Outcomes come back in node order.
    """
    dests = [compute_destinations(svc, node, token.uid) for node in svc.nodes]
    cap = min(svc.transfer_parallelism, limiter.limit)
    settled: dict[int, PushOutcome] = {}
    for i, outcome in _push(token, dests, transfer, svc.retry, clock, rng,
                            svc.timeouts.transfer, limiter.submit, cap):
        store.record_push_outcome(svc.name, outcome.node, outcome.success, clock.now())
        settled[i] = outcome
    return [settled[i] for i in range(len(dests))]
