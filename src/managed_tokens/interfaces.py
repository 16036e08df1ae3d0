"""Adapter contracts shared by every module that talks to the outside world.

Each external system (subprocesses, remote filesystems, HTTP services,
mail) is reached through a small protocol so the whole pipeline can run
against hermetic doubles (see :mod:`managed_tokens.simkit`) or against the
real implementations (see :mod:`managed_tokens.adapters`).

Timestamps are never taken from the wall clock directly: every component
receives a :class:`Clock`, which is how hermetic runs stay deterministic.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Protocol


class TransportError(Exception):
    """A network-level failure (connect, TLS, DNS) before an HTTP status."""


class TransportTimeout(TransportError):
    """The HTTP request did not complete within its timeout."""


class CommandTimeout(Exception):
    """An external command did not finish within its timeout."""

    def __init__(self, argv: tuple[str, ...], timeout: float):
        super().__init__(f"command {' '.join(argv)} timed out after {timeout}s")
        self.argv = argv
        self.timeout = timeout


class TransferError(Exception):
    """A single remote copy failed; carries the adapter's error message."""


def describe_error(exc: BaseException) -> str:
    """``Type: message`` on one line, or the bare type name for an empty
    message: how a failure raised through an adapter is reported."""
    text = " ".join(str(exc).split())
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


@dataclass(frozen=True)
class Invocation:
    """One completed external-command execution."""

    argv: tuple[str, ...]
    exit_code: int
    stdout: str
    stderr: str


class Clock(Protocol):
    def now(self) -> float:
        """Seconds since the epoch."""
        ...

    def monotonic(self) -> float:
        """Seconds on a clock that never steps back, for scheduling waits."""
        ...

    def sleep(self, seconds: float, until: Optional[threading.Event] = None) -> None:
        """Wait ``seconds``, or less if the event ``until`` is set meanwhile."""
        ...


class SystemClock:
    """Real wall clock."""

    def now(self) -> float:
        return time.time()

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float, until: Optional[threading.Event] = None) -> None:
        if until is not None:
            until.wait(seconds)
        elif seconds > 0:
            time.sleep(seconds)


class CommandRunner(Protocol):
    """Runs an external command and reports its outcome.

    Implementations must be safe for concurrent use and must raise
    :class:`CommandTimeout` when the command exceeds ``timeout`` seconds.
    """

    def run(
        self,
        argv: tuple[str, ...] | list[str],
        env_overrides: Optional[Mapping[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> Invocation:
        ...


class TransferAdapter(Protocol):
    """Copies a local file to a path on a remote node.

    The copy must be atomic from a remote reader's perspective
    (write-to-temp-then-rename or equivalent). Raises
    :class:`TransferError` on failure. Safe for concurrent use.
    """

    def put(
        self,
        local_path: str,
        node: str,
        remote_path: str,
        timeout: Optional[float] = None,
    ) -> None:
        ...


class HttpAdapter(Protocol):
    """Minimal HTTP client: returns (status, body) or raises TransportError."""

    def request(
        self,
        method: str,
        url: str,
        headers: Optional[Mapping[str, str]] = None,
        body: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> tuple[int, str]:
        ...


class NotificationSink(Protocol):
    """Delivers one rendered message to a list of recipients."""

    def send(self, recipients: tuple[str, ...] | list[str], subject: str, body: str) -> None:
        ...


@dataclass
class AdapterBundle:
    """Every external dependency of a run, injected as one value.

    ``http`` reaches the identity registry; ``metrics_http`` carries the
    telemetry (Pushgateway and span collector), so each can trust its own
    CA. ``rng`` feeds retry jitter only. ``close`` releases what the
    adapters hold open: the real bundle's HTTP sessions.
    """

    runner: CommandRunner
    transfer: TransferAdapter
    http: HttpAdapter
    sink: NotificationSink
    clock: Clock
    metrics_http: HttpAdapter
    rng: random.Random = field(default_factory=random.Random)
    close: Callable[[], None] = lambda: None
