"""Hermetic doubles for every external system, with scripted fault injection.

These ship in the package (not test-only) so an operator can rehearse a
production config end to end without touching Kerberos, Vault, remote nodes,
or a mail server: set ``adapter_mode: simulation`` in the config.

All doubles are deterministic given a :class:`FaultSchedule` and a
controllable clock, record every invocation with harness timestamps, and are
safe for concurrent use.

Fault-schedule files are YAML mappings from a target name to a schedule::

    storer:
      repeat: true
      pattern:
        - succeed
        - {fail: "connection refused"}
        - {delay: 0.05}
        - hang
    "transfer:submit1.example.org":
      pattern: [{fail: "node down"}]
    "registry:duneprod":
      pattern: [{fail: "registry down"}, succeed]

Pattern entries: ``succeed``, ``hang`` (plain strings), ``{fail: message}``,
``{delay: seconds}`` (delay then succeed; a number >= 0). ``repeat``, a YAML
boolean, defaults to ``true``: cycle the pattern forever; with ``repeat:
false`` running past the end raises :class:`ScheduleExhausted`.

Every double plays its schedules through one :class:`Faults`, which counts
calls per key (a runner's schedule, a copy's node, a lookup's account) and
sleeps out ``hang`` and ``delay``. The double reports ``fail`` and ``hang``
as its real system would: for the registry, HTTP 500 carrying the message
and a transport timeout.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import urllib.parse
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

import yaml

from .config import ConfigError
from .interfaces import (
    CommandTimeout,
    Invocation,
    SystemClock,
    TransferError,
    TransportError,
    TransportTimeout,
)
from .notifications import Message

logger = logging.getLogger(__name__)


class ScheduleExhausted(Exception):
    """A non-repeating fault schedule ran out of pattern entries."""


# -- clocks -----------------------------------------------------------------


class FixedClock:
    """Controllable clock: ``now()`` and ``monotonic()`` read one set time,
    ``sleep`` does not block. With ``advance_on_sleep`` every sleep
    atomically advances the shared time instead (useful for single-threaded
    backoff accounting)."""

    def __init__(self, start: float = 1_700_000_000.0, advance_on_sleep: bool = False):
        self._t = float(start)
        self._advance_on_sleep = advance_on_sleep
        self._mutex = threading.Lock()

    def now(self) -> float:
        with self._mutex:
            return self._t

    # Bound here, so a subclass that steps ``now`` back leaves it alone.
    monotonic = now

    def sleep(self, seconds: float, until: Optional[threading.Event] = None) -> None:
        if self._advance_on_sleep and seconds > 0:
            self.advance(seconds)

    def advance(self, seconds: float) -> None:
        with self._mutex:
            self._t += seconds


# -- fault schedules ----------------------------------------------------------


@dataclass(frozen=True)
class Behavior:
    kind: str  # succeed | fail | delay | hang
    message: str = ""
    delay: float = 0.0


def succeed() -> Behavior:
    return Behavior("succeed")


def fail(message: str = "injected failure") -> Behavior:
    return Behavior("fail", message=message)


def delay(seconds: float) -> Behavior:
    return Behavior("delay", delay=seconds)


def hang() -> Behavior:
    return Behavior("hang")


@dataclass(frozen=True)
class FaultSchedule:
    target: str
    pattern: tuple[Behavior, ...]
    repeat: bool = True

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("pattern must be non-empty")

    def behavior_at(self, index: int) -> Behavior:
        if index < len(self.pattern):
            return self.pattern[index]
        if self.repeat:
            return self.pattern[index % len(self.pattern)]
        raise ScheduleExhausted(
            f"schedule for {self.target!r} exhausted after {len(self.pattern)} invocations")


def always_succeed(target: str = "default") -> FaultSchedule:
    return FaultSchedule(target, (succeed(),), repeat=True)


def _parse_pattern_entry(entry: Any, where: str) -> Behavior:
    if entry in ("succeed", "hang"):
        return Behavior(entry)
    if isinstance(entry, Mapping) and len(entry) == 1:
        ((key, value),) = entry.items()
        if key == "fail":
            return fail(str(value))
        if key == "delay":
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
                raise ConfigError(f"{where}: delay must be a number of seconds >= 0, "
                                  f"got {value!r}")
            return delay(float(value))
    raise ConfigError(f"{where}: unknown behavior {entry!r}")


def load_fault_schedules(path: str) -> dict[str, FaultSchedule]:
    """Load a fault-schedule file (format documented above); any fault in it
    raises :class:`~.config.ConfigError` with a message that starts with ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: malformed YAML: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: top level must be a mapping")
    schedules: dict[str, FaultSchedule] = {}
    for target, spec in raw.items():
        where = f"{path}: entry {target!r}"
        if not isinstance(spec, Mapping):
            raise ConfigError(f"{where} must be a mapping")
        unknown = sorted(str(key) for key in spec if key not in ("pattern", "repeat"))
        if unknown:
            raise ConfigError(f"{where} has unknown key(s) {', '.join(unknown)}")
        pattern, repeat = spec.get("pattern"), spec.get("repeat", True)
        if not isinstance(pattern, list) or not pattern:
            raise ConfigError(f"{where} needs a non-empty pattern list")
        if not isinstance(repeat, bool):
            raise ConfigError(f"{where}: repeat must be a boolean (true or false)")
        behaviors = tuple(
            _parse_pattern_entry(e, f"{where} pattern[{i}]") for i, e in enumerate(pattern)
        )
        schedules[str(target)] = FaultSchedule(target=str(target), pattern=behaviors,
                                               repeat=repeat)
    return schedules


class Faults:
    """Fault schedules by key, with one call counter per key: the one path
    from a schedule to what a double does on a call. ``calls`` maps each key
    to the number of calls made on it, scheduled or not."""

    def __init__(self, schedules: Mapping[str, FaultSchedule], clock: Any):
        self.schedules = dict(schedules)
        self.clock = clock
        self.calls: dict[str, int] = {}
        self._mutex = threading.Lock()

    def step(self, key: str, timeout: Optional[float] = None) -> tuple[int, Behavior]:
        """Count one call on ``key`` and act out its scheduled behavior:
        ``hang`` sleeps out ``timeout``, ``delay`` sleeps, and a key without
        a schedule succeeds. Returns the call's index and behavior; the
        caller reports ``fail`` and ``hang`` its own way."""
        with self._mutex:
            index = self.calls.get(key, 0)
            self.calls[key] = index + 1
        schedule = self.schedules.get(key)
        behavior = schedule.behavior_at(index) if schedule is not None else succeed()
        if behavior.kind == "hang":
            self.clock.sleep(timeout if timeout is not None else 0.0)
        elif behavior.kind == "delay":
            self.clock.sleep(behavior.delay)
        return index, behavior


# -- invocation log ------------------------------------------------------------


@dataclass(frozen=True)
class LogEntry:
    adapter: str
    args: tuple[str, ...]
    start: float
    end: float
    outcome: str  # ok | fail | timeout


class InvocationLog:
    """Append-only, internally synchronized record of adapter invocations."""

    def __init__(self, adapter: str):
        self.adapter = adapter
        self._entries: list[LogEntry] = []
        self._mutex = threading.Lock()

    def append(self, args: tuple[str, ...], start: float, end: float, outcome: str) -> None:
        entry = LogEntry(self.adapter, args, start, end, outcome)
        with self._mutex:
            self._entries.append(entry)

    def entries(self) -> tuple[LogEntry, ...]:
        with self._mutex:
            return tuple(self._entries)

    def canonical(self) -> tuple[LogEntry, ...]:
        """Entries in a thread-interleaving-independent order."""
        return tuple(sorted(self.entries(), key=lambda e: (e.start, e.args, e.end, e.outcome)))


# -- scripted command runner -----------------------------------------------------

SideEffect = Callable[[int, tuple[str, ...], Mapping[str, str]], None]


class ScriptedRunner:
    """CommandRunner double: replays a fault schedule and, on each successful
    call, runs ``side_effects(index, argv, env)`` (e.g. writing a fake vault
    token)."""

    def __init__(
        self,
        schedule: FaultSchedule,
        side_effects: Optional[SideEffect] = None,
        clock: Optional[Any] = None,
        name: str = "runner",
    ):
        self.side_effects = side_effects
        self.clock = clock if clock is not None else SystemClock()
        self.log = InvocationLog(name)
        self.faults = Faults({name: schedule}, self.clock)

    def run(
        self,
        argv: tuple[str, ...] | list[str],
        env_overrides: Optional[Mapping[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> Invocation:
        argv = tuple(argv)
        env = dict(env_overrides or {})
        start = self.clock.now()
        index, behavior = self.faults.step(self.log.adapter, timeout)

        if behavior.kind == "hang":
            self.log.append(argv, start, self.clock.now(), "timeout")
            raise CommandTimeout(argv, timeout if timeout is not None else 0.0)

        if behavior.kind == "fail":
            self.log.append(argv, start, self.clock.now(), "fail")
            return Invocation(argv, 1, "", behavior.message)

        if self.side_effects is not None:
            self.side_effects(index, argv, env)
        self.log.append(argv, start, self.clock.now(), "ok")
        return Invocation(argv, 0, "ok", "")


scripted_runner = ScriptedRunner


class RoutedRunner:
    """Dispatches to per-command scripted runners by argv[0] basename, so one
    bundle can script the ticket and storer commands independently. An
    unrouted command raises ``KeyError``."""

    def __init__(self, routes: Mapping[str, Any]):
        self.routes = dict(routes)

    def run(self, argv, env_overrides=None, timeout=None) -> Invocation:
        key = os.path.basename(argv[0])
        runner = self.routes.get(key)
        if runner is None:
            raise KeyError(f"no scripted runner for command {key!r}")
        return runner.run(argv, env_overrides=env_overrides, timeout=timeout)


def write_token_from_env(
    content: bytes = b"hvs.simulated-vault-token-0123456789abcdef\n",
    env_var: str = "MANAGED_TOKENS_DEFAULT_TOKEN_PATH",
) -> SideEffect:
    """Side effect for the scripted storer: write a fake vault token at the
    shared default location the invocation designates via ``env_var``."""

    def effect(index: int, argv: tuple[str, ...], env: Mapping[str, str]) -> None:
        path = env.get(env_var)
        if not path:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(content)
        os.chmod(path, 0o600)

    return effect


# -- in-memory transfer adapter ---------------------------------------------------


class MemoryTransfer:
    """TransferAdapter double: a per-(node, path) in-memory namespace with
    atomic replace, per-node fault schedules, and a concurrency high-water
    mark."""

    def __init__(
        self,
        faults: Optional[Mapping[str, FaultSchedule]] = None,
        clock: Optional[Any] = None,
    ):
        self.clock = clock if clock is not None else SystemClock()
        self.log = InvocationLog("transfer")
        self.faults = Faults(faults or {}, self.clock)
        self._files: dict[tuple[str, str], bytes] = {}
        self._mutex = threading.Lock()
        self._active = 0
        self.high_water = 0

    def put(self, local_path: str, node: str, remote_path: str,
            timeout: Optional[float] = None) -> None:
        with self._mutex:
            self._active += 1
            self.high_water = max(self.high_water, self._active)
        start = self.clock.now()
        args = (node, remote_path)
        try:
            _, behavior = self.faults.step(node, timeout)
            if behavior.kind == "hang":
                self.log.append(args, start, self.clock.now(), "timeout")
                raise TransferError(f"transfer to {node} timed out")
            if behavior.kind == "fail":
                self.log.append(args, start, self.clock.now(), "fail")
                raise TransferError(behavior.message)
            with open(local_path, "rb") as fh:
                content = fh.read()
            with self._mutex:
                # Single assignment under the lock: a reader sees the old or
                # the new token, never a partial write.
                self._files[(node, remote_path)] = content
            self.log.append(args, start, self.clock.now(), "ok")
        finally:
            with self._mutex:
                self._active -= 1

    def get(self, node: str, remote_path: str) -> Optional[bytes]:
        with self._mutex:
            return self._files.get((node, remote_path))

    def files(self) -> dict[tuple[str, str], bytes]:
        with self._mutex:
            return dict(self._files)


# -- fake identity registry ---------------------------------------------------------


@dataclass(frozen=True)
class ErrorFixture:
    """Map an account to an HTTP error instead of a UID."""

    status: int
    body: str = ""


def _json_at_path(path: str, value: Any) -> dict:
    parts = path.split(".")
    out: Any = value
    for part in reversed(parts):
        out = {part: out}
    return out


class FakeRegistry:
    """HttpAdapter double serving UID lookups from a fixture map, with
    per-account fault schedules, and counting hits per account. A ``fail``
    is HTTP 500 carrying the message, a ``hang`` a transport timeout."""

    def __init__(
        self,
        fixtures: Mapping[str, Any],
        endpoint_template: str = "/getUserInfo?username={account}",
        uid_json_path: str = "ferry_output.uid",
        faults: Optional[Mapping[str, FaultSchedule]] = None,
        clock: Optional[Any] = None,
    ):
        self.fixtures = dict(fixtures)
        self.uid_json_path = uid_json_path
        self.faults = Faults(faults or {}, clock if clock is not None else SystemClock())
        self.hits = self.faults.calls
        pattern = re.escape(endpoint_template).replace(r"\{account\}", "(?P<account>[^&/?]+)")
        self._matcher = re.compile(pattern + "$")

    def request(self, method, url, headers=None, body=None, timeout=None) -> tuple[int, str]:
        parsed = urllib.parse.urlsplit(url)
        target = parsed.path + (f"?{parsed.query}" if parsed.query else "")
        m = self._matcher.search(target)
        if method.upper() != "GET" or m is None:
            return 404, "not found"
        account = urllib.parse.unquote(m.group("account"))
        _, behavior = self.faults.step(account, timeout)
        if behavior.kind == "hang":
            raise TransportTimeout(f"registry lookup for {account} timed out")
        if behavior.kind == "fail":
            return 500, behavior.message
        fixture = self.fixtures.get(account)
        if fixture is None:
            return 404, '{"ferry_status": "failure"}'
        if isinstance(fixture, ErrorFixture):
            return fixture.status, fixture.body
        payload = _json_at_path(self.uid_json_path, int(fixture))
        payload["ferry_status"] = "success"
        return 200, json.dumps(payload)


fake_registry = FakeRegistry


def synthetic_uid(account: str) -> int:
    """Stable per-account UID for rehearsal mode when none is configured."""
    return 1000 + (zlib.crc32(account.encode("utf-8")) % 60000)


# -- recording sink and gateway --------------------------------------------------------


class RecordingSink:
    """NotificationSink double that records messages; optionally scripted to
    fail (``RuntimeError``) or hang (``TimeoutError``), and then records none."""

    def __init__(self, schedule: Optional[FaultSchedule] = None):
        self.messages: list[Message] = []
        self.faults = Faults({"send": schedule} if schedule is not None else {},
                              SystemClock())
        self._mutex = threading.Lock()

    def send(self, recipients, subject: str, body: str) -> None:
        _, behavior = self.faults.step("send")
        if behavior.kind == "fail":
            raise RuntimeError(behavior.message)
        if behavior.kind == "hang":
            raise TimeoutError("notification send timed out")
        with self._mutex:
            self.messages.append(Message(tuple(recipients), subject, body))


class LoggingSink:
    """Rehearsal sink: logs instead of sending mail."""

    def send(self, recipients, subject: str, body: str) -> None:
        logger.info("notification (not sent) to=%s subject=%r", ",".join(recipients), subject)


class RecordingGateway:
    """HttpAdapter double for the metrics push endpoint; records every request."""

    def __init__(self, status: int = 200, unreachable: bool = False):
        self.status = status
        self.unreachable = unreachable
        self.requests: list[tuple[str, str, str]] = []  # (method, path, body)
        self._mutex = threading.Lock()

    def request(self, method, url, headers=None, body=None, timeout=None) -> tuple[int, str]:
        if self.unreachable:
            raise TransportError("gateway unreachable")
        path = urllib.parse.urlsplit(url).path
        with self._mutex:
            self.requests.append((method.upper(), path, body or ""))
        return self.status, ""
