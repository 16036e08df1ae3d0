"""Persistent on-disk state surviving between scheduled runs.

Two tables: account -> UID mappings, and per-(service, node) consecutive
distribution-failure counters. Backed by a single sqlite database under
``{state_dir}/db/`` with an exclusive-writer flock and owner-only
permissions. Each lone write commits by itself, and :meth:`Store.transaction`
makes a group of writes one commit (sqlite's journal gives crash safety: a
reader after a crash sees every write of a commit or none of them, never a
torn record).

``consecutive_failures`` counts *final* per-run outcomes: one scheduled run
contributes at most one success/failure per (service, node), after intra-run
retries are exhausted. ``last_notified_count`` is the watermark that
:func:`~.notifications.notification_due` pages from.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import sqlite3
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

DB_FILENAME = "managed-tokens.sqlite"
LOCK_FILENAME = "writer.lock"


class StoreError(Exception):
    """Base class for state-store failures."""


class LockHeld(StoreError):
    """Another process (or handle) already owns the store for writing."""


class CorruptStore(StoreError):
    """The database file cannot be read; message includes a recovery hint."""


@dataclass(frozen=True)
class UidRecord:
    account: str
    uid: int
    fetched_at: float


@dataclass(frozen=True)
class FailureCounter:
    service: str
    node: str
    consecutive_failures: int
    last_notified_count: int


class Store:
    """Open handle on the state database.

    One exclusive writer per state_dir, enforced with a non-blocking flock.
    Within the process only the thread that opened the handle may use it:
    sqlite3 raises ``ProgrammingError`` on a call from any other thread.
    """

    def __init__(self, state_dir: str):
        db_dir = os.path.join(state_dir, "db")
        os.makedirs(db_dir, mode=0o700, exist_ok=True)
        os.chmod(db_dir, 0o700)

        self._lock_path = os.path.join(db_dir, LOCK_FILENAME)
        self._lock_fd = os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            fcntl.flock(self._lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(self._lock_fd)
            raise LockHeld(f"state store at {db_dir} is locked by another process") from None

        self._db_path = os.path.join(db_dir, DB_FILENAME)
        try:
            # Pre-create with owner-only mode so sqlite's journal/WAL side files
            # inherit it instead of the umask default.
            fd = os.open(self._db_path, os.O_RDWR | os.O_CREAT, 0o600)
            os.close(fd)
            self._conn = sqlite3.connect(self._db_path, isolation_level=None)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS uids ("
                " account TEXT PRIMARY KEY,"
                " uid INTEGER NOT NULL CHECK (uid >= 0),"
                " fetched_at REAL NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS failure_counters ("
                " service TEXT NOT NULL,"
                " node TEXT NOT NULL,"
                " consecutive_failures INTEGER NOT NULL,"
                " last_notified_count INTEGER NOT NULL,"
                " PRIMARY KEY (service, node))"
            )
            # A store written before counters lost their unread timestamp.
            columns = [row[1] for row in self._conn.execute("PRAGMA table_info(failure_counters)")]
            if "last_attempt_at" in columns:
                self._conn.execute("ALTER TABLE failure_counters DROP COLUMN last_attempt_at")
            os.chmod(self._db_path, 0o600)
        except BaseException as exc:
            self.close()  # whatever failed, the lock is released
            if isinstance(exc, sqlite3.DatabaseError):
                raise CorruptStore(
                    f"state database {self._db_path} is unreadable ({exc}); move it aside "
                    "and rerun the UID refresh to rebuild"
                ) from exc
            raise

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        # Also called from a failed __init__, which may not have connected.
        if getattr(self, "_conn", None) is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]
        if self._lock_fd is not None:
            try:
                fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
            finally:
                os.close(self._lock_fd)
            self._lock_fd = None  # type: ignore[assignment]

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @contextlib.contextmanager
    def transaction(self) -> Iterator[None]:
        """Commit every write made inside the block at once, or none of them
        if the block raises."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:  # a failed COMMIT may have ended it
                self._conn.execute("ROLLBACK")
            raise

    # -- UID records ---------------------------------------------------------

    def upsert_uid(self, account: str, uid: int, now: float) -> None:
        self._conn.execute(
            "INSERT INTO uids (account, uid, fetched_at) VALUES (?, ?, ?)"
            " ON CONFLICT(account) DO UPDATE SET uid=excluded.uid,"
            " fetched_at=excluded.fetched_at",
            (account, uid, now),
        )

    def lookup_uid(self, account: str) -> Optional[int]:
        row = self._conn.execute(
            "SELECT uid FROM uids WHERE account = ?", (account,)
        ).fetchone()
        return None if row is None else int(row[0])

    def uid_records(self) -> list[UidRecord]:
        rows = self._conn.execute(
            "SELECT account, uid, fetched_at FROM uids ORDER BY account"
        ).fetchall()
        return [UidRecord(account=r[0], uid=int(r[1]), fetched_at=float(r[2])) for r in rows]

    # -- failure counters ----------------------------------------------------

    def record_push_outcome(self, service: str, node: str, success: bool,
                            now: float) -> FailureCounter:
        """Fold one final per-run distribution outcome into the counter.

        Success resets both the streak and the notification watermark;
        failure extends the streak by one. Returns the post-update state.
        Nothing reads ``now``; the benchmark's smoke test stubs this method
        with that signature, so it goes when that test next changes.
        """
        failures, notified = self._conn.execute(
            "INSERT INTO failure_counters"
            " (service, node, consecutive_failures, last_notified_count)"
            " VALUES (:service, :node, :failed, 0)"
            " ON CONFLICT(service, node) DO UPDATE SET"
            " consecutive_failures = CASE WHEN :failed THEN consecutive_failures + 1 ELSE 0 END,"
            " last_notified_count = CASE WHEN :failed THEN last_notified_count ELSE 0 END"
            " RETURNING consecutive_failures, last_notified_count",
            {"service": service, "node": node, "failed": int(not success)},
        ).fetchone()
        return FailureCounter(service, node, failures, notified)

    def get_counter(self, service: str, node: str) -> Optional[FailureCounter]:
        row = self._conn.execute(
            "SELECT consecutive_failures, last_notified_count"
            " FROM failure_counters WHERE service = ? AND node = ?",
            (service, node),
        ).fetchone()
        if row is None:
            return None
        return FailureCounter(service, node, int(row[0]), int(row[1]))

    def mark_notified(self, service: str, node: str) -> None:
        """Acknowledge a sent notification: watermark := current streak."""
        self._conn.execute(
            "UPDATE failure_counters SET last_notified_count = consecutive_failures"
            " WHERE service = ? AND node = ?",
            (service, node),
        )

    def prune_counters(self, keep: Iterable[tuple[str, str]]) -> None:
        """Delete every failure counter whose (service, node) is not in ``keep``,
        which must not be empty."""
        keep = list(keep)
        self._conn.execute(
            "DELETE FROM failure_counters WHERE (service, node) NOT IN (VALUES "
            + ", ".join(["(?, ?)"] * len(keep)) + ")",
            [value for pair in keep for value in pair],
        )

    def counters(self) -> list[FailureCounter]:
        rows = self._conn.execute(
            "SELECT service, node, consecutive_failures, last_notified_count"
            " FROM failure_counters ORDER BY service, node"
        ).fetchall()
        return [FailureCounter(r[0], r[1], int(r[2]), int(r[3])) for r in rows]


def open_store(state_dir: str) -> Store:
    """Open (creating if needed) the state store under ``state_dir``."""
    return Store(state_dir)
