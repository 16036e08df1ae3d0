"""State store: UID records, failure counters, locking, crash recovery."""

from __future__ import annotations

import contextlib
import os
import sqlite3
import stat
import subprocess
import sys
import textwrap
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from managed_tokens.config import NotificationConfig
from managed_tokens.notifications import notification_due
from managed_tokens.statestore import (
    CorruptStore,
    FailureCounter,
    LockHeld,
    StoreError,
    open_store,
)

from conftest import ReferenceCounter


@pytest.fixture
def store(tmp_path):
    s = open_store(str(tmp_path))
    yield s
    s.close()


class TestUidRecords:
    def test_fresh_store_is_empty(self, store):
        assert store.lookup_uid("duneprod") is None
        assert store.uid_records() == []
        assert store.counters() == []
        assert store.get_counter("svc", "node") is None

    def test_round_trip(self, store):
        store.upsert_uid("duneprod", 4521, now=100.0)
        assert store.lookup_uid("duneprod") == 4521
        (rec,) = store.uid_records()
        assert (rec.account, rec.uid, rec.fetched_at) == ("duneprod", 4521, 100.0)

    def test_last_write_wins(self, store):
        store.upsert_uid("duneprod", 4521, now=100.0)
        store.upsert_uid("duneprod", 9999, now=200.0)
        assert store.lookup_uid("duneprod") == 9999
        (rec,) = store.uid_records()
        assert rec.fetched_at == 200.0

    def test_negative_uid_rejected(self, store):
        with pytest.raises(sqlite3.IntegrityError):
            store.upsert_uid("duneprod", -1, now=0.0)

    def test_uid_zero_allowed(self, store):
        store.upsert_uid("rootlike", 0, now=0.0)
        assert store.lookup_uid("rootlike") == 0

    def test_thousand_accounts(self, store):
        for i in range(1000):
            store.upsert_uid(f"account{i:04d}", 10000 + i, now=float(i))
        records = store.uid_records()
        assert len(records) == 1000
        assert [r.account for r in records] == sorted(r.account for r in records)
        assert store.lookup_uid("account0742") == 10742

    def test_persistence_across_reopen(self, tmp_path):
        with open_store(str(tmp_path)) as s:
            s.upsert_uid("duneprod", 4521, now=1.0)
            s.record_push_outcome("dune_production", "submit1", False, now=2.0)
        with open_store(str(tmp_path)) as s:
            assert s.lookup_uid("duneprod") == 4521
            counter = s.get_counter("dune_production", "submit1")
            assert counter.consecutive_failures == 1


class TestLocking:
    def test_second_writer_rejected(self, tmp_path):
        first = open_store(str(tmp_path))
        try:
            with pytest.raises(LockHeld):
                open_store(str(tmp_path))
        finally:
            first.close()

    def test_close_releases_the_lock(self, tmp_path):
        open_store(str(tmp_path)).close()
        open_store(str(tmp_path)).close()

    def test_crash_releases_the_lock_and_leaves_readable_data(self, tmp_path):
        child = textwrap.dedent("""
            import os, sys
            from managed_tokens.statestore import open_store
            s = open_store(sys.argv[1])
            s.upsert_uid("duneprod", 4521, now=50.0)
            os._exit(9)
        """)
        proc = subprocess.run([sys.executable, "-c", child, str(tmp_path)])
        assert proc.returncode == 9
        with open_store(str(tmp_path)) as s:
            assert s.lookup_uid("duneprod") == 4521

    def test_crash_mid_update_leaves_old_or_new_value(self, tmp_path):
        with open_store(str(tmp_path)) as s:
            s.upsert_uid("duneprod", 1111, now=1.0)
        child = textwrap.dedent("""
            import os, sys
            from managed_tokens.statestore import open_store
            s = open_store(sys.argv[1])
            s.upsert_uid("duneprod", 2222, now=2.0)
            os._exit(9)
        """)
        subprocess.run([sys.executable, "-c", child, str(tmp_path)])
        with open_store(str(tmp_path)) as s:
            assert s.lookup_uid("duneprod") in (1111, 2222)


class TestCorruption:
    def test_garbage_file_raises_corrupt_store(self, tmp_path):
        db_dir = tmp_path / "db"
        db_dir.mkdir(mode=0o700)
        (db_dir / "managed-tokens.sqlite").write_bytes(b"not a database" * 64)
        with pytest.raises(CorruptStore, match="move it aside"):
            open_store(str(tmp_path))

    def test_corrupt_open_does_not_wedge_the_lock(self, tmp_path):
        db_dir = tmp_path / "db"
        db_dir.mkdir(mode=0o700)
        db_path = db_dir / "managed-tokens.sqlite"
        db_path.write_bytes(b"not a database" * 64)
        with pytest.raises(CorruptStore):
            open_store(str(tmp_path))
        db_path.unlink()
        open_store(str(tmp_path)).close()


class TestPermissions:
    def test_owner_only_modes(self, tmp_path):
        with open_store(str(tmp_path)) as s:
            s.upsert_uid("duneprod", 4521, now=0.0)
            db_dir = tmp_path / "db"
            assert stat.S_IMODE(os.stat(db_dir).st_mode) == 0o700
            for name in os.listdir(db_dir):
                mode = stat.S_IMODE(os.stat(db_dir / name).st_mode)
                assert mode & 0o077 == 0, f"{name} readable beyond owner: {oct(mode)}"


class TestFailureCounters:
    def replay(self, store, outcomes, service="dune_production", node="submit1"):
        counts = []
        for i, success in enumerate(outcomes):
            counter = store.record_push_outcome(service, node, success, now=float(i))
            counts.append(counter.consecutive_failures)
        return counts

    def test_three_failures_count_up(self, store):
        assert self.replay(store, [False, False, False]) == [1, 2, 3]

    def test_success_resets(self, store):
        assert self.replay(store, [False, True]) == [1, 0]

    def test_interleaved_sequence(self, store):
        outcomes = [False, False, True, False, False, False, False]
        assert self.replay(store, outcomes) == [1, 2, 0, 1, 2, 3, 4]

    def test_counters_are_keyed_per_service_and_node(self, store):
        store.record_push_outcome("a_svc", "n1", False, now=0.0)
        store.record_push_outcome("a_svc", "n2", False, now=0.0)
        store.record_push_outcome("b_svc", "n1", False, now=0.0)
        store.record_push_outcome("a_svc", "n1", False, now=1.0)
        assert store.get_counter("a_svc", "n1").consecutive_failures == 2
        assert store.get_counter("a_svc", "n2").consecutive_failures == 1
        assert store.get_counter("b_svc", "n1").consecutive_failures == 1

    def test_success_resets_watermark_too(self, store):
        for _ in range(3):
            store.record_push_outcome("svc", "n", False, now=0.0)
        store.mark_notified("svc", "n")
        store.record_push_outcome("svc", "n", True, now=1.0)
        counter = store.get_counter("svc", "n")
        assert counter.consecutive_failures == 0
        assert counter.last_notified_count == 0

    @given(outcomes=st.lists(st.booleans(), max_size=40))
    def test_streak_matches_trailing_failures(self, tmp_path_factory, outcomes):
        root = tmp_path_factory.mktemp("streak")
        with open_store(str(root)) as s:
            for i, success in enumerate(outcomes):
                s.record_push_outcome("svc", "n", success, now=float(i))
            counter = s.get_counter("svc", "n")
        trailing = 0
        for success in reversed(outcomes):
            if success:
                break
            trailing += 1
        expected = trailing if outcomes else None
        if expected is None:
            assert counter is None
        else:
            assert counter.consecutive_failures == expected


    def test_old_schema_is_migrated_on_open(self, tmp_path):
        db_dir = tmp_path / "db"
        db_dir.mkdir(mode=0o700)
        with contextlib.closing(sqlite3.connect(db_dir / "managed-tokens.sqlite")) as conn:
            conn.execute("CREATE TABLE failure_counters (service TEXT NOT NULL,"
                         " node TEXT NOT NULL, consecutive_failures INTEGER NOT NULL,"
                         " last_attempt_at REAL NOT NULL, last_notified_count INTEGER NOT NULL,"
                         " PRIMARY KEY (service, node))")
            conn.executemany("INSERT INTO failure_counters VALUES (?, ?, ?, ?, ?)",
                             [("svc", "n1", 4, 10.0, 3), ("svc", "n2", 1, 20.0, 0)])
            conn.commit()
        with open_store(str(tmp_path)) as s:
            assert s.counters() == [FailureCounter("svc", "n1", 4, 3),
                                    FailureCounter("svc", "n2", 1, 0)]
            counter = s.record_push_outcome("svc", "n1", False, now=30.0)
        assert counter == FailureCounter("svc", "n1", 5, 3)
        with contextlib.closing(sqlite3.connect(db_dir / "managed-tokens.sqlite")) as conn:
            columns = [row[1] for row in conn.execute("PRAGMA table_info(failure_counters)")]
        assert columns == ["service", "node", "consecutive_failures", "last_notified_count"]

class TestPruneCounters:
    def test_only_the_kept_pairs_remain(self, store):
        for service, node in [("a_svc", "n1"), ("a_svc", "old"), ("b_svc", "n1"),
                              ("gone_svc", "n1")]:
            store.record_push_outcome(service, node, False, now=0.0)
        store.prune_counters([("a_svc", "n1"), ("b_svc", "n1"), ("b_svc", "n2")])
        assert [(c.service, c.node) for c in store.counters()] == [
            ("a_svc", "n1"), ("b_svc", "n1")]


class TestOwningThread:
    def test_use_from_another_thread_raises(self, store):
        errors = []

        def read():
            try:
                store.uid_records()
            except Exception as exc:
                errors.append(exc)

        reader = threading.Thread(target=read)
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive()
        (error,) = errors
        assert isinstance(error, sqlite3.ProgrammingError)
        assert store.uid_records() == []  # the opening thread still may


class TestTransaction:
    def test_commit_saves_every_write(self, tmp_path):
        with open_store(str(tmp_path)) as s:
            with s.transaction():
                s.record_push_outcome("svc", "n1", False, now=1.0)
                s.record_push_outcome("svc", "n2", True, now=1.0)
        with open_store(str(tmp_path)) as s:
            assert s.counters() == [FailureCounter("svc", "n1", 1, 0),
                                    FailureCounter("svc", "n2", 0, 0)]

    def test_rollback_keeps_earlier_rows_and_a_later_write_persists(self, tmp_path):
        with open_store(str(tmp_path)) as s:
            s.record_push_outcome("svc", "n1", False, now=1.0)
            with pytest.raises(StoreError, match="disk full"):
                with s.transaction():
                    s.record_push_outcome("svc", "n1", False, now=2.0)
                    s.record_push_outcome("svc", "n2", False, now=2.0)
                    raise StoreError("disk full")
            s.upsert_uid("duneprod", 4521, now=3.0)
        with open_store(str(tmp_path)) as s:
            assert s.counters() == [FailureCounter("svc", "n1", 1, 0)]
            assert s.lookup_uid("duneprod") == 4521


class TestNotificationDue:
    def make(self, failures, notified):
        return FailureCounter("svc", "n", failures, notified)

    @pytest.mark.parametrize("threshold", [1, 2, 3, 4])
    def test_full_enumeration(self, threshold):
        for count in range(11):
            for notified in range(11):
                expected = count >= threshold and count - notified >= threshold
                got = notification_due(self.make(count, notified), threshold)
                assert got == expected, (count, notified, threshold)

    def test_sentinel_cases_at_default_threshold(self):
        threshold = NotificationConfig().threshold
        assert threshold == 3
        assert not notification_due(self.make(2, 0), threshold)
        assert notification_due(self.make(3, 0), threshold)
        assert not notification_due(self.make(4, 3), threshold)
        assert not notification_due(self.make(5, 3), threshold)
        assert notification_due(self.make(6, 3), threshold)

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_fires_at_every_threshold_multiple_with_ack(self, tmp_path, threshold):
        fired_at = []
        with open_store(str(tmp_path)) as s:
            for i in range(1, threshold * 3 + 1):
                counter = s.record_push_outcome("svc", "n", False, now=float(i))
                if notification_due(counter, threshold):
                    fired_at.append(counter.consecutive_failures)
                    s.mark_notified("svc", "n")
        assert fired_at == [threshold, threshold * 2, threshold * 3]

    @given(outcomes=st.lists(st.booleans(), max_size=30),
           threshold=st.integers(min_value=1, max_value=4))
    def test_policy_matches_reference_machine(self, tmp_path_factory, outcomes,
                                              threshold):
        root = tmp_path_factory.mktemp("policy")
        reference = ReferenceCounter()
        fired_store, fired_ref = [], []
        with open_store(str(root)) as s:
            for i, success in enumerate(outcomes):
                counter = s.record_push_outcome("svc", "n", success, now=float(i))
                reference.record(success)
                if notification_due(counter, threshold):
                    fired_store.append(i)
                    s.mark_notified("svc", "n")
                if reference.due(threshold):
                    fired_ref.append(i)
                    reference.ack()
        assert fired_store == fired_ref
