"""Identity-registry client: single lookups and the bulk refresh."""

from __future__ import annotations

import pytest

from managed_tokens import simkit
from managed_tokens.config import RegistryConfig
from managed_tokens.interfaces import TransportError
from managed_tokens.registry import (
    HttpError,
    RegistryError,
    SchemaError,
    fetch_uid,
    refresh_all_uids,
)
from managed_tokens.statestore import open_store


CFG = RegistryConfig(base_url="http://registry.example.org")
HANG = simkit.FaultSchedule("registry", (simkit.hang(),))


class TestFetchUid:
    def test_known_account(self):
        http = simkit.fake_registry({"duneprod": 1001})
        assert fetch_uid(CFG, http, "duneprod") == 1001

    def test_http_error_carries_status(self):
        http = simkit.fake_registry({"duneprod": simkit.ErrorFixture(500, "boom")})
        with pytest.raises(HttpError) as err:
            fetch_uid(CFG, http, "duneprod")
        assert err.value.status == 500

    def test_unknown_account_is_a_404(self):
        http = simkit.fake_registry({})
        with pytest.raises(HttpError) as err:
            fetch_uid(CFG, http, "ghost")
        assert err.value.status == 404

    def test_missing_field_is_a_schema_error(self):
        http = simkit.fake_registry({"duneprod": 1001}, uid_json_path="wrong.place")
        with pytest.raises(SchemaError):
            fetch_uid(CFG, http, "duneprod")

    def test_non_integer_uid_is_a_schema_error(self):
        http = simkit.fake_registry({"duneprod": simkit.ErrorFixture(
            200, '{"ferry_output": {"uid": "4521"}, "ferry_status": "success"}')})
        with pytest.raises(SchemaError, match="not an integer"):
            fetch_uid(CFG, http, "duneprod")

    def test_boolean_uid_is_a_schema_error(self):
        http = simkit.fake_registry({"duneprod": simkit.ErrorFixture(
            200, '{"ferry_output": {"uid": true}}')})
        with pytest.raises(SchemaError, match="not an integer"):
            fetch_uid(CFG, http, "duneprod")

    def test_invalid_json_is_a_schema_error(self):
        http = simkit.fake_registry({"duneprod": simkit.ErrorFixture(200, "<html>")})
        with pytest.raises(SchemaError, match="not valid JSON"):
            fetch_uid(CFG, http, "duneprod")

    def test_negative_uid_is_a_schema_error(self):
        http = simkit.fake_registry({"duneprod": -5})
        with pytest.raises(SchemaError, match="not an integer >= 0: -5"):
            fetch_uid(CFG, http, "duneprod")

    def test_unconfigured_base_url_rejected(self):
        http = simkit.fake_registry({"duneprod": 1001})
        with pytest.raises(RegistryError):
            fetch_uid(RegistryConfig(), http, "duneprod")

    def test_custom_endpoint_and_json_path(self):
        cfg = RegistryConfig(base_url="http://alt.example.org",
                             uid_endpoint_template="/v2/users/{account}/uid",
                             uid_json_path="result.posix.uid")
        http = simkit.fake_registry({"mu2eprod": 2002},
                                    endpoint_template="/v2/users/{account}/uid",
                                    uid_json_path="result.posix.uid")
        assert fetch_uid(cfg, http, "mu2eprod") == 2002

    def test_account_is_url_quoted(self):
        http = simkit.fake_registry({"odd name": 3003})
        assert fetch_uid(CFG, http, "odd name") == 3003
        assert http.hits == {"odd name": 1}

    def test_exactly_one_request_per_lookup(self):
        http = simkit.fake_registry({"duneprod": 1001})
        fetch_uid(CFG, http, "duneprod")
        fetch_uid(CFG, http, "duneprod")
        assert http.hits == {"duneprod": 2}


class TestRefreshAllUids:
    def test_all_accounts_fetched_and_persisted(self, tmp_path):
        http = simkit.fake_registry({"a": 1, "b": 2, "c": 3})
        with open_store(str(tmp_path)) as store:
            report = refresh_all_uids(CFG, http, store, ["a", "b", "c"], now=9.0)
            assert (report.ok, report.failed) == (3, 0)
            assert report.fetched == {"a": 1, "b": 2, "c": 3}
            assert store.lookup_uid("b") == 2
            assert all(r.fetched_at == 9.0 for r in store.uid_records())

    def test_middle_failure_does_not_abort_the_rest(self, tmp_path):
        http = simkit.fake_registry(
            {"a": 1, "b": simkit.ErrorFixture(500, "down"), "c": 3})
        with open_store(str(tmp_path)) as store:
            report = refresh_all_uids(CFG, http, store, ["a", "b", "c"], now=0.0)
            assert (report.ok, report.failed) == (2, 1)
            assert "b" in report.errors
            assert store.lookup_uid("a") == 1
            assert store.lookup_uid("c") == 3

    def test_negative_uid_fails_that_account_only(self, tmp_path):
        http = simkit.fake_registry({"a": 1, "b": -5, "c": 3})
        with open_store(str(tmp_path)) as store:
            report = refresh_all_uids(CFG, http, store, ["a", "b", "c"], now=0.0)
            assert (report.ok, report.failed) == (2, 1)
            assert "not an integer >= 0" in report.errors["b"]
            assert [(r.account, r.uid) for r in store.uid_records()] == [("a", 1), ("c", 3)]

    def test_failed_fetch_never_deletes_a_stored_record(self, tmp_path):
        with open_store(str(tmp_path)) as store:
            store.upsert_uid("b", 222, now=1.0)
            http = simkit.fake_registry({"b": simkit.ErrorFixture(500, "down")})
            report = refresh_all_uids(CFG, http, store, ["b"], now=2.0)
            assert report.failed == 1
            assert store.lookup_uid("b") == 222
            (rec,) = store.uid_records()
            assert rec.fetched_at == 1.0

    def test_timeout_counts_as_failure(self, tmp_path):
        http = simkit.fake_registry({"b": 2}, faults={"a": HANG}, clock=simkit.FixedClock())
        with open_store(str(tmp_path)) as store:
            report = refresh_all_uids(CFG, http, store, ["a", "b"], now=0.0)
            assert (report.ok, report.failed) == (1, 1)
            assert "timed out" in report.errors["a"]

    def test_empty_account_list(self, tmp_path):
        http = simkit.fake_registry({})
        with open_store(str(tmp_path)) as store:
            report = refresh_all_uids(CFG, http, store, [], now=0.0)
        assert (report.ok, report.failed) == (0, 0)
        assert http.hits == {}

    def test_counts_partition_the_account_list(self, tmp_path):
        fixtures = {"a": 1, "b": simkit.ErrorFixture(403, ""), "c": 3}
        http = simkit.fake_registry(fixtures, faults={"d": HANG}, clock=simkit.FixedClock())
        accounts = ["a", "b", "c", "d", "e"]
        with open_store(str(tmp_path)) as store:
            report = refresh_all_uids(CFG, http, store, accounts, now=0.0)
        assert report.ok + report.failed == len(accounts)
        assert set(report.fetched) | set(report.errors) == set(accounts)
        assert set(report.fetched) & set(report.errors) == set()

    def test_transport_error_from_adapter_is_contained(self, tmp_path):
        class FlakyHttp:
            def request(self, method, url, headers=None, body=None, timeout=None):
                raise TransportError("connection refused")

        with open_store(str(tmp_path)) as store:
            report = refresh_all_uids(CFG, FlakyHttp(), store, ["a"], now=0.0)
        assert report.failed == 1
        assert "connection refused" in report.errors["a"]

    def test_fetch_uid_is_side_effect_free_on_the_store(self, tmp_path):
        http = simkit.fake_registry({"a": 1})
        with open_store(str(tmp_path)) as store:
            fetch_uid(CFG, http, "a")
            assert store.uid_records() == []
