"""Configuration loading, validation, overrides, and round-trip stability."""

from __future__ import annotations

import copy
import dataclasses

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from managed_tokens import adapters, credentials, distribution, registry, simkit
from managed_tokens import config as config_mod
from managed_tokens.config import (
    ENV_METRICS_GATEWAY_URL,
    ENV_STATE_DIR,
    ParseError,
    Settings,
    UnknownService,
    ValidationError,
    load_config,
    load_config_text,
    parse_duration,
    resolve_service,
    write_back,
)

from conftest import Site


class TestDefaults:
    def test_lifetime_defaults_match_stated_constants(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        assert cfg.token_lifetimes.bearer == 3 * 3600
        assert cfg.token_lifetimes.vault_local == 7 * 86400
        assert cfg.token_lifetimes.vault_credd == 28 * 86400

    def test_timeout_and_retry_defaults(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        assert cfg.timeouts.vault_store == 180.0
        assert cfg.timeouts.transfer == 30.0
        assert cfg.retry.max_attempts == 3
        assert cfg.retry.base_backoff == 1.0
        assert cfg.transfer_parallelism == 4

    def test_duration_strings_accepted(self, site):
        site.add_service("dune_production")
        cfg = site.config(token_lifetimes={"bearer": "3h", "vault_local": "7d",
                                           "vault_credd": "28d"})
        assert cfg.token_lifetimes.bearer == 10800.0
        assert cfg.token_lifetimes.vault_local == 604800.0
        assert cfg.token_lifetimes.vault_credd == 2419200.0


class TestParseDuration:
    @pytest.mark.parametrize("text,expected", [
        ("3h", 10800.0),
        ("7d", 604800.0),
        ("90s", 90.0),
        ("5m", 300.0),
        ("500ms", 0.5),
        ("2.5h", 9000.0),
        ("3 h", 10800.0),
        (42, 42.0),
        (0.25, 0.25),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_duration(text, "x") == expected

    @pytest.mark.parametrize("bad", ["", "h3", "3x", "fast", None, [], True])
    def test_rejected_forms(self, bad):
        with pytest.raises(ValidationError):
            parse_duration(bad, "x")


class TestValidation:
    def test_zero_services_rejected(self, site):
        path = site.root / "bad.yaml"
        path.write_text(yaml.safe_dump({
            "state_dir": str(site.state_dir),
            "kerberos_realm": "EXAMPLE.ORG",
            "services": {},
        }))
        with pytest.raises(ValidationError, match="must be non-empty"):
            load_config(str(path))

    def test_malformed_yaml_is_a_parse_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("state_dir: [unclosed\n")
        with pytest.raises(ParseError):
            load_config(str(path))

    def test_unknown_top_level_key_rejected(self, site):
        site.add_service("dune_production")
        with pytest.raises(ValidationError, match="unknown key"):
            site.config(surprise=1)

    def test_unknown_service_key_rejected(self, site):
        site.add_service("dune_production")
        site.services["dune_production"]["color"] = "blue"
        with pytest.raises(ValidationError, match="color"):
            site.config()

    def test_relative_state_dir_rejected(self, site):
        site.add_service("dune_production")
        with pytest.raises(ValidationError, match="absolute"):
            site.config(state_dir="relative/path")

    def test_lifetime_order_enforced(self, site):
        site.add_service("dune_production")
        with pytest.raises(ValidationError, match="bearer"):
            site.config(token_lifetimes={"bearer": "8d"})

    def test_zero_parallelism_rejected(self, site):
        site.add_service("dune_production")
        with pytest.raises(ValidationError, match="transfer_parallelism"):
            site.config(transfer_parallelism=0)

    def test_nonpositive_duration_rejected(self, site):
        site.add_service("dune_production")
        with pytest.raises(ValidationError, match="timeouts"):
            site.config(timeouts={"transfer": 0})

    def test_empty_credd_hosts_rejected(self, site):
        site.add_service("dune_production", credd_hosts=())
        with pytest.raises(ValidationError, match="credd_hosts"):
            site.config()

    def test_duplicate_nodes_rejected(self, site):
        site.add_service("dune_production",
                         nodes=("submit1.example.org", "submit1.example.org"))
        with pytest.raises(ValidationError, match="duplicate"):
            site.config()

    def test_registry_endpoint_needs_account_placeholder(self, site):
        site.add_service("dune_production")
        with pytest.raises(ValidationError, match="account"):
            site.config(registry={"base_url": "http://r.example.org",
                                  "uid_endpoint_template": "/users"})

    def test_bad_gateway_url_rejected(self, site):
        site.add_service("dune_production")
        with pytest.raises(ValidationError, match="metrics_gateway_url"):
            site.config(metrics_gateway_url="ftp://gw.example.org")

    def test_bad_adapter_mode_rejected(self, site):
        site.add_service("dune_production")
        with pytest.raises(ValidationError, match="adapter_mode"):
            site.config(adapter_mode="pretend")

    def test_quoted_false_token_prefix_check_rejected(self, site):
        site.add_service("dune_production")
        assert site.config(token_prefix_check=True).token_prefix_check is True
        with pytest.raises(ValidationError, match=r"^config\.token_prefix_check: "):
            site.config(token_prefix_check="false")

    def test_non_boolean_token_prefix_check_override_rejected(self, site):
        site.add_service("dune_production", overrides={"token_prefix_check": "no"})
        with pytest.raises(
                ValidationError,
                match=r"^config\.services\.dune_production\.overrides\.token_prefix_check: "):
            site.config()


class TestOverrides:
    def test_identity_merge_without_overrides(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        svc = resolve_service(cfg, "dune_production")
        assert svc.retry == cfg.retry
        assert svc.timeouts == cfg.timeouts
        assert svc.token_lifetimes == cfg.token_lifetimes
        assert svc.transfer_parallelism == cfg.transfer_parallelism
        assert svc.tmp_dir == cfg.tmp_dir
        assert svc.account == cfg.services["dune_production"].account
        assert svc.kerberos_realm == cfg.kerberos_realm

    def test_single_field_override(self, site):
        site.add_service("dune_production", overrides={"retry.max_attempts": 5})
        cfg = site.config()
        svc = resolve_service(cfg, "dune_production")
        assert svc.retry.max_attempts == 5
        assert svc.retry.base_backoff == cfg.retry.base_backoff
        assert svc.timeouts == cfg.timeouts

    def test_flat_override_precedence(self, site):
        site.add_service("dune_production", overrides={"transfer_parallelism": 1})
        cfg = site.config(transfer_parallelism=4)
        assert resolve_service(cfg, "dune_production").transfer_parallelism == 1
        assert cfg.transfer_parallelism == 4

    def test_unknown_service_raises(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        with pytest.raises(UnknownService):
            resolve_service(cfg, "missing")

    def test_unknown_override_key_rejected(self, site):
        site.add_service("dune_production", overrides={"retry.jitter": 0.5})
        with pytest.raises(ValidationError, match="retry"):
            site.config()

    def test_override_breaking_invariant_rejected(self, site):
        site.add_service("dune_production",
                         overrides={"token_lifetimes.vault_local": "30d"})
        with pytest.raises(ValidationError):
            site.config()

    def test_resolution_is_deterministic(self, site):
        site.add_service("dune_production",
                         overrides={"retry.max_attempts": 5, "tmp_dir": "/scratch"})
        cfg = site.config()
        assert resolve_service(cfg, "dune_production") == resolve_service(
            cfg, "dune_production")

    def test_resolved_service_carries_no_further_lookups(self, site):
        site.add_service("dune_production")
        cfg = site.config()
        svc = resolve_service(cfg, "dune_production")
        for field in dataclasses.fields(svc):
            assert getattr(svc, field.name) is not None

    def test_overridable_fields_are_the_settings_fields(self):
        assert {f.name for f in dataclasses.fields(Settings)} == {
            "tmp_dir", "transfer_parallelism", "timeouts", "retry", "token_lifetimes",
            "commands", "destination_templates", "default_token_path",
            "token_prefix_check", "oidc_prompt_regex"}

    @pytest.mark.parametrize("key,value", [
        ("state_dir", "/elsewhere"),
        ("kerberos_realm", "OTHER.ORG"),
        ("commands.transfer", "scp {local} {node}:{remote}"),
    ])
    def test_run_wide_fields_are_not_overridable(self, site, key, value):
        site.add_service("dune_production", overrides={key: value})
        with pytest.raises(ValidationError,
                           match=rf"overrides\.{key}: not an overridable field"):
            site.config()


class TestEnvironmentOverrides:
    def test_state_dir_env_wins(self, site, tmp_path, monkeypatch):
        site.add_service("dune_production")
        alt = tmp_path / "alt-state"
        monkeypatch.setenv(ENV_STATE_DIR, str(alt))
        assert site.config().state_dir == str(alt)

    def test_gateway_env_wins(self, site, monkeypatch):
        site.add_service("dune_production")
        monkeypatch.setenv(ENV_METRICS_GATEWAY_URL, "http://gw.example.org:9091")
        cfg = site.config(metrics_gateway_url="http://other.example.org")
        assert cfg.metrics_gateway_url == "http://gw.example.org:9091"


class TestRoundTrip:
    def test_write_back_is_stable(self, site):
        site.add_service("dune_production", overrides={"retry.max_attempts": 5})
        site.add_service("mu2e_production")
        cfg = site.config(metrics_gateway_url="http://gw.example.org",
                          trace_export="/var/log/spans.jsonl")
        again = load_config_text(write_back(cfg))
        assert again == cfg
        assert write_back(again) == write_back(cfg)

    @settings(max_examples=30)
    @given(
        parallelism=st.integers(min_value=1, max_value=32),
        max_attempts=st.integers(min_value=1, max_value=10),
        backoff=st.floats(min_value=0.01, max_value=60, allow_nan=False),
        bearer=st.integers(min_value=60, max_value=3600),
        n_services=st.integers(min_value=1, max_value=4),
        threshold=st.integers(min_value=1, max_value=9),
    )
    def test_round_trip_property(self, tmp_path_factory, parallelism, max_attempts,
                                 backoff, bearer, n_services, threshold):
        site = Site(tmp_path_factory.mktemp("rt"))
        for i in range(n_services):
            site.add_service(f"exp{i}_production")
        cfg = site.config(
            transfer_parallelism=parallelism,
            retry={"max_attempts": max_attempts, "base_backoff": backoff},
            token_lifetimes={"bearer": bearer},
            notification={"admin_recipients": ["ops@example.org"],
                          "threshold": threshold},
        )
        assert load_config_text(write_back(cfg)) == cfg


# Every optional section set, string durations, a non-ASCII stakeholder.
FULL_DOCUMENT = """\
state_dir: /var/lib/managed-tokens
tmp_dir: /scratch/tmp
kerberos_realm: FNAL.GOV
transfer_parallelism: 6
timeouts: {ticket: 90s, vault_store: 5m, transfer: 45}
retry: {max_attempts: 4, base_backoff: 500ms}
token_lifetimes: {bearer: 3h, vault_local: 7d, vault_credd: 28d}
metrics_gateway_url: http://gw.example.org:9091
trace_export: /var/log/managed-tokens/spans.jsonl
notification:
  admin_recipients: [ops@example.org, oncall@example.org]
  from_address: managed-tokens@example.org
  smtp_server: smtp.example.org
  smtp_port: 587
  threshold: 2
registry:
  base_url: https://registry.example.org:8445
  uid_endpoint_template: /getUserInfo?username={account}
  uid_json_path: ferry_output.uid
  timeout: 20s
  ca_bundle: /etc/grid-security/ca.pem
commands:
  ticket: kinit -k -t {keytab} -c {cache} {principal}
  storer: condor_vault_storer -v {service}
  transfer: rsync -p -e ssh {local} {node}:{remote}
destination_templates:
  user: "{tmp_dir}/vt_u{uid}"
  role: "{tmp_dir}/vt_u{uid}-{issuer}_{role}"
default_token_path: "{tmp_dir}/vt_u{uid}"
token_prefix_check: true
oidc_prompt_regex: '(?i)(?=.*oidc)(?=.*https?://)'
adapter_mode: simulation
simulation:
  registry_uids: {duneprod: 5000}
  fault_schedules: /etc/managed-tokens/faults.yaml
services:
  dune_production:
    account: duneprod
    experiment: dune
    role: production
    keytab_path: /opt/keytabs/duneprod.keytab
    principal_user: duneprod
    principal_purpose: managedtokens
    principal_host: tokens.example.org
    credd_hosts: [credd1.example.org, credd2.example.org]
    nodes: [submit1.example.org, submit2.example.org]
    token_issuer: dunevault
    stakeholder_emails: [zoë.müller@example.org]
    overrides:
      retry.max_attempts: 2
      timeouts.transfer: 2m
      token_prefix_check: false
"""

# An anchor, an alias, a merge key and a quoted "false".
ANCHOR_DOCUMENT = """\
state_dir: /var/lib/managed-tokens
kerberos_realm: FNAL.GOV
services:
  dune_production: &base
    account: duneprod
    experiment: dune
    role: "false"
    keytab_path: /opt/keytabs/duneprod.keytab
    principal_user: duneprod
    principal_purpose: managedtokens
    principal_host: tokens.example.org
    credd_hosts: &credds [credd1.example.org]
    nodes: [submit1.example.org]
    token_issuer: dunevault
  mu2e_production:
    <<: *base
    account: mu2eprod
    experiment: mu2e
    role: production
    credd_hosts: *credds
    token_issuer: mu2evault
"""

PYTHON_LOADER = yaml.SafeLoader
C_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class TestYamlLoaders:
    """The C and the pure-Python parsers must accept the same documents and
    build the same config from them."""

    @staticmethod
    def load_each(text, monkeypatch):
        loaded = []
        for loader in (PYTHON_LOADER, C_LOADER):
            monkeypatch.setattr(config_mod, "_YAML_LOADER", loader)
            cfg = load_config_text(text)
            loaded.append((cfg, write_back(cfg)))
        return loaded

    def test_c_parser_used_when_pyyaml_has_libyaml(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert config_mod._YAML_LOADER is expected

    def test_site_config_loads_the_same(self, site, monkeypatch):
        site.add_service("dune_production", overrides={"retry.max_attempts": 5})
        site.add_service("mu2e_production", stakeholder_emails=())
        site.add_service("nova_production",
                         nodes=("a.example.org", "b.example.org", "c.example.org"))
        with open(site.config_path(), encoding="utf-8") as fh:
            text = fh.read()
        (py_cfg, py_text), (c_cfg, c_text) = self.load_each(text, monkeypatch)
        assert py_cfg == c_cfg
        assert py_text == c_text

    def test_every_optional_section_loads_the_same(self, monkeypatch):
        (py_cfg, py_text), (c_cfg, c_text) = self.load_each(FULL_DOCUMENT, monkeypatch)
        assert py_cfg == c_cfg
        assert py_text == c_text
        assert c_cfg.timeouts.vault_store == 300.0
        assert c_cfg.retry.base_backoff == 0.5
        assert c_cfg.token_lifetimes.bearer == 10800.0
        assert c_cfg.token_prefix_check is True
        assert c_cfg.services["dune_production"].stakeholder_emails == (
            "zoë.müller@example.org",)
        resolved = resolve_service(c_cfg, "dune_production")
        assert resolved.timeouts.transfer == 120.0
        assert resolved.token_prefix_check is False

    def test_anchor_alias_and_quoted_false_load_the_same(self, monkeypatch):
        (py_cfg, py_text), (c_cfg, c_text) = self.load_each(ANCHOR_DOCUMENT, monkeypatch)
        assert py_cfg == c_cfg
        assert py_text == c_text
        assert c_cfg.services["dune_production"].role == "false"
        mu2e = c_cfg.services["mu2e_production"]
        assert mu2e.credd_hosts == ("credd1.example.org",)
        assert mu2e.principal_user == "duneprod"  # from the merged anchor

    @pytest.mark.parametrize("loader", [PYTHON_LOADER, C_LOADER],
                             ids=["python", "libyaml"])
    def test_malformed_yaml_names_the_line(self, loader, monkeypatch):
        monkeypatch.setattr(config_mod, "_YAML_LOADER", loader)
        with pytest.raises(ParseError, match=r"malformed YAML: (.|\n)*line 1, column \d+"):
            load_config_text("state_dir: [unclosed\n")


# The smallest document that loads; each TestMessages row breaks one thing in it.
MESSAGE_BASE = {
    "state_dir": "/var/lib/managed-tokens",
    "kerberos_realm": "FNAL.GOV",
    "services": {
        "svc": {
            "account": "duneprod",
            "experiment": "dune",
            "role": "production",
            "keytab_path": "/opt/keytabs/duneprod.keytab",
            "principal_user": "duneprod",
            "principal_purpose": "managedtokens",
            "principal_host": "tokens.example.org",
            "credd_hosts": ["credd1.example.org"],
            "nodes": ["submit1.example.org"],
            "token_issuer": "dunevault",
        },
    },
}
DROP = object()
SVC = "services/svc"
OVR = "services/svc/overrides"
LIFETIME_ORDER = ("lifetimes must satisfy bearer < vault_local < vault_credd "
                  "(got {} / {} / {})")


def message_document(patch):
    """MESSAGE_BASE with each ``a/b/c`` path in ``patch`` set (or dropped)."""
    doc = copy.deepcopy(MESSAGE_BASE)
    for path, value in patch.items():
        *parents, leaf = path.split("/")
        node = doc
        for key in parents:
            node = node.setdefault(key, {})
        if value is DROP:
            del node[leaf]
        else:
            node[leaf] = value
    return yaml.safe_dump(doc)


def row(row_id, patch, message):
    return pytest.param(patch, message, id=row_id)


MESSAGE_ROWS = [
    # Required fields: missing, null, empty, wrong type.
    row("state_dir-missing", {"state_dir": DROP}, "config.state_dir: required field is missing"),
    row("state_dir-null", {"state_dir": None}, "config.state_dir: required field is missing"),
    row("state_dir-empty", {"state_dir": ""}, "config.state_dir: expected a non-empty string"),
    row("state_dir-number", {"state_dir": 5}, "config.state_dir: expected a non-empty string"),
    row("kerberos_realm-missing", {"kerberos_realm": DROP},
        "config.kerberos_realm: required field is missing"),
    row("services-missing", {"services": DROP}, "config.services: required field is missing"),
    row("services-empty", {"services": {}}, "config.services: must be non-empty"),
    row("services-list", {"services": ["svc"]}, "config.services: must be non-empty"),
    row("service-number", {SVC: 5}, "config.services.svc: expected a mapping"),
    row("service-null", {SVC: None}, "config.services.svc: expected a mapping"),
    row("service-list", {SVC: ["account"]}, "config.services.svc: expected a mapping"),
    row("account-missing", {f"{SVC}/account": DROP},
        "config.services.svc.account: required field is missing"),
    row("account-null", {f"{SVC}/account": None},
        "config.services.svc.account: required field is missing"),
    row("account-empty", {f"{SVC}/account": ""},
        "config.services.svc.account: expected a non-empty string"),
    row("principal_user-empty", {f"{SVC}/principal_user": ""},
        "config.services.svc.principal_user: expected a non-empty string"),
    row("principal_purpose-empty", {f"{SVC}/principal_purpose": ""},
        "config.services.svc.principal_purpose: expected a non-empty string"),
    row("principal_host-empty", {f"{SVC}/principal_host": ""},
        "config.services.svc.principal_host: expected a non-empty string"),
    row("token_issuer-number", {f"{SVC}/token_issuer": 7},
        "config.services.svc.token_issuer: expected a non-empty string"),
    # Lists.
    row("credd_hosts-missing", {f"{SVC}/credd_hosts": DROP},
        "config.services.svc.credd_hosts: required field is missing"),
    row("credd_hosts-empty", {f"{SVC}/credd_hosts": []},
        "config.services.svc.credd_hosts: must be non-empty"),
    row("nodes-empty", {f"{SVC}/nodes": []}, "config.services.svc.nodes: must be non-empty"),
    row("nodes-duplicate", {f"{SVC}/nodes": ["a.example.org", "a.example.org"]},
        "config.services.svc.nodes: contains duplicates"),
    row("nodes-empty-item", {f"{SVC}/nodes": ["a.example.org", ""]},
        "config.services.svc.nodes[1]: expected a non-empty string"),
    row("nodes-number-item", {f"{SVC}/nodes": [5]},
        "config.services.svc.nodes[0]: expected a non-empty string"),
    row("nodes-string", {f"{SVC}/nodes": "a.example.org"},
        "config.services.svc.nodes: expected a list of strings"),
    row("stakeholder_emails-string", {f"{SVC}/stakeholder_emails": "a@example.org"},
        "config.services.svc.stakeholder_emails: expected a list of strings"),
    row("stakeholder_emails-duplicate",
        {f"{SVC}/stakeholder_emails": ["a@example.org", "a@example.org"]},
        "config.services.svc.stakeholder_emails: contains duplicates"),
    row("admin_recipients-empty-item", {"notification/admin_recipients": [""]},
        "config.notification.admin_recipients[0]: expected a non-empty string"),
    # Integers.
    row("transfer_parallelism-zero", {"transfer_parallelism": 0},
        "config.transfer_parallelism: must be >= 1"),
    row("transfer_parallelism-bool", {"transfer_parallelism": True},
        "config.transfer_parallelism: expected an integer"),
    row("transfer_parallelism-float", {"transfer_parallelism": 2.5},
        "config.transfer_parallelism: expected an integer"),
    row("transfer_parallelism-null", {"transfer_parallelism": None},
        "config.transfer_parallelism: expected an integer"),
    row("max_attempts-zero", {"retry/max_attempts": 0}, "config.retry.max_attempts: must be >= 1"),
    row("max_attempts-string", {"retry/max_attempts": "3"},
        "config.retry.max_attempts: expected an integer"),
    row("smtp_port-zero", {"notification/smtp_port": 0},
        "config.notification.smtp_port: must be >= 1"),
    row("threshold-bool", {"notification/threshold": False},
        "config.notification.threshold: expected an integer"),
    row("threshold-zero", {"notification/threshold": 0},
        "config.notification.threshold: must be >= 1"),
    # Durations.
    row("timeout-zero", {"timeouts/transfer": 0}, "config.timeouts.transfer: must be > 0"),
    row("backoff-negative", {"retry/base_backoff": -1}, "config.retry.base_backoff: must be > 0"),
    row("registry-timeout-zero", {"registry/timeout": "0s"},
        "config.registry.timeout: must be > 0"),
    row("timeout-null", {"timeouts/ticket": None},
        "config.timeouts.ticket: cannot parse duration None"),
    row("timeout-unparsable", {"timeouts/ticket": "fast"},
        "config.timeouts.ticket: cannot parse duration 'fast'"),
    row("timeout-bool", {"timeouts/ticket": True},
        "config.timeouts.ticket: expected a duration, got a boolean"),
    # Strings and booleans.
    row("tmp_dir-empty", {"tmp_dir": ""}, "config.tmp_dir: expected a non-empty string"),
    row("tmp_dir-null", {"tmp_dir": None}, "config.tmp_dir: expected a non-empty string"),
    row("kerberos_realm-empty", {"kerberos_realm": ""},
        "config.kerberos_realm: expected a non-empty string"),
    row("from_address-empty", {"notification/from_address": ""},
        "config.notification.from_address: expected a non-empty string"),
    row("ca_bundle-empty", {"registry/ca_bundle": ""},
        "config.registry.ca_bundle: expected a non-empty string"),
    row("commands-storer-empty", {"commands/storer": ""},
        "config.commands.storer: expected a non-empty string"),
    row("destination-user-number", {"destination_templates/user": 5},
        "config.destination_templates.user: expected a non-empty string"),
    row("trace_export-empty", {"trace_export": ""},
        "config.trace_export: expected a non-empty string"),
    row("fault_schedules-empty", {"simulation/fault_schedules": ""},
        "config.simulation.fault_schedules: expected a non-empty string"),
    row("token_prefix_check-string", {"token_prefix_check": "false"},
        "config.token_prefix_check: expected a boolean (true or false)"),
    # Unknown keys at each level.
    row("unknown-top", {"surprise": 1}, "config: unknown key(s) surprise"),
    row("unknown-top-two", {"zeta": 1, "alpha": 2}, "config: unknown key(s) alpha, zeta"),
    row("unknown-service", {f"{SVC}/color": "blue"}, "config.services.svc: unknown key(s) color"),
    row("unknown-service-name", {f"{SVC}/name": "svc"}, "config.services.svc: unknown key(s) name"),
    row("unknown-timeouts", {"timeouts/connect": 5}, "config.timeouts: unknown key(s) connect"),
    row("unknown-retry", {"retry/jitter": 0.5}, "config.retry: unknown key(s) jitter"),
    row("unknown-lifetimes", {"token_lifetimes/refresh": "1h"},
        "config.token_lifetimes: unknown key(s) refresh"),
    row("unknown-notification", {"notification/cc": ["a@example.org"]},
        "config.notification: unknown key(s) cc"),
    row("unknown-registry", {"registry/retries": 2}, "config.registry: unknown key(s) retries"),
    row("unknown-commands", {"commands/scp": "scp"}, "config.commands: unknown key(s) scp"),
    row("unknown-destinations", {"destination_templates/group": "{tmp_dir}/g"},
        "config.destination_templates: unknown key(s) group"),
    row("unknown-simulation", {"simulation/seed": 1}, "config.simulation: unknown key(s) seed"),
    row("removed-registry_fetch", {"timeouts/registry_fetch": "1m"},
        "config.timeouts: unknown key(s) registry_fetch"),
    row("removed-poll_interval", {"registry/poll_interval": "2h"},
        "config.registry: unknown key(s) poll_interval"),
    # Sections that are not mappings.
    row("timeouts-number", {"timeouts": 5}, "config.timeouts: expected a mapping"),
    row("registry-list", {"registry": ["base_url"]}, "config.registry: expected a mapping"),
    row("commands-string", {"commands": "kinit"}, "config.commands: expected a mapping"),
    row("overrides-list", {OVR: ["tmp_dir"]}, "config.services.svc.overrides: expected a mapping"),
    row("registry_uids-number", {"simulation/registry_uids": 5},
        "config.simulation.registry_uids: expected a mapping"),
    row("retry-zero", {"retry": 0}, "config.retry: expected a mapping"),
    row("timeouts-false", {"timeouts": False}, "config.timeouts: expected a mapping"),
    row("notification-empty-string", {"notification": ""},
        "config.notification: expected a mapping"),
    row("overrides-zero", {OVR: 0}, "config.services.svc.overrides: expected a mapping"),
    row("registry_uids-false", {"simulation/registry_uids": False},
        "config.simulation.registry_uids: expected a mapping"),
    # Field rules that differ from the field's type.
    row("state_dir-relative", {"state_dir": "relative/path"},
        "config.state_dir: must be an absolute path"),
    row("tmp_dir-relative", {"tmp_dir": "tmp"}, "config.tmp_dir: must be an absolute path"),
    row("gateway-ftp", {"metrics_gateway_url": "ftp://gw.example.org"},
        "config.metrics_gateway_url: must be an http(s) URL"),
    row("gateway-empty", {"metrics_gateway_url": ""},
        "config.metrics_gateway_url: expected a non-empty string"),
    row("adapter_mode-unknown", {"adapter_mode": "pretend"},
        "config.adapter_mode: must be 'real' or 'simulation'"),
    row("adapter_mode-null", {"adapter_mode": None},
        "config.adapter_mode: must be 'real' or 'simulation'"),
    row("base_url-number", {"registry/base_url": 5}, "config.registry.base_url: expected a string"),
    row("registry_uid-negative", {"simulation/registry_uids": {"duneprod": -1}},
        "config.simulation.registry_uids.duneprod: must be >= 0"),
    row("registry_uid-string", {"simulation/registry_uids": {"duneprod": "5000"}},
        "config.simulation.registry_uids.duneprod: expected an integer"),
    # Templates: only the placeholders their renderer supplies; a path renders absolute.
    row("default_token_path-unknown-placeholder",
        {"default_token_path": "{tmp_dir}/vt_{account}"},
        "config.default_token_path: unknown placeholder {account} (allowed: {tmp_dir} {uid})"),
    row("commands-storer-unknown-placeholder", {"commands/storer": "condor_vault_storer {svc}"},
        "config.commands.storer: unknown placeholder {svc} (allowed: {keytab} {principal} "
        "{cache} {service} {credd} {account} {experiment} {role} {issuer} "
        "{vault_local_seconds} {vault_credd_seconds})"),
    row("commands-ticket-unknown-placeholder", {"commands/ticket": "kinit {credd}"},
        "config.commands.ticket: unknown placeholder {credd} "
        "(allowed: {keytab} {principal} {cache} {service})"),
    row("commands-transfer-unbalanced-quote",
        {"commands/transfer": 'rsync -e "ssh {local} {node}:{remote}'},
        "config.commands.transfer: cannot render 'rsync -e \"ssh {local} {node}:{remote}': "
        "No closing quotation"),
    row("destination-role-unknown-placeholder",
        {"destination_templates/role": "{tmp_dir}/vt_u{uid}-{nodename}"},
        "config.destination_templates.role: unknown placeholder {nodename} "
        "(allowed: {tmp_dir} {uid} {issuer} {role} {service} {account})"),
    row("destination-user-unclosed-brace", {"destination_templates/user": "{tmp_dir/vt"},
        "config.destination_templates.user: cannot render '{tmp_dir/vt': "
        "expected '}' before end of string"),
    row("destination-user-positional", {"destination_templates/user": "{tmp_dir}/vt_{}"},
        "config.destination_templates.user: cannot render '{tmp_dir}/vt_{}': "
        "Replacement index 0 out of range for positional args tuple"),
    row("default_token_path-relative", {"default_token_path": "tmp/vt_u{uid}"},
        "config.default_token_path: 'tmp/vt_u{uid}' must render an absolute path"),
    row("destination-role-relative", {"destination_templates/role": "tokens/{account}.{role}"},
        "config.destination_templates.role: 'tokens/{account}.{role}' "
        "must render an absolute path"),
    row("endpoint-unknown-placeholder",
        {"registry/uid_endpoint_template": "/users?name={account}&site={site}"},
        "config.registry.uid_endpoint_template: unknown placeholder {site} "
        "(allowed: {account})"),
    # Cross-field rules.
    row("lifetimes-bearer-too-long", {"token_lifetimes/bearer": "8d"},
        "config.token_lifetimes: " + LIFETIME_ORDER.format(691200.0, 604800.0, 2419200.0)),
    row("lifetimes-equal", {"token_lifetimes/vault_local": "28d"},
        "config.token_lifetimes: " + LIFETIME_ORDER.format(10800.0, 2419200.0, 2419200.0)),
    row("destinations-equal", {"destination_templates": {"user": "{tmp_dir}/t",
                                                         "role": "{tmp_dir}/t"}},
        "config.destination_templates: user and role templates must differ"),
    row("oidc-regex-unbalanced", {"oidc_prompt_regex": "(oidc"},
        "config.oidc_prompt_regex: cannot compile '(oidc': "
        "missing ), unterminated subpattern at position 0"),
    row("endpoint-no-account", {"registry/uid_endpoint_template": "/users"},
        "config.registry.uid_endpoint_template: must contain exactly one {account} placeholder"),
    row("endpoint-two-accounts", {"registry/uid_endpoint_template": "/u/{account}/{account}"},
        "config.registry.uid_endpoint_template: must contain exactly one {account} placeholder"),
    # Per-service overrides.
    row("override-not-overridable", {OVR: {"state_dir": "/elsewhere"}},
        "config.services.svc.overrides.state_dir: not an overridable field"),
    row("override-registry", {OVR: {"registry.timeout": 5}},
        "config.services.svc.overrides.registry.timeout: not an overridable field"),
    row("override-group-without-member", {OVR: {"retry": {"max_attempts": 2}}},
        "config.services.svc.overrides.retry: not an overridable field"),
    row("override-group-empty-member", {OVR: {"retry.": 2}},
        "config.services.svc.overrides.retry.: not an overridable field"),
    row("override-flat-with-member", {OVR: {"tmp_dir.path": "/scratch"}},
        "config.services.svc.overrides.tmp_dir.path: not an overridable field"),
    row("override-no-such-member", {OVR: {"retry.jitter": 0.5}},
        "config.services.svc.overrides.retry.jitter: retry has no field 'jitter'"),
    row("override-relative-tmp_dir", {OVR: {"tmp_dir": "scratch"}},
        "config.services.svc.overrides.tmp_dir: must be an absolute path"),
    row("override-relative-destination", {OVR: {"destination_templates.user": "{uid}/vt"}},
        "config.services.svc.overrides.destination_templates.user: "
        "'{uid}/vt' must render an absolute path"),
    row("override-bad-int", {OVR: {"retry.max_attempts": 0}},
        "config.services.svc.overrides.retry.max_attempts: must be >= 1"),
    row("override-bad-parallelism", {OVR: {"transfer_parallelism": 0}},
        "config.services.svc.overrides.transfer_parallelism: must be >= 1"),
    row("override-bad-duration", {OVR: {"timeouts.transfer": "soon"}},
        "config.services.svc.overrides.timeouts.transfer: cannot parse duration 'soon'"),
    row("override-bad-string", {OVR: {"commands.storer": ""}},
        "config.services.svc.overrides.commands.storer: expected a non-empty string"),
    row("override-unknown-placeholder", {OVR: {"commands.storer": "condor_vault_storer {svc}"}},
        "config.services.svc.overrides.commands.storer: unknown placeholder {svc} "
        "(allowed: {keytab} {principal} {cache} {service} {credd} {account} {experiment} "
        "{role} {issuer} {vault_local_seconds} {vault_credd_seconds})"),
    row("override-transfer-command",
        {OVR: {"commands.transfer": "scp {local} {node}:{remote}"}},
        "config.services.svc.overrides.commands.transfer: not an overridable field"),
    row("override-oidc-regex", {OVR: {"oidc_prompt_regex": "[oidc"}},
        "config.services.svc.overrides.oidc_prompt_regex: cannot compile '[oidc': "
        "unterminated character set at position 0"),
    row("override-bad-bool", {OVR: {"token_prefix_check": "no"}},
        "config.services.svc.overrides.token_prefix_check: expected a boolean (true or false)"),
    row("override-breaks-lifetimes", {OVR: {"token_lifetimes.vault_local": "30d"}},
        "config.services.svc.overrides.token_lifetimes: "
        + LIFETIME_ORDER.format(10800.0, 2592000.0, 2419200.0)),
    row("override-breaks-destinations",
        {OVR: {"destination_templates.role": "{tmp_dir}/vt_u{uid}"}},
        "config.services.svc.overrides.destination_templates: "
        "user and role templates must differ"),
]


class TestMessages:
    """Each bad document fails with exactly this message."""

    @pytest.fixture(autouse=True)
    def _no_environment(self, monkeypatch):
        monkeypatch.delenv(ENV_STATE_DIR, raising=False)
        monkeypatch.delenv(ENV_METRICS_GATEWAY_URL, raising=False)

    def test_base_document_loads(self):
        assert list(load_config_text(message_document({})).services) == ["svc"]

    @pytest.mark.parametrize("section", ["timeouts", "retry", "notification", "simulation"])
    def test_null_section_means_defaults(self, section):
        cfg = load_config_text(message_document({section: None}))
        assert getattr(cfg, section) == getattr(load_config_text(message_document({})), section)

    def test_non_string_key_is_an_unknown_key(self):
        with pytest.raises(ValidationError) as caught:
            load_config_text(message_document({}) + "1: 2\n")
        assert str(caught.value) == "config: unknown key(s) 1"

    @pytest.mark.parametrize("patch,message", MESSAGE_ROWS)
    def test_message(self, patch, message):
        with pytest.raises(ValidationError) as caught:
            load_config_text(message_document(patch))
        assert str(caught.value) == message


def words(command: str, placeholders: tuple[str, ...]) -> str:
    """A command template with one ``name={name}`` argument per placeholder."""
    return " ".join([command, *(f"{name}={{{name}}}" for name in placeholders)])


def path(placeholders: tuple[str, ...]) -> str:
    """An absolute path template naming every placeholder."""
    return "/".join(["", *(f"{name}{{{name}}}" for name in placeholders)])


class TestTemplatePlaceholders:
    """Every placeholder config load allows in a template reaches the code
    that renders it, so the allowed lists and the renderers stay in step."""

    @staticmethod
    def assert_rendered(argv, placeholders):
        rendered = dict(word.split("=", 1) for word in argv[1:])
        assert sorted(rendered) == sorted(placeholders)
        assert not any("{" in value for value in rendered.values())

    def test_commands(self, site):
        site.add_service("dune_production", overrides={
            "commands.ticket": words("kinit", config_mod.TICKET_PLACEHOLDERS),
            "commands.storer": words("condor_vault_storer", config_mod.STORER_PLACEHOLDERS)})
        cfg = site.config(commands={
            "transfer": words("rsync", config_mod.TRANSFER_PLACEHOLDERS)})
        svc = resolve_service(cfg, "dune_production")
        runner = simkit.scripted_runner(simkit.always_succeed(),
                                        side_effects=simkit.write_token_from_env(),
                                        clock=simkit.FixedClock())
        ticket = credentials.acquire_ticket(svc, runner)
        credentials.store_vault_tokens(svc, 4521, ticket, runner)
        adapters.CommandTransferAdapter(cfg.commands.transfer, runner).put(
            "/local/token", "submit1.example.org", "/remote/token")
        kinit, storer, transfer = (entry.args for entry in runner.log.entries())
        self.assert_rendered(kinit, config_mod.TICKET_PLACEHOLDERS)
        self.assert_rendered(storer, config_mod.STORER_PLACEHOLDERS)
        self.assert_rendered(transfer, config_mod.TRANSFER_PLACEHOLDERS)

    def test_paths_and_endpoint(self, site):
        site.add_service("dune_production", overrides={
            "destination_templates.user": path(config_mod.DESTINATION_PLACEHOLDERS),
            "destination_templates.role": path(config_mod.DESTINATION_PLACEHOLDERS) + "-r",
            "default_token_path": path(config_mod.TOKEN_PATH_PLACEHOLDERS)})
        endpoint = "/users?" + "&".join(f"{name}={{{name}}}"
                                        for name in config_mod.UID_ENDPOINT_PLACEHOLDERS)
        cfg = site.config(registry={"base_url": "http://registry.example.org",
                                    "uid_endpoint_template": endpoint})
        svc = resolve_service(cfg, "dune_production")
        rendered = [*distribution.compute_destinations(svc, 4521),
                    credentials.default_token_path(svc, 4521)]
        assert not any("{" in value for value in rendered)
        http = simkit.fake_registry({"duneprod": 4521}, endpoint_template=endpoint)
        assert registry.fetch_uid(cfg.registry, http, "duneprod") == 4521
