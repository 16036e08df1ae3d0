"""Configuration loading, validation, overrides, and round-trip stability."""

from __future__ import annotations

import dataclasses

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from managed_tokens import config as config_mod
from managed_tokens.config import (
    ENV_METRICS_GATEWAY_URL,
    ENV_STATE_DIR,
    ParseError,
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
        assert cfg.timeouts.registry_fetch == 30.0
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
timeouts: {ticket: 90s, vault_store: 5m, transfer: 45, registry_fetch: 1m}
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
  poll_interval: 2h
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
        assert c_cfg.registry.poll_interval == 7200.0
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
