#!/usr/bin/env python3
"""Stand up a synthetic deployment and run the token pipeline against it.

Everything external is simulated: the ticket and storer commands are scripted
doubles, pushes land in memory, the UID registry is a fixture, and
notifications go to the log. Good for demos, CLI smoke tests, and rehearsing
fault schedules without a batch system anywhere near.

    python3 scripts/simulate_run.py --services 4 --nodes 3
    python3 scripts/simulate_run.py --fail-node submit2.sim.example.org
    python3 scripts/simulate_run.py --dry-run
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import yaml

from managed_tokens.cli import main_token_push


def build_workspace(root: Path, n_services: int, n_nodes: int,
                    fail_node: str | None, fault_schedules: str | None,
                    threshold: int) -> str:
    for sub in ("state", "tmp", "keytabs"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    nodes = [f"submit{j + 1}.sim.example.org" for j in range(n_nodes)]
    services = {}
    for i in range(n_services):
        name = f"sim{i:02d}_production"
        keytab = root / "keytabs" / f"{name}.keytab"
        keytab.write_bytes(b"\x05\x02keytab")
        services[name] = {
            "account": f"sim{i:02d}prod",
            "experiment": f"sim{i:02d}",
            "role": "production",
            "keytab_path": str(keytab),
            "principal_user": f"sim{i:02d}prod",
            "principal_purpose": "managedtokens",
            "principal_host": "tokens.sim.example.org",
            "credd_hosts": ["credd1.sim.example.org"],
            "nodes": nodes,
            "token_issuer": f"sim{i:02d}vault",
            "stakeholder_emails": [f"{name}-admins@sim.example.org"],
        }
    simulation: dict[str, object] = {}
    if fail_node:
        faults_path = root / "faults.yaml"
        faults_path.write_text(yaml.safe_dump({
            f"transfer:{fail_node}": {
                "pattern": [{"fail": "injected fault"}], "repeat": True},
        }))
        simulation["fault_schedules"] = str(faults_path)
    if fault_schedules:
        simulation["fault_schedules"] = fault_schedules
    raw = {
        "state_dir": str(root / "state"),
        "tmp_dir": str(root / "tmp"),
        "kerberos_realm": "SIM.EXAMPLE.ORG",
        "adapter_mode": "simulation",
        "notification": {"admin_recipients": ["ops@sim.example.org"],
                         "threshold": threshold},
        "registry": {"base_url": "http://registry.sim.example.org"},
        "retry": {"max_attempts": 2, "base_backoff": "50ms"},
        "simulation": simulation,
        "services": services,
    }
    config_path = root / "config.yaml"
    config_path.write_text(yaml.safe_dump(raw, sort_keys=True))
    return str(config_path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--services", type=int, default=3,
                        help="number of synthetic services (default 3)")
    parser.add_argument("--nodes", type=int, default=2,
                        help="submit nodes per service (default 2)")
    parser.add_argument("--fail-node", metavar="NODE",
                        help="make every push to NODE fail")
    parser.add_argument("--fault-schedules", metavar="PATH", type=os.path.abspath,
                        help="use an existing fault-schedule file instead")
    parser.add_argument("--threshold", type=int, default=3,
                        help="consecutive-failure notification threshold")
    parser.add_argument("--out", metavar="DIR", type=os.path.abspath,
                        help="workspace directory (default: a fresh tempdir)")
    parser.add_argument("--dry-run", action="store_true",
                        help="pass --dry-run through to token-push")
    parser.add_argument("--verbose", action="store_true",
                        help="pass --verbose through to token-push")
    args = parser.parse_args(argv)

    root = Path(args.out) if args.out else Path(
        tempfile.mkdtemp(prefix="managed-tokens-sim-"))
    config_path = build_workspace(root, args.services, args.nodes,
                                  args.fail_node, args.fault_schedules,
                                  args.threshold)
    print(f"workspace: {root}")
    print(f"config:    {config_path}")

    cli_args = ["--config", config_path]
    if args.dry_run:
        cli_args.append("--dry-run")
    if args.verbose:
        cli_args.append("--verbose")
    code = main_token_push(cli_args)
    print(f"exit code: {code}")
    print(f"staged tokens under: {root / 'state' / 'tokens'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
