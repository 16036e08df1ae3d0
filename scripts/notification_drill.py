#!/usr/bin/env python3
"""Show how the consecutive-failure threshold gates stakeholder notifications.

Runs the pipeline repeatedly against one synthetic deployment whose single
service has a node that never accepts pushes, with an optional clean run in
the middle, and prints one line per run: the node's failure streak, the
notification watermark, and whether a stakeholder batch went out. The
deployment lives in a temporary directory that is removed on exit.

    python3 scripts/notification_drill.py --threshold 3 --runs 8 --recover-at 4
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import tempfile
from pathlib import Path

import yaml

from managed_tokens import simkit
from managed_tokens.adapters import build_simulation_bundle
from managed_tokens.config import load_config
from managed_tokens.orchestrator import run_token_push
from managed_tokens.statestore import open_store

SERVICE = "drill_production"
STAKEHOLDER_MARK = ": token distribution failures"


def write_config(root: Path, node: str, threshold: int,
                 failing: bool) -> str:
    """One deployment, two config flavors: with and without the node fault."""
    for sub in ("state", "tmp", "keytabs"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    keytab = root / "keytabs" / f"{SERVICE}.keytab"
    keytab.write_bytes(b"\x05\x02keytab")
    simulation: dict[str, object] = {"registry_uids": {"drillprod": 4100}}
    if failing:
        faults_path = root / "faults.yaml"
        faults_path.write_text(yaml.safe_dump({
            f"transfer:{node}": {
                "pattern": [{"fail": "no route to host"}], "repeat": True},
        }))
        simulation["fault_schedules"] = str(faults_path)
    raw = {
        "state_dir": str(root / "state"),
        "tmp_dir": str(root / "tmp"),
        "kerberos_realm": "SIM.EXAMPLE.ORG",
        "adapter_mode": "simulation",
        "notification": {"admin_recipients": ["ops@sim.example.org"],
                         "threshold": threshold},
        "registry": {"base_url": "http://registry.sim.example.org"},
        "retry": {"max_attempts": 2, "base_backoff": "10ms"},
        "simulation": simulation,
        "services": {SERVICE: {
            "account": "drillprod",
            "experiment": "drill",
            "role": "production",
            "keytab_path": str(keytab),
            "principal_user": "drillprod",
            "principal_purpose": "managedtokens",
            "principal_host": "tokens.sim.example.org",
            "credd_hosts": ["credd1.sim.example.org"],
            "nodes": ["good.sim.example.org", node],
            "token_issuer": "drillvault",
            "stakeholder_emails": [f"{SERVICE}-admins@sim.example.org"],
        }},
    }
    flavor = "failing" if failing else "healthy"
    config_path = root / f"config-{flavor}.yaml"
    config_path.write_text(yaml.safe_dump(raw, sort_keys=True))
    return str(config_path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=int, default=3)
    parser.add_argument("--runs", type=int, default=8)
    parser.add_argument("--recover-at", type=int, default=4, metavar="RUN",
                        help="run number that succeeds (0 = never recover)")
    parser.add_argument("--node", default="bad.sim.example.org")
    parser.add_argument("--verbose", action="store_true",
                        help="keep per-attempt warnings on stderr")
    args = parser.parse_args(argv)

    if not args.verbose:
        # The point is the table; the FAILED column already says what the
        # suppressed warnings would.
        logging.getLogger("managed_tokens").setLevel(logging.CRITICAL)
    with tempfile.TemporaryDirectory(prefix="managed-tokens-drill-") as tmp:
        root = Path(tmp)
        failing_cfg = load_config(write_config(root, args.node, args.threshold,
                                               failing=True))
        healthy_cfg = load_config(write_config(root, args.node, args.threshold,
                                               failing=False))
        print(f"threshold: {args.threshold}, failing node: {args.node}")

        for run in range(1, args.runs + 1):
            clean = run == args.recover_at
            cfg = healthy_cfg if clean else failing_cfg
            # Fresh bundle per run, but with a recording sink so batches are
            # inspectable instead of just logged.
            bundle = dataclasses.replace(build_simulation_bundle(cfg),
                                         sink=simkit.RecordingSink())
            run_token_push(cfg, bundle, run_id=f"drill{run:03d}")
            batches = [m for m in bundle.sink.messages
                       if STAKEHOLDER_MARK in m.subject]
            with open_store(cfg.state_dir) as store:
                counter = store.get_counter(SERVICE, args.node)
            streak = counter.consecutive_failures if counter else 0
            watermark = counter.last_notified_count if counter else 0
            outcome = "ok    " if clean else "FAILED"
            fired = f"stakeholder batch -> {batches[0].recipients}" if batches else "-"
            print(f"run {run:2d}: push {outcome} streak={streak} "
                  f"watermark={watermark}  {fired}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
