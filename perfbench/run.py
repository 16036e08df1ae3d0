#!/usr/bin/env python3
"""Token-push benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload wide_fanout --seed 1 --seconds 20 --trace 0

Runs the program from ``src/`` of the checkout this file sits in, checks
every run, prints each metric with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. Scratch
files go to ``.perfbench/`` in the checkout and are removed afterwards,
except the span file of a traced run.

Exit codes: 0 measured and correct; 1 the correctness gate failed (no
numbers are printed); 2 bad arguments, a refused workload size, or no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _require_program() -> None:
    """Put the checkout's program on the import path, or exit 2."""
    src = ROOT / "src"
    if not (src / "managed_tokens" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, WorkloadTooLarge

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_program()
    from perfbench.bench import measure
    from perfbench.gate import GateFailure

    # The config loader lets these override the generated config.
    for name in ("MANAGED_TOKENS_STATE_DIR", "MANAGED_TOKENS_METRICS_GATEWAY_URL"):
        os.environ.pop(name, None)

    scratch = ROOT / ".perfbench"
    work_dir = scratch / f"work-{args.workload}-{os.getpid()}"
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work_dir,
                         trace_path=scratch / f"trace-{args.workload}.jsonl")
    except WorkloadTooLarge as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2
    except GateFailure as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
