#!/usr/bin/env python3
"""Run the benchmark in interleaved parent/change pairs and write BENCH_<pr>.json.

Each pair runs ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace T`` once in the parent checkout and once in the change checkout, on
the same seed; the side that runs first alternates from pair to pair. The
command and the metric bounds come from ``BENCHMARK.json`` in the change
checkout. One workload per call: its entry in the output file is replaced
and every other entry is kept, so workloads can be measured one at a time.

    python3 scripts/bench_pairs.py --parent ../parent --pr 10 \\
        --workload flaky_cold --seeds 1-10 --traced-seeds 1-2 --seconds 30 \\
        --claim setup_s

Every metric's line ends with its verdict (see :func:`verdict`). Only the
benchmark is called; it is never edited. Exits 1 if a run fails or its
correctness gate does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,2,11-12' to a list of seeds, in order."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int) -> tuple[dict[str, float], dict[str, Any]]:
    """One benchmark run: its metric values, and the machine it reports in
    its ``env`` line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(argv)} in {checkout}: gate did not hold: {result}")
    fields = dict(f.split("=", 1) for line in lines if line.startswith("env ")
                  for f in line.split()[1:])
    machine = {"cpus": int(fields["nproc"]), "fs_type": fields["fs_type"],
               "python": fields["python"], "implementation": fields["implementation"]}
    return {name: m["value"] for name, m in result["metrics"].items()}, machine


def summary(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None = None, claimed: bool = False) -> str:
    """The verdict on one metric's paired runs, ``parent[i]`` and
    ``change[i]`` on the same seed:

    - ``WORSE THAN BOUND``: the change's median is worse than the parent's by
      more than ``bound``, relative to the parent's median;
    - for the claimed metric, ``holds`` when the change wins at least nine
      tenths of the pairs, ties counting for neither side, and the medians
      differ by more than the parent's interquartile range; else ``not met``;
    - ``UNRESOLVED``: the parent's interquartile range, relative to its
      median, is wider than ``bound``, and not every change run beats every
      parent run;
    - else ``within bound``, or ``no bound`` for a metric without one.
    """
    sign = 1 if better == "lower" else -1  # sign * value: lower is better
    parent_summary, change_summary = summary(parent), summary(change)
    p, c = parent_summary["median"], change_summary["median"]
    iqr = parent_summary["q3"] - parent_summary["q1"]
    if bound is not None and p and sign * (c - p) / abs(p) > bound:
        return "WORSE THAN BOUND"
    if claimed:
        wins = sum(sign * (after - before) < 0 for before, after in zip(parent, change))
        return "holds" if 10 * wins >= 9 * len(parent) and abs(c - p) > iqr else "not met"
    if bound is None:
        return "no bound"
    beats_every_run = max(sign * v for v in change) < min(sign * v for v in parent)
    if p and iqr / abs(p) > bound and not beats_every_run:
        return "UNRESOLVED"
    return "within bound"


def measure(parent: Path, change: Path, command: list[str], workload: str,
            seeds: list[int], seconds: float, trace: int,
            definitions: dict[str, dict[str, Any]]) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one pair per seed and summarise every metric the runs print.
    Also returns the machine as the change's runs report it."""
    checkouts = {"parent": parent, "change": change}
    first_side: dict[str, str] = {}
    values: dict[str, dict[str, list[float]]] = {}
    machine: dict[str, Any] = {}
    for index, seed in enumerate(seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        first_side[str(seed)] = order[0]
        for side in order:
            metrics, env = run_once(checkouts[side], command, workload, seed, seconds,
                                    trace)
            if side == "change":
                machine = env
            for name, value in metrics.items():
                values.setdefault(name, {"parent": [], "change": []})[side].append(
                    round(value, 6))
        print(f"{workload} seed {seed} done ({order[0]} first)", file=sys.stderr)

    out: dict[str, Any] = {}
    for name, sides in values.items():
        better = definitions.get(name, {}).get("better", "lower")
        wins = ties = 0
        for p, c in zip(sides["parent"], sides["change"]):
            if p == c:
                ties += 1
            elif (c < p) == (better == "lower"):
                wins += 1
        entry: dict[str, Any] = {
            "better": better,
            "parent": sides["parent"],
            "change": sides["change"],
            "parent_summary": summary(sides["parent"]),
            "change_summary": summary(sides["change"]),
            "change_wins": wins,
            "ties": ties,
        }
        if "bound" in definitions.get(name, {}):
            entry["bound"] = definitions[name]["bound"]
        out[name] = entry
    return {"seeds": seeds, "first_side": first_side, "runs_per_side": len(seeds),
            "metrics": out}, machine


def report(workload: str, block: dict[str, Any], claim: str | None = None) -> None:
    """One line per metric: medians, relative change, wins, and its verdict."""
    pairs = block["runs_per_side"]
    for name, m in block["metrics"].items():
        p, c = m["parent_summary"]["median"], m["change_summary"]["median"]
        rel = (c - p) / p if p else 0.0
        iqr = m["parent_summary"]["q3"] - m["parent_summary"]["q1"]
        outcome = verdict(m["parent"], m["change"], m["better"], m.get("bound"),
                          claimed=name == claim)
        print(f"{workload:14} {name:42} {p:>12.6g} -> {c:<12.6g} {rel:+7.1%} "
              f"wins {m['change_wins']}/{pairs} ties {m['ties']} "
              f"|delta| {'>' if abs(c - p) > iqr else '<='} parent IQR  {outcome}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--pr", required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--traced-seeds", type=parse_seeds, default=[],
                        help="pairs run with --trace 1 for the per-layer metrics")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--claim", help="end-to-end metric this workload claims")
    parser.add_argument("--description", help="what parent and change are")
    args = parser.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    definitions = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    out_path = change / f"BENCH_{args.pr}.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}

    if args.description or "description" not in doc:
        doc["description"] = (
            f"Interleaved parent/change pairs of {' '.join(bench['command'])} "
            f"--workload W --seed N --seconds {args.seconds:g}; the side run first "
            f"alternates from pair to pair. {args.description or ''}").strip()
    if args.claim:
        doc["claim"] = {"workload": args.workload, "metric": args.claim}
    workloads = doc.setdefault("workloads", {})

    try:
        entry = {}
        entry["end_to_end"], doc["environment"] = measure(
            parent, change, bench["command"], args.workload, args.seeds, args.seconds, 0,
            definitions)
        if args.traced_seeds:
            entry["per_layer"], _ = measure(
                parent, change, bench["command"], args.workload, args.traced_seeds,
                args.seconds, 1, definitions)
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    workloads[args.workload] = entry
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    for kind, block in entry.items():  # a claim is judged on the untraced runs
        report(args.workload, block, args.claim if kind == "end_to_end" else None)
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
