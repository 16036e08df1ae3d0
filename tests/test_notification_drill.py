"""Smoke test of scripts/notification_drill.py against the current pipeline."""

from __future__ import annotations

import importlib.util
import logging
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "notification_drill.py"


def load_drill():
    spec = importlib.util.spec_from_file_location("notification_drill", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_drill_pages_at_the_threshold_and_again_after_recovery(capsys):
    drill = load_drill()
    logger = logging.getLogger("managed_tokens")
    level = logger.level
    try:  # the drill silences the package logger; give it back to the suite
        assert drill.main(["--threshold", "3", "--runs", "8", "--recover-at", "4"]) == 0
    finally:
        logger.setLevel(level)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "threshold: 3, failing node: bad.sim.example.org"
    rows = [re.match(r"run +(\d+): push (ok|FAILED) +streak=(\d+) watermark=(\d+) +(.*)$",
                     line).groups() for line in lines[1:]]
    assert [(int(run), outcome, int(streak), int(watermark))
            for run, outcome, streak, watermark, _ in rows] == [
        (1, "FAILED", 1, 0),
        (2, "FAILED", 2, 0),
        (3, "FAILED", 3, 3),
        (4, "ok", 0, 0),
        (5, "FAILED", 1, 0),
        (6, "FAILED", 2, 0),
        (7, "FAILED", 3, 3),
        (8, "FAILED", 4, 3),
    ]
    paged = [int(run) for run, _, _, _, fired in rows if fired != "-"]
    assert paged == [3, 7]
    assert all(fired == "stakeholder batch -> ('drill_production-admins@sim.example.org',)"
               for _, _, _, _, fired in rows if fired != "-")
