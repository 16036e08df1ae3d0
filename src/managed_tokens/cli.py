"""Command-line entry points.

Two single-shot executables, meant to be driven by an external scheduler:

``token-push``
    The main pipeline: per-service ticket, serialized vault store, fan-out
    push, notifications, metrics.

``refresh-uids``
    Refetches every configured account's UID from the identity registry
    (also installed under its historical name ``refresh-uids-from-ferry``).

Both share one entry path: parse the flags, load the config, build the
adapters, run. Exit codes are the only machine contract: 0 success, 1
partial failure, 2 setup or usage failure (an unusable config or state
store included).
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
from typing import Callable, Iterator, Optional, Sequence

from . import __version__, adapters, observability, orchestrator
from .config import ConfigError, GlobalConfig, load_config
from .interfaces import AdapterBundle
from .orchestrator import FatalSetupError, RunReport

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_SETUP = 2


def _exit_code(exc: SystemExit) -> int:
    # argparse raises SystemExit(2) on usage errors and SystemExit(0) for
    # --version/--help; anything non-integer is a setup failure.
    if exc.code is None:
        return EXIT_OK
    if isinstance(exc.code, int):
        return exc.code
    return EXIT_SETUP


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="path to the YAML configuration file")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")


def _token_push_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="token-push",
        description="Obtain and distribute vault tokens for every configured service.",
    )
    _add_common_flags(parser)
    parser.add_argument("--service", action="append", default=[], metavar="NAME",
                        help="run only this service (repeatable)")
    parser.add_argument("--dry-run", action="store_true",
                        help="stop after the vault store stage: no pushes, "
                             "no failure-counter updates, no notifications")
    return parser


def _refresh_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refresh-uids",
        description="Refresh the account-to-UID mapping from the identity registry.",
    )
    _add_common_flags(parser)
    return parser


def _load(config_path: str, verbosity: int) -> GlobalConfig:
    observability.setup_logging(verbosity)
    config = load_config(config_path)
    # Re-attach logging now that the state dir (and its log file) is known.
    observability.setup_logging(verbosity, state_dir=config.state_dir)
    return config


@contextlib.contextmanager
def _cancel_on_signals(cancel: threading.Event) -> Iterator[None]:
    """Set ``cancel`` on SIGINT or SIGTERM until the block exits, then put the
    previous handlers back."""
    previous = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, lambda *_: cancel.set())
    except ValueError:
        # Not the main thread (e.g. embedded in a test runner): the cancel
        # event still works, it just has no signal wiring.
        pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


def format_report(report: RunReport, dry_run: bool = False) -> str:
    """One-screen human summary of a run."""
    failed_services = sorted(
        name for name, results in report.per_service.items()
        if any(not r.success for r in results))
    label = " (dry run)" if dry_run else ""
    lines = [
        f"run {report.run_id}{label}: {len(report.per_service)} service(s), "
        f"{len(failed_services)} with failures"
    ]
    for name in sorted(report.per_service):
        parts = []
        for result in report.per_service[name]:
            if result.success:
                parts.append(f"{result.stage} ok")
            else:
                tail = f" ({result.detail})" if result.detail else ""
                parts.append(f"{result.stage} FAILED{tail}")
        lines.append(f"  {name}: " + ", ".join(parts))
    failed_pushes = sorted(
        (o for o in report.push_outcomes if not o.success),
        key=lambda o: (o.service, o.node))
    if failed_pushes:
        lines.append("failed pushes:")
        for outcome in failed_pushes:
            lines.append(f"  {outcome.service} @ {outcome.node}: "
                         f"{outcome.error} (after {outcome.attempts} attempt(s))")
    if not dry_run:
        lines.append(f"notifications sent: {report.notifications_sent}")
    return "\n".join(lines)


def _main(parser: argparse.ArgumentParser, argv: Optional[Sequence[str]],
          run: Callable[[argparse.Namespace, GlobalConfig, AdapterBundle], int]) -> int:
    """Parse, load the config, build the adapters, then ``run`` and close the
    adapters; every setup failure, a fault-schedule file's and the state
    store's included, exits 2."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _exit_code(exc)
    try:
        config = _load(args.config, args.verbose)
        deps = adapters.build_bundle(config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    try:
        return run(args, config, deps)
    except FatalSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    finally:
        deps.close()


def _token_push(args: argparse.Namespace, config: GlobalConfig,
                deps: AdapterBundle) -> int:
    cancel = threading.Event()
    with _cancel_on_signals(cancel):
        report = orchestrator.run_token_push(config, deps, selection=args.service or None,
                                             dry_run=args.dry_run, cancel=cancel)
    print(format_report(report, dry_run=args.dry_run))
    return EXIT_OK if report.ok else EXIT_PARTIAL


def _refresh_uids(args: argparse.Namespace, config: GlobalConfig,
                  deps: AdapterBundle) -> int:
    report = orchestrator.run_uid_refresh(config, deps)
    print(f"uid refresh: {report.ok} account(s) updated, {report.failed} failed")
    for account in sorted(report.errors):
        print(f"error: account {account}: {report.errors[account]}", file=sys.stderr)
    return EXIT_OK if report.failed == 0 else EXIT_PARTIAL


def main_token_push(argv: Optional[Sequence[str]] = None) -> int:
    return _main(_token_push_parser(), argv, _token_push)


def main_refresh_uids(argv: Optional[Sequence[str]] = None) -> int:
    return _main(_refresh_parser(), argv, _refresh_uids)


if __name__ == "__main__":
    sys.exit(main_token_push())
