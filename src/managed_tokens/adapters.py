"""Production adapters and bundle builders.

The real bundle talks to the outside world: subprocess for the ticket and
vault-storer commands, the configured copy command for pushes, requests for
HTTP, SMTP for mail. The simulation bundle wires up the in-package doubles
instead, driven by the ``simulation:`` config section, so a production config
can be rehearsed end to end on a disconnected machine.
"""

from __future__ import annotations

import logging
import os
import signal
import smtplib
import subprocess
from email.message import EmailMessage
from typing import Mapping, Optional, Sequence

import requests

from . import simkit
from .config import GlobalConfig, command_words, resolve_service
from .credentials import render_command
from .interfaces import (
    AdapterBundle,
    CommandRunner,
    CommandTimeout,
    Invocation,
    SystemClock,
    TransferError,
    TransportError,
    TransportTimeout,
)

logger = logging.getLogger(__name__)


class RealCommandRunner:
    """Runs external commands through subprocess, environment merged over the
    parent's.

    Each command leads its own process group, and a timeout kills the whole
    group, so a storer's ``htgettoken`` or a copy's ``ssh`` cannot write
    after the call has failed. A command that exits by itself keeps whatever
    it left running: an ssh ``ControlPersist`` master must outlive its copy.
    A child that calls ``setsid`` itself leaves the group and escapes the kill.
    """

    def run(
        self,
        argv: Sequence[str],
        env_overrides: Optional[Mapping[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> Invocation:
        argv = tuple(argv)
        env = dict(os.environ)
        if env_overrides:
            env.update(env_overrides)
        try:
            # A byte that is not valid text must not fail a command that succeeded.
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, errors="replace", env=env,
                                    start_new_session=True)
        except OSError as exc:
            # Missing or unrunnable binary: report as a failed invocation so
            # the caller gets argv and the reason in one place.
            return Invocation(argv, 127, "", str(exc))
        # Leaving the block closes the pipes and then reaps the child, so an
        # escaped grandchild that still holds a pipe cannot block it.
        with proc:
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                # The child is not yet reaped, so its group still exists.
                os.killpg(proc.pid, signal.SIGKILL)
                raise CommandTimeout(argv, timeout if timeout is not None else 0.0) from exc
        return Invocation(argv, proc.returncode, stdout, stderr)


class CommandTransferAdapter:
    """Copies files with the configured command (rsync over ssh by default)."""

    def __init__(self, template: str, runner: CommandRunner):
        self.template = template
        self.runner = runner

    def put(self, local_path: str, node: str, remote_path: str,
            timeout: Optional[float] = None) -> None:
        argv = render_command(self.template, {
            "local": local_path, "node": node, "remote": remote_path,
        })
        try:
            inv = self.runner.run(argv, timeout=timeout)
        except CommandTimeout as exc:
            raise TransferError(f"copy to {node}:{remote_path} timed out "
                                f"after {exc.timeout}s") from exc
        if inv.exit_code != 0:
            raise TransferError(
                f"copy to {node}:{remote_path} failed "
                f"(exit {inv.exit_code}): {inv.stderr.strip()}")


class RequestsHttpAdapter:
    """HttpAdapter over requests. TLS is verified against ``ca_bundle`` when
    given, else against requests' default trust (``REQUESTS_CA_BUNDLE``
    applies)."""

    def __init__(self, ca_bundle: Optional[str] = None):
        self.ca_bundle = ca_bundle
        self._session = requests.Session()

    def request(
        self,
        method: str,
        url: str,
        headers: Optional[Mapping[str, str]] = None,
        body: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> tuple[int, str]:
        kwargs: dict = {}
        if self.ca_bundle:
            kwargs["verify"] = self.ca_bundle
        try:
            response = self._session.request(
                method, url, headers=dict(headers or {}), data=body,
                timeout=timeout, **kwargs)
        except requests.Timeout as exc:
            raise TransportTimeout(str(exc)) from exc
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        return response.status_code, response.text

    def close(self) -> None:
        """Close the session's pooled connections."""
        self._session.close()


class SmtpNotificationSink:
    """Plain-text mail through an SMTP relay; one connection per message."""

    def __init__(self, server: str, port: int, from_address: str,
                 timeout: float = 30.0):
        self.server = server
        self.port = port
        self.from_address = from_address
        self.timeout = timeout

    def send(self, recipients: Sequence[str], subject: str, body: str) -> None:
        message = EmailMessage()
        message["From"] = self.from_address
        message["To"] = ", ".join(recipients)
        message["Subject"] = subject
        message.set_content(body)
        with smtplib.SMTP(self.server, self.port, timeout=self.timeout) as smtp:
            smtp.send_message(message)


def build_real_bundle(config: GlobalConfig) -> AdapterBundle:
    runner = RealCommandRunner()
    http = RequestsHttpAdapter(ca_bundle=config.registry.ca_bundle)
    # Telemetry goes to site services, not the registry: default trust.
    metrics_http = RequestsHttpAdapter()

    def close() -> None:
        http.close()
        metrics_http.close()

    return AdapterBundle(
        runner=runner,
        transfer=CommandTransferAdapter(config.commands.transfer, runner),
        http=http,
        sink=SmtpNotificationSink(
            config.notification.smtp_server,
            config.notification.smtp_port,
            config.notification.from_address,
        ),
        clock=SystemClock(),
        metrics_http=metrics_http,
        close=close,
    )


def _command_basename(template: str) -> str:
    return os.path.basename(command_words(template)[0])


def build_simulation_bundle(config: GlobalConfig) -> AdapterBundle:
    """Assemble the hermetic rehearsal bundle from ``config.simulation``.

    Fault-schedule targets recognized here: ``ticket`` and ``storer`` (the
    commands of every service, overrides included), ``transfer:<node>``, and
    ``registry:<account>``. Tickets and storer runs succeed by default, the
    storer writes a fake token at the designated location, pushes land in
    memory, and notifications are logged instead of mailed.
    """
    clock = SystemClock()
    schedules: dict[str, simkit.FaultSchedule] = {}
    if config.simulation.fault_schedules:
        schedules = simkit.load_fault_schedules(config.simulation.fault_schedules)

    def targets(prefix: str) -> dict[str, simkit.FaultSchedule]:
        return {target[len(prefix):]: schedule for target, schedule in schedules.items()
                if target.startswith(prefix)}

    ticket_runner = simkit.scripted_runner(
        schedules.get("ticket", simkit.always_succeed("ticket")),
        clock=clock, name="ticket")
    storer_runner = simkit.scripted_runner(
        schedules.get("storer", simkit.always_succeed("storer")),
        side_effects=simkit.write_token_from_env(), clock=clock, name="storer")
    routes: dict[str, simkit.ScriptedRunner] = {}
    uids: dict[str, int] = {}
    for name in config.services:
        svc = resolve_service(config, name)
        routes[_command_basename(svc.commands.ticket)] = ticket_runner
        routes[_command_basename(svc.commands.storer)] = storer_runner
        uids[svc.account] = config.simulation.registry_uids.get(
            svc.account, simkit.synthetic_uid(svc.account))

    return AdapterBundle(
        runner=simkit.RoutedRunner(routes),
        transfer=simkit.MemoryTransfer(faults=targets("transfer:"), clock=clock),
        http=simkit.fake_registry(
            uids,
            endpoint_template=config.registry.uid_endpoint_template,
            uid_json_path=config.registry.uid_json_path,
            faults=targets("registry:"),
            clock=clock,
        ),
        sink=simkit.LoggingSink(),
        clock=clock,
        metrics_http=simkit.RecordingGateway(),
    )


def build_bundle(config: GlobalConfig) -> AdapterBundle:
    if config.adapter_mode == "simulation":
        return build_simulation_bundle(config)
    return build_real_bundle(config)
