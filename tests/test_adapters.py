"""The production adapters, run against loopback stand-ins: local processes,
an HTTP server and an SMTP responder on 127.0.0.1. Nothing leaves the machine."""

from __future__ import annotations

import contextlib
import dataclasses
import email
import email.policy
import http.server
import os
import re
import shlex
import socket
import socketserver
import sys
import textwrap
import threading
import time

import pytest
import yaml

from managed_tokens import simkit
from managed_tokens.adapters import (
    CommandTransferAdapter,
    RealCommandRunner,
    RequestsHttpAdapter,
    SmtpNotificationSink,
    build_bundle,
)
from managed_tokens.cli import EXIT_PARTIAL, main_token_push
from managed_tokens.interfaces import (
    CommandTimeout,
    TransferError,
    TransportError,
    TransportTimeout,
)
from managed_tokens.orchestrator import run_token_push

from conftest import Site, make_bundle


@contextlib.contextmanager
def serving(server: socketserver.BaseServer):
    """Serve on a background thread for the block; then stop, close, join."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def python(script: str) -> list[str]:
    return [sys.executable, "-c", textwrap.dedent(script)]


class TestRealCommandRunner:
    def test_exit_code_and_output_pass_through(self):
        inv = RealCommandRunner().run(python("""
            import sys
            print("to stdout")
            print("to stderr", file=sys.stderr)
            sys.exit(3)
        """))
        assert (inv.exit_code, inv.stdout, inv.stderr) == (3, "to stdout\n", "to stderr\n")

    def test_output_that_is_not_text_does_not_fail_the_command(self):
        inv = RealCommandRunner().run(["sh", "-c", r"printf 'caf\351' >&2; exit 0"])
        assert (inv.exit_code, inv.stderr) == (0, "caf\ufffd")

    def test_env_overrides_merge_over_the_parents(self, monkeypatch):
        monkeypatch.setenv("MT_FROM_PARENT", "parent")
        monkeypatch.setenv("MT_OVERRIDDEN", "parent")
        inv = RealCommandRunner().run(
            python("""
                import os
                print(os.environ["MT_FROM_PARENT"], os.environ["MT_OVERRIDDEN"],
                      os.environ["MT_ADDED"])
            """),
            env_overrides={"MT_OVERRIDDEN": "child", "MT_ADDED": "added"})
        assert inv.stdout == "parent child added\n"

    def test_timeout_raises_command_timeout(self):
        argv = python("import time; time.sleep(30)")
        with pytest.raises(CommandTimeout) as caught:
            RealCommandRunner().run(argv, timeout=0.2)
        assert caught.value.argv == tuple(argv)
        assert caught.value.timeout == 0.2

    def test_timeout_kills_the_commands_process_group(self, tmp_path):
        marker, pid = tmp_path / "marker", tmp_path / "pid"
        script = (f"echo $$ > {shlex.quote(str(pid))}; "
                  f"(sleep 1.5; touch {shlex.quote(str(marker))}) & sleep 5")
        with pytest.raises(CommandTimeout):
            RealCommandRunner().run(["sh", "-c", script], timeout=0.5)
        time.sleep(2)  # past the background child's delay
        assert not marker.exists()
        for _ in range(100):  # init reaps the killed orphans, not always at once
            try:
                os.killpg(int(pid.read_text()), 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("the command's process group outlived its timeout")

    def test_missing_binary_exits_127(self, tmp_path):
        missing = str(tmp_path / "no-such-command")
        inv = RealCommandRunner().run([missing, "--help"])
        assert inv.exit_code == 127
        assert inv.stdout == ""
        assert missing in inv.stderr


# Copies {local} to {remote}; "refused.example.org" fails with exit 1 and
# "slow.example.org" hangs, so one script covers each outcome.
COPY_SCRIPT = """
import shutil, sys, time
local, node, remote = sys.argv[1:]
if node == "refused.example.org":
    sys.exit("permission denied on " + remote)
if node == "slow.example.org":
    time.sleep(30)
shutil.copyfile(local, remote)
"""


class TestCommandTransferAdapter:
    @pytest.fixture
    def adapter(self, tmp_path):
        script = tmp_path / "copy.py"
        script.write_text(COPY_SCRIPT)
        template = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} " \
                   "{local} {node} {remote}"
        return CommandTransferAdapter(template, RealCommandRunner())

    @pytest.fixture
    def token(self, tmp_path):
        path = tmp_path / "vaulttoken"
        path.write_text("hvs.token\n")
        return str(path)

    def test_successful_copy(self, adapter, token, tmp_path):
        remote = tmp_path / "vt_u5000"
        adapter.put(token, "submit1.example.org", str(remote), timeout=30)
        assert remote.read_text() == "hvs.token\n"

    def test_nonzero_exit_names_destination_code_and_stderr(self, adapter, token, tmp_path):
        remote = str(tmp_path / "vt_u5000")
        with pytest.raises(TransferError) as caught:
            adapter.put(token, "refused.example.org", remote, timeout=30)
        assert str(caught.value) == (f"copy to refused.example.org:{remote} failed "
                                     f"(exit 1): permission denied on {remote}")

    def test_timeout_raises_transfer_error(self, adapter, token, tmp_path):
        remote = str(tmp_path / "vt_u5000")
        with pytest.raises(TransferError) as caught:
            adapter.put(token, "slow.example.org", remote, timeout=0.2)
        assert str(caught.value) == f"copy to slow.example.org:{remote} timed out after 0.2s"


class _HttpHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        if self.path == "/slow":
            self.server.release.wait(10)  # answer nothing until the test ends
            return
        body = b"no such user"
        self.send_response(404)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def direct_loopback(monkeypatch):
    """Talk to 127.0.0.1 directly, whatever proxy the environment names."""
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY",
                 "http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")


class TestRequestsHttpAdapter:
    @pytest.fixture
    def adapter(self, direct_loopback):
        adapter = RequestsHttpAdapter()
        yield adapter
        adapter.close()

    @pytest.fixture
    def base_url(self):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _HttpHandler)
        server.release = threading.Event()
        with serving(server):
            yield f"http://127.0.0.1:{server.server_address[1]}"
            server.release.set()

    def test_error_status_and_body_are_returned(self, adapter, base_url):
        assert adapter.request("GET", base_url + "/getUserInfo", timeout=10) == (
            404, "no such user")

    def test_closed_port_raises_transport_error(self, adapter):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(TransportError) as caught:
            adapter.request("GET", f"http://127.0.0.1:{port}/", timeout=10)
        assert not isinstance(caught.value, TransportTimeout)

    def test_slow_server_raises_transport_timeout(self, adapter, base_url):
        with pytest.raises(TransportTimeout):
            adapter.request("GET", base_url + "/slow", timeout=0.2)


class _SmtpHandler(socketserver.StreamRequestHandler):
    """Just enough SMTP for one smtplib session: every command succeeds."""

    def reply(self, line: str) -> None:
        self.wfile.write(line.encode() + b"\r\n")

    def handle(self):
        self.reply("220 localhost ESMTP")
        while line := self.rfile.readline():
            verb = line[:4].decode().upper()  # every SMTP verb has four letters
            if verb == "DATA":
                self.reply("354 end with <CRLF>.<CRLF>")
                lines = []
                while (data := self.rfile.readline()) != b".\r\n":
                    lines.append(data[1:] if data.startswith(b"..") else data)
                self.server.messages.append(b"".join(lines).replace(b"\r\n", b"\n"))
            elif verb in ("MAIL", "RCPT"):
                self.server.envelope.append((verb, line.decode().split(":", 1)[1].strip()))
            elif verb == "QUIT":
                self.reply("221 bye")
                return
            self.reply("250 ok")


class TestSmtpNotificationSink:
    def test_message_headers_and_body(self):
        server = socketserver.TCPServer(("127.0.0.1", 0), _SmtpHandler)
        server.messages, server.envelope = [], []
        with serving(server):
            sink = SmtpNotificationSink("127.0.0.1", server.server_address[1],
                                        "managed-tokens@example.org", timeout=10)
            sink.send(["ops@example.org", "dune@example.org"], "3 nodes failing",
                      "submit1 failed 3 runs in a row\n.hidden line\n")
        assert server.envelope == [("MAIL", "<managed-tokens@example.org>"),
                                   ("RCPT", "<ops@example.org>"),
                                   ("RCPT", "<dune@example.org>")]
        (raw,) = server.messages
        message = email.message_from_bytes(raw, policy=email.policy.default)
        assert message["From"] == "managed-tokens@example.org"
        assert message["To"] == "ops@example.org, dune@example.org"
        assert message["Subject"] == "3 nodes failing"
        assert message.get_content() == "submit1 failed 3 runs in a row\n.hidden line\n"


def test_real_bundle_is_wired_from_the_config(site, monkeypatch):
    site.add_service("dune_production")
    cfg = site.config(
        adapter_mode="real",
        commands={"transfer": "scp {local} {node}:{remote}"},
        registry={"base_url": "https://registry.example.org", "ca_bundle": "/etc/ca.pem"},
        notification={"smtp_server": "mail.example.org", "smtp_port": 2525,
                      "from_address": "tokens@example.org"})
    closed = []
    close = RequestsHttpAdapter.close
    monkeypatch.setattr(RequestsHttpAdapter, "close",
                        lambda adapter: (closed.append(adapter), close(adapter)))
    bundle = build_bundle(cfg)
    bundle.close()
    assert bundle.transfer.template == "scp {local} {node}:{remote}"
    assert bundle.transfer.runner is bundle.runner
    assert bundle.http.ca_bundle == "/etc/ca.pem"
    # Telemetry is not verified against the registry's CA.
    assert isinstance(bundle.metrics_http, RequestsHttpAdapter)
    assert bundle.metrics_http is not bundle.http
    assert bundle.metrics_http.ca_bundle is None
    assert closed == [bundle.http, bundle.metrics_http]
    assert (bundle.sink.server, bundle.sink.port, bundle.sink.from_address) == (
        "mail.example.org", 2525, "tokens@example.org")


# The first call hangs, and its one background child writes that call's
# service's token at the shared path after the call has timed out. Every
# other call writes its own service's token at once and exits 0.4 s later.
HANGING_STORER = """\
#!/bin/sh
if mkdir {first} 2>/dev/null; then
    echo "$1" > {first}/service
    (sleep 0.8; echo "hvs.TOKEN-OF-$1" > "$MANAGED_TOKENS_DEFAULT_TOKEN_PATH") &
    sleep 3
fi
echo "hvs.TOKEN-OF-$1" > "$MANAGED_TOKENS_DEFAULT_TOKEN_PATH"
sleep 0.4
"""


def test_hung_storer_cannot_ship_its_token_for_another_service(site, tmp_path):
    """Two services on one account share the storer's token path. A timed-out
    storer call leaves nothing behind that writes there while the other
    service's storer runs."""
    site.add_service("dune_production", account="sharedprod", nodes=("prod.example.org",))
    site.add_service("dune_analysis", account="sharedprod", role="analysis",
                     nodes=("analysis.example.org",))
    site.seed_uids(site.uid_map())
    first = tmp_path / "first"
    storer = tmp_path / "bin" / "condor_vault_storer"
    storer.parent.mkdir()
    storer.write_text(HANGING_STORER.format(first=shlex.quote(str(first))))
    storer.chmod(0o755)
    cfg = site.config(commands={"storer": f"{storer} {{service}}"},
                      timeouts={"vault_store": 0.6})
    bundle = make_bundle()
    bundle.runner.routes["condor_vault_storer"] = RealCommandRunner()

    report = run_token_push(cfg, bundle)
    hung = (first / "service").read_text().strip()
    other = ({"dune_production", "dune_analysis"} - {hung}).pop()
    assert not report.per_service[hung][-1].success
    for (node, _), content in bundle.transfer.files().items():
        assert node == cfg.services[other].nodes[0]
        assert content == f"hvs.TOKEN-OF-{other}\n".encode()


# Stand-ins for the real commands. kinit and the storer check what the
# program hands them; the copy lands at {root}/nodes/<node>/<remote> by a
# temporary file and a rename, and refuses down.example.org. None leaves a
# process behind.
STANDINS = {
    "kinit": """\
#!/bin/sh
[ "$1 $2 $4" = "-k -t -c" ] && [ -f "$3" ] && [ "$KRB5CCNAME" = "FILE:$5" ] || exit 2
echo "$6" > "$5"
""",
    "condor_vault_storer": """\
#!/bin/sh
case "$KRB5CCNAME" in FILE:*/krb5cc/"$1") ;; *) exit 3 ;; esac
[ -f "${KRB5CCNAME#FILE:}" ] && [ -n "$_condor_CREDD_HOST" ] || exit 3
echo "hvs.$1.$_condor_CREDD_HOST" > "$MANAGED_TOKENS_DEFAULT_TOKEN_PATH"
""",
    "copy": """\
#!/bin/sh
[ "$2" = down.example.org ] && { echo "ssh: connect to host $2: refused" >&2; exit 255; }
dest={root}/nodes/$2$3
mkdir -p "${dest%/*}" && cp "$1" "$dest.tmp" && mv "$dest.tmp" "$dest"
""",
}


class _GatewayHandler(http.server.BaseHTTPRequestHandler):
    """A Pushgateway that accepts every PUT and records its path."""

    def do_PUT(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append(("PUT", self.path))
        self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


def _two_services(site: Site) -> None:
    site.add_service("dune_production")
    site.add_service("mu2e_production", nodes=("submit1.example.org", "down.example.org"))
    site.seed_uids(site.uid_map())


def _run_settings(**notification) -> dict:
    return {"notification": {"admin_recipients": ["ops@example.org"], "threshold": 1,
                             **notification},
            "retry": {"max_attempts": 2, "base_backoff": "1ms"}}


def _subjects(messages) -> list[str]:
    return [re.sub(r"run \w+:", "run <id>:", subject) for subject in messages]


def test_real_mode_run_end_to_end(site, tmp_path, direct_loopback):
    """token-push in real mode: real processes, files, HTTP and SMTP."""
    _two_services(site)
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, script in STANDINS.items():
        (bin_dir / name).write_text(script.replace("{root}", shlex.quote(str(tmp_path))))
        (bin_dir / name).chmod(0o755)
    gateway = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _GatewayHandler)
    gateway.requests = []
    smtp = socketserver.TCPServer(("127.0.0.1", 0), _SmtpHandler)
    smtp.messages, smtp.envelope = [], []
    config = site.config_path(
        adapter_mode="real",
        commands={"ticket": f"{bin_dir}/kinit -k -t {{keytab}} -c {{cache}} {{principal}}",
                  "storer": f"{bin_dir}/condor_vault_storer {{service}}",
                  "transfer": f"{bin_dir}/copy {{local}} {{node}} {{remote}}"},
        metrics_gateway_url=f"http://127.0.0.1:{gateway.server_address[1]}",
        **_run_settings(smtp_server="127.0.0.1", smtp_port=smtp.server_address[1]))
    with serving(gateway), serving(smtp):
        assert main_token_push(["--config", config]) == EXIT_PARTIAL
    with pytest.raises(ChildProcessError):  # every command was waited for
        os.waitpid(-1, os.WNOHANG)

    landed = {str(path.relative_to(tmp_path / "nodes")): path.read_bytes()
              for path in (tmp_path / "nodes").rglob("*") if path.is_file()}
    expected = {}
    uids = site.uid_map()
    for name, account in site.accounts.items():
        uid = uids[account]
        assert not (site.tmp_dir / f"vt_u{uid}").exists()  # moved off the shared path
        token = (site.state_dir / "tokens" / name / "vaulttoken").read_bytes()
        assert token == f"hvs.{name}.credd1.example.org\n".encode()
        issuer = name.split("_")[0] + "vault"
        for node in site.services[name]["nodes"]:
            if node != "down.example.org":
                for remote in (f"vt_u{uid}", f"vt_u{uid}-{issuer}_production"):
                    expected[f"{node}{site.tmp_dir}/{remote}"] = token
    assert landed == expected  # byte-equal, and no temporary file left
    assert gateway.requests == [("PUT", "/metrics/job/managed_tokens")]

    mails = [email.message_from_bytes(raw, policy=email.policy.default)
             for raw in smtp.messages]
    assert [m["To"] for m in mails] == ["mu2e_production-admins@example.org",
                                        "ops@example.org"]
    # The rehearsal adapters, with the same node down, send the same subjects.
    twin = Site(tmp_path / "simulation")
    _two_services(twin)
    faults = twin.root / "faults.yaml"
    faults.write_text(yaml.safe_dump({"transfer:down.example.org": {
        "pattern": [{"fail": "refused"}]}}))
    twin_config = twin.config(adapter_mode="simulation",
                              simulation={"fault_schedules": str(faults)}, **_run_settings())
    bundle = dataclasses.replace(build_bundle(twin_config), sink=simkit.RecordingSink())
    run_token_push(twin_config, bundle)
    assert _subjects(m["Subject"] for m in mails) == _subjects(
        m.subject for m in bundle.sink.messages)
