"""The production adapters, run against loopback stand-ins: local processes,
an HTTP server and an SMTP responder on 127.0.0.1. Nothing leaves the machine."""

from __future__ import annotations

import contextlib
import email
import email.policy
import http.server
import shlex
import socket
import socketserver
import sys
import textwrap
import threading

import pytest

from managed_tokens.adapters import (
    CommandTransferAdapter,
    RealCommandRunner,
    RequestsHttpAdapter,
    SmtpNotificationSink,
    build_bundle,
)
from managed_tokens.interfaces import (
    CommandTimeout,
    TransferError,
    TransportError,
    TransportTimeout,
)


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


class TestRequestsHttpAdapter:
    @pytest.fixture
    def adapter(self, monkeypatch):
        # Talk to 127.0.0.1 directly, whatever proxy the environment names.
        for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY",
                     "http_proxy", "https_proxy", "all_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        adapter = RequestsHttpAdapter()
        yield adapter
        adapter._session.close()

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


def test_real_bundle_is_wired_from_the_config(site):
    site.add_service("dune_production")
    cfg = site.config(
        adapter_mode="real",
        commands={"transfer": "scp {local} {node}:{remote}"},
        registry={"base_url": "https://registry.example.org", "ca_bundle": "/etc/ca.pem"},
        notification={"smtp_server": "mail.example.org", "smtp_port": 2525,
                      "from_address": "tokens@example.org"})
    bundle = build_bundle(cfg)
    bundle.http._session.close()
    assert bundle.transfer.template == "scp {local} {node}:{remote}"
    assert bundle.transfer.runner is bundle.runner
    assert bundle.http.ca_bundle == "/etc/ca.pem"
    assert (bundle.sink.server, bundle.sink.port, bundle.sink.from_address) == (
        "mail.example.org", 2525, "tokens@example.org")
