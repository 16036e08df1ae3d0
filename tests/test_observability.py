"""Metric rendering/pushing, span records, and logging setup."""

from __future__ import annotations

import collections
import logging
import logging.handlers
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from managed_tokens import simkit
from managed_tokens.distribution import PushOutcome
from managed_tokens.observability import (
    MetricSample,
    counter,
    export_spans,
    gauge,
    load_spans,
    new_span_id,
    new_trace_id,
    push_metrics,
    record_span,
    render_exposition,
    report_to_metrics,
    setup_logging,
)
from managed_tokens.orchestrator import RunReport, StageResult

import exposition_parser


def result(service, stage, success=True, started=0.0, ended=1.0):
    return StageResult(service=service, stage=stage, success=success,
                       started=started, ended=ended,
                       detail="" if success else "boom")


def make_report(per_service, push_outcomes=(), started=100.0, ended=200.0):
    return RunReport(run_id="r1", started=started, ended=ended,
                     per_service=per_service, push_outcomes=tuple(push_outcomes))


class TestReportToMetrics:
    def test_success_report(self):
        report = make_report(
            {
                "a_svc": [result("a_svc", "ticket", started=0, ended=2),
                          result("a_svc", "vault_store", started=2, ended=5),
                          result("a_svc", "push", started=5, ended=6)],
                "b_svc": [result("b_svc", "ticket"),
                          result("b_svc", "vault_store"),
                          result("b_svc", "push")],
            },
            push_outcomes=[PushOutcome("a_svc", "n1", True, 1),
                           PushOutcome("b_svc", "n1", True, 1)],
        )
        samples = report_to_metrics(report)
        text = render_exposition(samples)
        parsed = exposition_parser.parse(text)

        ts = exposition_parser.find(parsed, "managed_tokens_last_run_timestamp_seconds")
        assert ts.value == 200.0 and ts.kind == "gauge"
        for svc in ("a_svc", "b_svc"):
            for stage in ("ticket", "vault_store", "push"):
                ok = exposition_parser.find(
                    parsed, "managed_tokens_stage_success_total",
                    service=svc, stage=stage)
                bad = exposition_parser.find(
                    parsed, "managed_tokens_stage_failure_total",
                    service=svc, stage=stage)
                assert (ok.value, bad.value) == (1.0, 0.0)
                assert ok.kind == "counter"
        duration = exposition_parser.find(
            parsed, "managed_tokens_stage_duration_seconds",
            service="a_svc", stage="vault_store")
        assert duration.value == 3.0 and duration.kind == "gauge"
        pushes = exposition_parser.find(
            parsed, "managed_tokens_push_failures_total", service="a_svc", node="n1")
        assert pushes.value == 0.0

    def test_failures_counted(self):
        report = make_report(
            {"a_svc": [result("a_svc", "ticket", success=False)]},
            push_outcomes=[PushOutcome("a_svc", "nX", False, 3, error="down"),
                           PushOutcome("a_svc", "nY", True, 1)],
        )
        parsed = exposition_parser.parse(render_exposition(
            report_to_metrics(report)))
        assert exposition_parser.find(
            parsed, "managed_tokens_stage_failure_total",
            service="a_svc", stage="ticket").value == 1.0
        assert exposition_parser.find(
            parsed, "managed_tokens_stage_success_total",
            service="a_svc", stage="ticket").value == 0.0
        assert exposition_parser.find(
            parsed, "managed_tokens_push_failures_total",
            service="a_svc", node="nX").value == 1.0
        assert exposition_parser.find(
            parsed, "managed_tokens_push_failures_total",
            service="a_svc", node="nY").value == 0.0

    def test_every_metric_name_carries_the_prefix(self):
        report = make_report({"a": [result("a", "ticket")]},
                             push_outcomes=[PushOutcome("a", "n", True, 1)])
        for sample in report_to_metrics(report):
            assert sample.name.startswith("managed_tokens_")


class TestRenderExposition:
    def test_minimal(self):
        text = render_exposition([gauge("g", {}, 1.5)])
        assert text == "# TYPE g gauge\ng 1.5\n"

    def test_integral_values_render_without_decimal_point(self):
        text = render_exposition([counter("c", {}, 5.0)])
        assert "c 5\n" in text

    def test_empty_input(self):
        assert render_exposition([]) == ""

    def test_one_type_line_for_many_samples(self):
        text = render_exposition([
            counter("c", {"s": "b"}, 1),
            counter("c", {"s": "a"}, 2),
        ])
        assert text.count("# TYPE c counter") == 1
        assert text.index('s="a"') < text.index('s="b"')

    def test_label_escaping_round_trips(self):
        nasty = 'back\\slash "quote"\nnewline'
        text = render_exposition([gauge("g", {"msg": nasty}, 1)])
        assert "\n" in text and "\\n" in text
        (sample,) = exposition_parser.parse(text)
        assert dict(sample.labels)["msg"] == nasty

    def test_deterministic_under_input_shuffle(self):
        samples = [counter("c", {"service": f"s{i}", "stage": st_}, i)
                   for i in range(5) for st_ in ("ticket", "push")]
        samples += [gauge("g", {}, 7)]
        reference = render_exposition(samples)
        rng = random.Random(3)
        for _ in range(10):
            shuffled = list(samples)
            rng.shuffle(shuffled)
            assert render_exposition(shuffled) == reference

    label_values = st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)

    @given(samples=st.lists(
        st.tuples(
            st.sampled_from(["alpha_total", "beta_total", "gamma_seconds"]),
            st.dictionaries(st.sampled_from(["service", "node", "stage"]),
                            label_values, max_size=3),
            st.one_of(
                st.integers(min_value=-10**12, max_value=10**12).map(float),
                st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12),
            ),
        ),
        max_size=12,
    ))
    def test_parse_back_property(self, samples):
        kind_of = {"alpha_total": "counter", "beta_total": "counter",
                   "gamma_seconds": "gauge"}
        built = [MetricSample(name, kind_of[name], labels, value)
                 for name, labels, value in samples]
        parsed = exposition_parser.parse(render_exposition(built))
        expected = collections.Counter(
            (s.name, kind_of[s.name], tuple(sorted(s.labels.items())),
             float(s.value))
            for s in built)
        got = collections.Counter(
            (p.name, p.kind, p.labels, p.value) for p in parsed)
        assert got == expected


class TestPushMetrics:
    def test_successful_put(self):
        gw = simkit.RecordingGateway()
        ok = push_metrics("# TYPE g gauge\ng 1\n", "http://gw.example.org:9091",
                          "managed_tokens", gw)
        assert ok
        ((method, path, body),) = gw.requests
        assert method == "PUT"
        assert path == "/metrics/job/managed_tokens"
        assert body == "# TYPE g gauge\ng 1\n"

    def test_trailing_slash_and_job_quoting(self):
        gw = simkit.RecordingGateway()
        push_metrics("x 1\n", "http://gw.example.org/", "a job", gw)
        assert gw.requests[0][1] == "/metrics/job/a%20job"

    def test_server_error_is_nonfatal(self):
        gw = simkit.RecordingGateway(status=500)
        assert push_metrics("x 1\n", "http://gw.example.org", "j", gw) is False

    def test_unreachable_gateway_is_nonfatal(self):
        gw = simkit.RecordingGateway(unreachable=True)
        assert push_metrics("x 1\n", "http://gw.example.org", "j", gw) is False
        assert gw.requests == []


class TestSpans:
    def test_root_and_child(self):
        root = record_span("run", None, 0.0, 10.0)
        child = record_span("svc/ticket", root, 1.0, 2.0, status="error",
                            attributes={"service": "svc"})
        assert root.parent_id is None
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        assert child.attributes == {"service": "svc"}

    def test_id_shapes(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        assert new_trace_id() != new_trace_id()

    def test_file_export_round_trip(self, tmp_path):
        root = record_span("run", None, 0.0, 10.0)
        children = [record_span(f"s{i}", root, float(i), float(i + 1))
                    for i in range(3)]
        path = tmp_path / "deep" / "spans.jsonl"
        assert export_spans([root, *children], str(path))
        loaded = load_spans(str(path))
        assert loaded == [root, *children]

    def test_file_export_appends(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        a = record_span("a", None, 0.0, 1.0)
        b = record_span("b", None, 0.0, 1.0)
        export_spans([a], str(path))
        export_spans([b], str(path))
        assert [s.name for s in load_spans(str(path))] == ["a", "b"]

    def test_http_export(self):
        gw = simkit.RecordingGateway()
        spans = [record_span("run", None, 0.0, 1.0)]
        assert export_spans(spans, "http://collector.example.org/v1/spans",
                            http=gw)
        ((method, path, body),) = gw.requests
        assert method == "POST"
        assert path == "/v1/spans"
        assert '"spans"' in body and '"run"' in body

    def test_http_export_without_adapter_fails_softly(self):
        assert export_spans([record_span("r", None, 0, 1)],
                            "http://collector.example.org") is False

    def test_http_export_unreachable_is_nonfatal(self):
        gw = simkit.RecordingGateway(unreachable=True)
        assert export_spans([record_span("r", None, 0, 1)],
                            "http://collector.example.org", http=gw) is False

    def test_unwritable_path_is_nonfatal(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        dest = blocker / "spans.jsonl"
        assert export_spans([record_span("r", None, 0, 1)], str(dest)) is False


class TestSetupLogging:
    @pytest.fixture(autouse=True)
    def _restore_root_logger(self):
        root = logging.getLogger()
        saved_handlers = list(root.handlers)
        saved_level = root.level
        yield
        for handler in list(root.handlers):
            root.removeHandler(handler)
            if handler not in saved_handlers:
                handler.close()
        for handler in saved_handlers:
            root.addHandler(handler)
        root.setLevel(saved_level)

    def test_file_handler_under_state_dir(self, tmp_path):
        setup_logging(verbosity=1, state_dir=str(tmp_path))
        logging.getLogger("managed_tokens.test").info("hello from the suite")
        log_file = tmp_path / "log" / "managed-tokens.log"
        assert log_file.is_file()
        text = log_file.read_text()
        assert "hello from the suite" in text
        assert "level=INFO" in text

    def test_reconfiguring_closes_the_replaced_log_file(self, tmp_path):
        setup_logging(verbosity=1, state_dir=str(tmp_path))
        first = next(h for h in logging.getLogger().handlers
                     if isinstance(h, logging.handlers.RotatingFileHandler))
        stream = first.stream
        setup_logging(verbosity=1, state_dir=str(tmp_path))
        assert first not in logging.getLogger().handlers
        assert stream.closed

    def test_verbosity_controls_stderr_level(self):
        setup_logging(verbosity=0)
        root = logging.getLogger()
        stderr_levels = [h.level for h in root.handlers]
        assert logging.WARNING in stderr_levels
        setup_logging(verbosity=2)
        assert logging.DEBUG in [h.level for h in logging.getLogger().handlers]
