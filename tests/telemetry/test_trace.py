"""Tests for hierarchical span tracing (repro.telemetry.trace)."""

import json

import pytest

from repro.telemetry.core import TELEMETRY_ENV
from repro.telemetry.sink import EVENTS_ENV, EventSink, QUIET_ENV, span_line
from repro.telemetry.trace import (
    SPAN_LIMIT_ENV,
    TRACE_ENV,
    Tracer,
    chrome_trace_events,
    load_events,
    make_tracer,
    tracing_enabled,
    validate_chrome_trace,
)


class RecordingSink:
    """In-memory stand-in for EventSink (same emit interface)."""

    path = "<memory>"

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class TestGating:
    def test_off_without_telemetry(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, "0")
        monkeypatch.setenv(TRACE_ENV, "1")
        assert not tracing_enabled()
        assert make_tracer() is None

    def test_off_without_trace_env(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert not tracing_enabled()

    def test_none_without_events_path(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.delenv(EVENTS_ENV, raising=False)
        # Tracing is requested but has nowhere to write: the hot paths
        # must keep their tracer-free branch.
        assert tracing_enabled()
        assert make_tracer() is None

    def test_tracer_with_events_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.setenv(QUIET_ENV, "1")
        monkeypatch.setenv(EVENTS_ENV, str(tmp_path / "events.jsonl"))
        assert make_tracer() is not None


class TestSpans:
    def test_spans_nest_and_emit_on_close(self):
        sink = RecordingSink()
        tracer = Tracer(sink)
        with tracer.span("trial", cat="trial", n=64) as outer:
            with tracer.span("sample", cat="stage") as inner:
                pass
        assert [event["name"] for event in sink.events] == ["sample", "trial"]
        sample, trial = sink.events
        assert sample["parent"] == trial["span_id"]
        assert trial["parent"] is None
        assert trial["n"] == 64
        assert trial["dur"] >= sample["dur"] >= 0.0
        assert inner.span_id != outer.span_id

    def test_nesting_spans_multiple_tracers(self):
        # The orchestration layer and the engines hold separate Tracer
        # instances; the open-span stack is process-global so their
        # spans still form one hierarchy.
        sink = RecordingSink()
        orchestration, engine = Tracer(sink), Tracer(sink)
        with orchestration.span("campaign", cat="campaign") as campaign:
            with engine.span("trial", cat="trial") as trial:
                pass
        assert trial.parent == campaign.span_id

    def test_span_ids_never_repeat(self):
        sink = RecordingSink()
        ids = set()
        for _ in range(3):
            # Fresh tracers model a killed-and-resumed campaign within
            # one process: the id counter is process-global, so ids in
            # an appended-to event file never collide.
            tracer = Tracer(sink)
            with tracer.span("trial", cat="trial"):
                pass
            ids.add(sink.events[-1]["span_id"])
        assert len(ids) == 3

    def test_stage_spans_capped_and_drops_reported(self):
        sink = RecordingSink()
        tracer = Tracer(sink, limit=2)
        for _ in range(5):
            with tracer.span("sample", cat="stage"):
                pass
        assert tracer.emitted == 2
        assert tracer.dropped == 3
        with tracer.span("trial", cat="trial"):
            pass
        trial = sink.events[-1]
        assert trial["name"] == "trial"
        assert trial["dropped_stage_spans"] == 3

    def test_trial_spans_exempt_from_cap(self):
        sink = RecordingSink()
        tracer = Tracer(sink, limit=0)
        with tracer.span("trial", cat="trial"):
            pass
        assert [event["name"] for event in sink.events] == ["trial"]

    def test_span_limit_env_override(self, monkeypatch):
        from repro.telemetry.trace import DEFAULT_SPAN_LIMIT

        monkeypatch.setenv(SPAN_LIMIT_ENV, "7")
        assert Tracer(RecordingSink()).limit == 7
        monkeypatch.setenv(SPAN_LIMIT_ENV, "not-a-number")
        assert Tracer(RecordingSink()).limit == DEFAULT_SPAN_LIMIT


class TestChromeExport:
    def test_spans_become_complete_events(self):
        sink = RecordingSink()
        tracer = Tracer(sink)
        with tracer.span("trial", cat="trial", protocol="pll", n=64):
            pass
        (chrome,) = chrome_trace_events(sink.events)
        assert chrome["ph"] == "X"
        assert chrome["name"] == "trial"
        assert chrome["dur"] >= 1  # microseconds, floored at 1
        assert chrome["args"]["protocol"] == "pll"
        assert chrome["args"]["n"] == 64

    def test_heartbeats_become_counters(self):
        events = [
            {"event": "heartbeat", "ts": 12.5, "steps_per_sec": 1e6, "pid": 9},
            {"event": "profile", "stages": {}},  # no timeline shape
        ]
        (counter,) = chrome_trace_events(events)
        assert counter["ph"] == "C"
        assert counter["ts"] == 12_500_000
        assert counter["args"]["steps_per_sec"] == 1e6

    def test_validate_accepts_export(self):
        sink = RecordingSink()
        tracer = Tracer(sink)
        with tracer.span("trial", cat="trial"):
            pass
        payload = {"traceEvents": chrome_trace_events(sink.events)}
        assert validate_chrome_trace(payload) == []

    def test_validate_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": []}) != []
        broken = {"traceEvents": [{"ph": "X", "name": "x", "ts": 1}]}
        errors = validate_chrome_trace(broken)
        assert any("dur" in error for error in errors)


class TestEventFileRoundTrip:
    def test_load_events_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"event": "span", "name": "a"}\n'
            "\n"
            "{torn line\n"
            '["not", "an", "object"]\n'
            '{"event": "heartbeat"}\n'
        )
        events = load_events(str(path))
        assert [event["event"] for event in events] == ["span", "heartbeat"]

    def test_sink_to_chrome_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = EventSink(str(path), echo=False)
        tracer = Tracer(sink)
        with tracer.span("trial", cat="trial", n=32):
            with tracer.span("sample", cat="stage"):
                pass
        sink.close()
        events = load_events(str(path))
        assert all(event["event"] == "span" for event in events)
        payload = {"traceEvents": chrome_trace_events(events)}
        assert validate_chrome_trace(payload) == []
        # The export is plain JSON-serializable.
        json.dumps(payload)


    @pytest.mark.parametrize("parent", [None, "12-3", "\u00e9-1"])
    @pytest.mark.parametrize("name", ["sample", "kernel_fill", 'odd "na\u00efve"'])
    @pytest.mark.parametrize("dur", [0.0, 1e-09, 0.000123456789, 12.5])
    def test_direct_span_lines_match_the_generic_encoding(
        self, parent, name, dur
    ):
        """The sink's dict-free span writer emits the exact line the
        generic event encoding would."""
        ts = 1760000000.123456
        event = {
            "event": "span",
            "name": name,
            "cat": "stage",
            "span_id": "99-7",
            "parent": parent,
            "pid": 99,
            "ts": ts,
            "dur": dur,
        }
        line = span_line(name, "stage", "99-7", parent, 99, ts, dur)
        assert line == json.dumps(event, sort_keys=True, separators=(",", ":"))


class TestTracedRunByteIdentity:
    def test_traced_superbatch_trial_exports_valid_chrome_trace(
        self, monkeypatch, tmp_path
    ):
        # The acceptance path end-to-end in-process: trace a superbatch
        # PLL trial, export, validate.
        from repro.orchestration.pool import execute_trial
        from repro.orchestration.spec import TrialSpec

        path = tmp_path / "events.jsonl"
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.setenv(QUIET_ENV, "1")
        monkeypatch.setenv(EVENTS_ENV, str(path))
        spec = TrialSpec.create("pll", 256, 0, engine="superbatch")
        outcome = execute_trial(spec)
        assert outcome.steps > 0
        events = load_events(str(path))
        spans = [event for event in events if event["event"] == "span"]
        names = {span["name"] for span in spans}
        assert "trial" in names
        assert {"sample", "apply", "detect"} <= names  # engine stages
        (trial_span,) = [span for span in spans if span["name"] == "trial"]
        # Every stage span's ancestor chain reaches the trial span
        # (kernel_fill spans legitimately nest inside apply/commit).
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            if span["cat"] != "stage":
                continue
            while span["parent"] is not None:
                span = by_id[span["parent"]]
            assert span["span_id"] == trial_span["span_id"]
        payload = {"traceEvents": chrome_trace_events(events)}
        assert validate_chrome_trace(payload) == []
