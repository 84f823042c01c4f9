"""Unit tests for the tracing core (spans, sinks, worker adoption)."""

import json

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    load_trace,
    resilience_to_span,
    retry_to_span,
)


class TestSpanBasics:
    def test_nesting_assigns_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        names = [r["name"] for r in tracer.records]
        assert names == ["inner", "outer"]  # finish order

    def test_attrs_and_events(self):
        tracer = Tracer()
        with tracer.span("work", items=3) as span:
            span.set(done=True)
            span.event("milestone", step=1)
        record = tracer.records[0]
        assert record["attrs"] == {"items": 3, "done": True}
        assert record["events"][0]["name"] == "milestone"
        assert record["events"][0]["attrs"] == {"step": 1}
        assert record["events"][0]["at"] >= 0.0

    def test_timings_populate_on_finish(self):
        tracer = Tracer()
        with tracer.span("timed"):
            pass
        record = tracer.records[0]
        assert record["wall"] >= 0.0
        assert record["cpu"] >= 0.0
        assert record["status"] == "ok"
        assert record["error"] is None

    def test_exception_sets_error_status_and_still_closes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("kaboom")
        assert len(tracer.records) == 1
        record = tracer.records[0]
        assert record["status"] == "error"
        assert "RuntimeError" in record["error"]
        assert "kaboom" in record["error"]
        assert tracer.current is None  # popped off the stack

    def test_out_of_order_finish(self):
        tracer = Tracer()
        first = tracer.span("first")
        second = tracer.span("second")
        first.finish()   # out of order: parent closes before child
        second.finish()
        names = [r["name"] for r in tracer.records]
        assert names == ["first", "second"]
        assert tracer.current is None

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.span("once")
        span.finish()
        span.finish()
        assert len(tracer.records) == 1

    def test_close_finishes_open_spans_innermost_first(self):
        tracer = Tracer()
        tracer.span("outer")
        tracer.span("inner")
        tracer.close()
        names = [r["name"] for r in tracer.records]
        assert names == ["inner", "outer"]

    def test_span_ids_unique_across_tracers(self):
        ids = set()
        for _ in range(5):
            tracer = Tracer()
            with tracer.span("x"):
                pass
            ids.add(tracer.records[0]["id"])
        assert len(ids) == 5


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", k=1) as span:
            span.set(more=2)
            span.event("nothing")
            span.fail(ValueError("ignored"))
        assert NULL_TRACER.export() == []
        NULL_TRACER.adopt([{"id": "x"}])
        NULL_TRACER.close()
        assert list(NULL_TRACER.records) == []

    def test_null_span_is_shared(self):
        a = NULL_TRACER.span("a")
        b = NullTracer().span("b")
        assert a is b


class TestSink:
    def test_jsonl_sink_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path=path)
        with tracer.span("outer"):
            with tracer.span("inner", n=1):
                pass
        tracer.close()
        records = load_trace(path)
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records == tracer.export()

    def test_load_trace_tolerates_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"id": "a", "parent": null, "name": "x"}\n\n\n',
                        encoding="utf-8")
        assert len(load_trace(str(path))) == 1

    def test_load_trace_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"id": "a"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="2"):
            load_trace(str(path))

    def test_load_trace_rejects_non_object_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not an object"):
            load_trace(str(path))

    def test_sink_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path=str(path))
        with tracer.span("s"):
            pass
        tracer.close()
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line)


class TestAdoption:
    def _worker_records(self):
        worker = Tracer()
        with worker.span("snapshot"):
            with worker.span("snapshot.build"):
                pass
        worker.close()
        return worker.export()

    def test_adopt_reparents_worker_roots(self):
        coordinator = Tracer()
        with coordinator.span("timeline") as span:
            coordinator.adopt(self._worker_records(),
                              parent_id=span.span_id)
        by_name = {r["name"]: r for r in coordinator.records}
        timeline = by_name["timeline"]
        assert by_name["snapshot"]["parent"] == timeline["id"]
        # Child keeps its worker-side parent (the snapshot span).
        assert by_name["snapshot.build"]["parent"] == \
            by_name["snapshot"]["id"]

    def test_adopt_defaults_to_current_span(self):
        coordinator = Tracer()
        with coordinator.span("stage") as span:
            coordinator.adopt(self._worker_records())
        roots = [r for r in coordinator.records if r["parent"] is None]
        assert [r["name"] for r in roots] == ["stage"]
        assert any(r["parent"] == span.span_id
                   for r in coordinator.records)

    def test_call_under_parents_roots_and_restores_the_stack(self):
        tracer = Tracer()

        def work(name, tracer):
            with tracer.span(name):
                raise ValueError(name)

        with tracer.span("fanout") as fanout:
            with tracer.span("consumer") as consumer:
                with pytest.raises(ValueError):
                    tracer.call_under(fanout, work, "item", tracer=tracer)
                assert tracer.current is consumer
        [item] = [r for r in tracer.records if r["name"] == "item"]
        assert item["parent"] == fanout.span_id
        assert item["status"] == "error"


class TestResilienceBridging:
    def test_retry_to_span_records_events(self):
        tracer = Tracer()
        with tracer.span("fanout") as span:
            on_retry = retry_to_span(span, "learn")
            on_retry("item", 1, ValueError("boom"))
            on_retry("item", 2, None)  # pool-loss retry
        events = tracer.records[0]["events"]
        assert [e["name"] for e in events] == ["retry", "retry"]
        assert events[0]["attrs"]["error"] == "ValueError"
        assert events[1]["attrs"]["error"] == "pool-loss"

    def test_retry_to_span_then_calls_the_callers_hook(self):
        seen = []
        tracer = Tracer()
        with tracer.span("fanout") as span:
            retry_to_span(span, "learn", then=lambda *a: seen.append(a))(
                "item", 1, None)
        assert seen == [("item", 1, None)]
        assert [e["name"] for e in tracer.records[0]["events"]] == ["retry"]

    def test_resilience_to_span_summarises_stats(self):
        from repro.core.resilience import ResilienceStats
        stats = ResilienceStats()
        stats.retries = 3
        stats.pool_losses = 1
        stats.timeouts = 2
        stats.poisoned = 1
        stats.degraded = True
        tracer = Tracer()
        with tracer.span("fanout") as span:
            resilience_to_span(span, "timeline", stats)
        record = tracer.records[0]
        names = [e["name"] for e in record["events"]]
        assert names == ["pool-rebuild", "timeout", "poisoned",
                         "degrade-to-serial"]
        assert record["attrs"]["retries"] == 3
        assert record["attrs"]["pool_losses"] == 1

    def test_resilience_to_span_quiet_run_emits_nothing(self):
        from repro.core.resilience import ResilienceStats
        tracer = Tracer()
        with tracer.span("fanout") as span:
            resilience_to_span(span, "learn", ResilienceStats())
        record = tracer.records[0]
        assert record["events"] == []
        assert record["attrs"] == {"retries": 0, "pool_losses": 0}
