"""The ``trace summary`` renderer: tree, tables, folding, round trips."""

from repro.obs.summary import render_summary
from repro.obs.trace import Tracer, load_trace


def _trace_with_learning():
    tracer = Tracer()
    with tracer.span("stage.learn") as stage:
        with tracer.span("learn.run", suffixes=2):
            with tracer.span("learn.suffix", suffix="slow.example",
                             items=40) as span:
                span.set(candidates=5, kept=2, match_calls=100,
                         vector_hits=60, hit_rate=0.6)
            with tracer.span("learn.suffix", suffix="fast.example",
                             items=3) as span:
                span.set(candidates=1, kept=0, match_calls=10,
                         vector_hits=2, hit_rate=0.2)
        stage.event("retry", site="learn", attempts=1,
                    error="ValueError")
        stage.event("pool-rebuild", site="learn", count=2)
    tracer.close()
    return tracer.export()


class TestTree:
    def test_header_counts_spans_and_roots(self):
        text = render_summary(_trace_with_learning())
        assert text.startswith("trace: 4 span(s), 1 root stage(s),")

    def test_nesting_is_indented(self):
        lines = render_summary(_trace_with_learning()).splitlines()
        stage = next(l for l in lines if l.startswith("stage.learn"))
        run = next(l for l in lines if l.lstrip().startswith("learn.run"))
        suffix = next(l for l in lines
                      if l.lstrip().startswith("learn.suffix"))
        assert len(run) - len(run.lstrip()) > \
            len(stage) - len(stage.lstrip())
        assert len(suffix) - len(suffix.lstrip()) > \
            len(run) - len(run.lstrip())

    def test_attr_highlights_inline(self):
        text = render_summary(_trace_with_learning())
        assert "suffix=slow.example" in text
        assert "hit_rate=0.600" in text

    def test_events_render_inline(self):
        text = render_summary(_trace_with_learning())
        assert "! retry @" in text
        assert "error=ValueError" in text

    def test_error_status_flagged(self):
        tracer = Tracer()
        try:
            with tracer.span("doomed"):
                raise RuntimeError("bang")
        except RuntimeError:
            pass
        text = render_summary(tracer.export())
        assert "[ERROR: RuntimeError: bang]" in text
        assert "1 error(s)" in text

    def test_unknown_parent_renders_as_root(self):
        records = [{"id": "x", "parent": "never-seen", "name": "orphan",
                    "wall": 0.1, "cpu": 0.1, "status": "ok",
                    "attrs": {}, "events": []}]
        text = render_summary(records)
        assert "orphan" in text
        assert "1 root stage(s)" in text

    def test_depth_folding(self):
        tracer = Tracer()
        spans = [tracer.span("level%d" % i) for i in range(8)]
        for span in reversed(spans):
            span.finish()
        text = render_summary(tracer.export(), max_depth=3)
        assert "child span(s) folded" in text
        assert "level7" not in text

    def test_sibling_folding(self):
        tracer = Tracer()
        with tracer.span("parent"):
            for i in range(6):
                with tracer.span("kid%d" % i):
                    pass
        text = render_summary(tracer.export(), fold=4)
        assert "2 more sibling span(s)" in text
        assert "kid5" not in text

    def test_empty_trace(self):
        assert render_summary([]) == "trace is empty"


class TestTables:
    def test_slowest_suffixes_table(self):
        text = render_summary(_trace_with_learning(), top=1)
        assert "slowest suffixes (top 1 of 2)" in text

    def test_resilience_table_counts_events(self):
        lines = render_summary(_trace_with_learning()).splitlines()
        start = lines.index("resilience events")
        table = "\n".join(lines[start:start + 3])
        assert "retry" in table
        # pool-rebuild events carry count=2 in their attrs.
        assert "pool-rebuild         2" in table

    def test_cache_table_aggregates_suffix_spans(self):
        text = render_summary(_trace_with_learning())
        assert "match cache" in text
        assert "match_calls          110" in text
        assert "vector_hits          62" in text

    def test_store_table(self):
        tracer = Tracer()
        with tracer.span("store.get", kind="world", hit=True):
            pass
        with tracer.span("store.get", kind="world", hit=False):
            pass
        with tracer.span("store.put", kind="world"):
            pass
        text = render_summary(tracer.export())
        assert "artifact store" in text
        assert "world" in text
        row = next(l for l in text.splitlines()
                   if l.strip().startswith("world"))
        assert row.split() == ["world", "1", "1", "1"]


def _span(span_id, parent, name, wall):
    return {"id": span_id, "parent": parent, "name": name, "wall": wall,
            "cpu": wall, "status": "ok", "attrs": {}, "events": []}


def _self_time_rows(text):
    lines = text.splitlines()
    start = lines.index("self time by span name") + 2
    rows = {}
    for line in lines[start:]:
        if not line.strip():
            break
        name, self_wall, share, spans = line.split()
        rows[name] = (float(self_wall.rstrip("s")),
                      float(share.rstrip("%")), int(spans))
    return rows


class TestSelfTime:
    def test_nested_self_times_sum_to_root_wall(self):
        # stage (8.0) -> build (3.0) -> lookup (1.0), lookup (0.5)
        #             -> graph (4.0) -> lookup (2.0)
        records = [
            _span("s", None, "stage", 8.0),
            _span("b", "s", "build", 3.0),
            _span("l1", "b", "lookup", 1.0),
            _span("l2", "b", "lookup", 0.5),
            _span("g", "s", "graph", 4.0),
            _span("l3", "g", "lookup", 2.0),
        ]
        rows = _self_time_rows(render_summary(records))
        assert rows == {"lookup": (3.5, 43.8, 3), "graph": (2.0, 25.0, 1),
                        "build": (1.5, 18.8, 1), "stage": (1.0, 12.5, 1)}
        assert sum(row[0] for row in rows.values()) == 8.0
        # Rows are ordered by self time, largest first.
        assert list(rows) == ["lookup", "graph", "build", "stage"]

    def test_folded_names_pool_into_one_row(self):
        records = [_span("p", None, "parent", 4.0)] + [
            _span("k%d" % i, "p", "kid%d" % i, 0.5) for i in range(6)]
        text = render_summary(records, fold=4)
        rows = _self_time_rows(text)
        assert "kid5" not in text
        assert rows["(folded)"] == (1.0, 25.0, 2)
        assert sum(row[0] for row in rows.values()) == 4.0

    def test_rendered_for_a_real_trace(self):
        records = _trace_with_learning()
        rows = _self_time_rows(render_summary(records))
        assert set(rows) == {"stage.learn", "learn.run", "learn.suffix"}
        root_wall = next(r["wall"] for r in records
                         if r["name"] == "stage.learn")
        assert abs(sum(row[0] for row in rows.values()) - root_wall) \
            < 0.002


class TestRoundTrip:
    def test_file_round_trip_renders_identically(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = Tracer(path=path)
        with sink.span("stage.learn"):
            with sink.span("learn.suffix", suffix="a.example") as span:
                span.set(match_calls=4, vector_hits=1, hit_rate=0.25)
        sink.close()
        from_memory = render_summary(sink.export())
        from_file = render_summary(load_trace(path))
        assert from_file == from_memory
        assert "a.example" in from_file
