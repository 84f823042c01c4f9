"""Unit tests for the benchmark-report harness (no timing assertions)."""

import json
from pathlib import Path

import pytest

import repro.bench as bench
from benchmarks import bench_report

COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_learner.json"


def _copy(payload):
    return json.loads(json.dumps(payload))


def assert_live_floors(name, section):
    """``section``, measured just now, passes the live rows of
    :data:`repro.bench.FLOORS` it covers (and at least one applies)."""
    report = {bench.SECTIONS[name].key: section}
    results = bench.check_floors(report, live=[name])
    assert results
    assert all(ok for ok, _ in results), \
        [line for ok, line in results if not ok]


FAKE_PIPELINE = {
    "workload": {"itdk_labels": 4, "training_sets": 6, "scale": "tiny",
                 "routing_ases": 160, "rounds": 2, "parallel_workers": 2},
    "timeline": {"serial_seconds": 2.0, "parallel_seconds": 1.0,
                 "parallel_speedup": 2.0, "parallel_workers": 2},
    "routing": {"eager_seconds": 0.02, "lazy_first_path_seconds": 0.002,
                "lazy_speedup": 10.0},
    "store": {"cold_seconds": 1.0, "warm_seconds": 0.05,
              "warm_speedup": 20.0},
}


FAKE_LEARNER = {
    "workload": {"suffix_items": 80, "world_items": 2880,
                 "world_suffixes": 24, "rounds": 5, "parallel_workers": 2},
    "suffix_learn": {"cached_seconds": 1.0, "uncached_seconds": 2.0,
                     "cache_speedup": 2.0},
    "cache": {"vectors_built": 8, "vector_hits": 38, "match_calls": 640,
              "hit_rate": 0.826},
    "evaluate_nc": {"cold_seconds": 1.0, "warm_seconds": 0.5,
                    "warm_speedup": 2.0},
    "run_datasets": {"serial_seconds": 1.0, "parallel_seconds": 0.5,
                     "parallel_speedup": 2.0},
}


class TestPipelineSection:
    def test_render_report_with_pipeline(self):
        text = bench.render_report({"version": bench.BENCH_VERSION,
                                    "pipeline": FAKE_PIPELINE})
        assert "build_timeline" in text
        assert "artifact store" in text
        assert "routing model" in text

    def test_render_report_learner_only(self):
        report = {"version": 1,
                  "suffix_learn": {"cached_seconds": 1.0,
                                   "uncached_seconds": 2.0,
                                   "cache_speedup": 2.0},
                  "evaluate_nc": {"cold_seconds": 1.0, "warm_seconds": 0.5,
                                  "warm_speedup": 2.0},
                  "run_datasets": {"serial_seconds": 1.0,
                                   "parallel_seconds": 1.0,
                                   "parallel_speedup": 1.0}}
        text = bench.render_report(report)
        assert "learn one suffix" in text
        assert "pipeline" not in text


class TestWorkload:
    def test_world_items_scaled_to_amortise_startup(self):
        items = bench.bench_world_items()
        suffixes = {".".join(item.hostname.split(".")[-3:])
                    for item in items}
        assert len(items) >= 2000
        assert len(suffixes) == 24

    @pytest.mark.slow
    def test_run_pipeline_bench_shape(self):
        report = bench.run_pipeline_bench(rounds=1)
        assert set(report) == {"workload", "timeline", "routing", "store"}
        assert report["store"]["warm_speedup"] > 1.0


FAKE_SERVE = {
    "workload": {"conventions": 24, "hostnames": 20000,
                 "zipf_hostnames": 20000,
                 "parallel_workers": 2, "rounds": 1},
    "linear_apply": {"seconds": 1.4, "hostnames_per_second": 14285.0},
    "dispatch": {"cold_seconds": 0.06, "warm_seconds": 0.046,
                 "warm_hostnames_per_second": 434000.0,
                 "speedup_vs_linear": 30.4, "fused_plans": 24},
    "memo": {"zipf_hostnames": 20000, "zipf_universe": 1400,
             "uncached_seconds": 0.04, "warm_seconds": 0.01,
             "warm_hostnames_per_second": 2000000.0,
             "memo_speedup": 4.0, "hit_rate": 0.93, "capacity": 65536},
    "bulk": {"serial_seconds": 0.051, "parallel_seconds": 0.026,
             "parallel_speedup": 1.96, "parallel_workers": 2},
}


#: What ``dispatch`` measures: the serve kernels minus the fan-out.
FAKE_DISPATCH = {
    "workload": {"conventions": 24, "hostnames": 20000,
                 "zipf_hostnames": 20000, "rounds": 9},
    "linear_apply": {"seconds": 2.0, "hostnames_per_second": 10000.0},
    "dispatch": {"cold_seconds": 0.05, "warm_seconds": 0.02,
                 "warm_hostnames_per_second": 1000000.0,
                 "speedup_vs_linear": 100.0, "fused_plans": 24},
    "memo": {"zipf_hostnames": 20000, "zipf_universe": 1400,
             "uncached_seconds": 0.04, "warm_seconds": 0.005,
             "warm_hostnames_per_second": 4000000.0,
             "memo_speedup": 8.0, "hit_rate": 0.93, "capacity": 65536},
}


class TestServeSection:
    def test_render_serve_section(self):
        text = bench.render_serve_section(FAKE_SERVE)
        assert "trie dispatch" in text
        assert "30.4x vs linear" in text
        assert "zipf memo" in text
        assert "hit rate 93.0%" in text
        assert "bulk streaming" in text

    def test_render_serve_section_tolerates_pre_v5_shape(self):
        legacy = {key: value for key, value in FAKE_SERVE.items()
                  if key not in ("memo", "bulk")}
        text = bench.render_serve_section(legacy)
        assert "trie dispatch" in text
        assert "zipf memo" not in text
        assert "bulk streaming" not in text

    def test_render_report_with_serve(self):
        text = bench.render_report({"version": bench.BENCH_VERSION,
                                    "serve": FAKE_SERVE})
        assert "serve benchmark" in text
        assert "linear apply" in text

    def test_serve_workload_shape(self):
        hostnames = bench.serve_hostnames(n=200)
        assert len(hostnames) == 200
        result = bench.serve_conventions(n_suffixes=4)
        assert len(result.conventions) == 4
        # Every convention key must be a registered domain so the
        # linear PSL path can reach it.
        from repro.psl import default_psl
        psl = default_psl()
        for suffix in result.conventions:
            assert psl.registered_domain(suffix) == suffix

    def test_zipf_workload_is_deterministic_and_skewed(self):
        first = bench.zipf_hostnames(n=2000, universe=500)
        second = bench.zipf_hostnames(n=2000, universe=500)
        assert first == second                      # fixed seed
        distinct = len(set(first))
        assert distinct < len(first) / 2            # heavy repeats
        assert distinct > 10                        # but a real stream

    def test_bulk_workers_caps_at_four(self, monkeypatch):
        monkeypatch.setattr(bench, "default_workers", lambda: 16)
        assert bench.bulk_workers() == 4
        assert bench.bulk_workers(jobs=8) == 8      # explicit wins
        monkeypatch.setattr(bench, "default_workers", lambda: 1)
        assert bench.bulk_workers() == 1

    @pytest.mark.slow
    def test_run_serve_bench_shape(self):
        report = bench.run_serve_bench(rounds=1)
        assert set(report) == {"workload", "linear_apply", "dispatch",
                               "memo", "bulk"}
        assert report["dispatch"]["speedup_vs_linear"] > 1.0
        assert report["memo"]["memo_speedup"] > 1.0
        assert report["bulk"]["parallel_workers"] == \
            report["workload"]["parallel_workers"]

    @pytest.mark.slow
    def test_run_dispatch_bench_shape(self):
        report = bench.run_dispatch_bench(rounds=1)
        assert set(report) == {"workload", "linear_apply", "dispatch",
                               "memo"}
        assert report["dispatch"]["fused_plans"] > 0


FAKE_OBS = {
    "workload": {"world_items": 1280, "world_suffixes": 16, "rounds": 5,
                 "null_span_loops": 200000},
    "disabled": {"seconds": 0.2, "null_span_seconds": 4.5e-07,
                 "spans_per_run": 97, "overhead_fraction": 0.0002,
                 "budget_fraction": 0.02, "within_budget": True},
    "enabled": {"seconds": 0.21, "spans_per_run": 97,
                "overhead_fraction": 0.05,
                "overhead_fraction_raw": 0.05, "noise_floor": False},
}


class TestObsSection:
    def test_render_obs_section(self):
        text = bench.render_obs_section(FAKE_OBS)
        assert "tracing disabled" in text
        assert "tracing enabled" in text
        assert "OK, budget 2.0%" in text

    def test_render_obs_section_flags_budget_breach(self):
        over = json.loads(json.dumps(FAKE_OBS))
        over["disabled"]["within_budget"] = False
        assert "OVER BUDGET" in bench.render_obs_section(over)

    def test_render_report_with_obs(self):
        text = bench.render_report({"version": bench.BENCH_VERSION,
                                    "obs": FAKE_OBS})
        assert "observability benchmark" in text

    def test_obs_workload_is_genuinely_multi_suffix(self):
        from repro.core.types import group_by_suffix
        groups = group_by_suffix(bench.obs_world_items(n_suffixes=4))
        assert len(groups) == 4

    def test_run_obs_bench_meets_budget(self):
        # The real measurement, small rounds: the acceptance gate that
        # tracing-disabled instrumentation overhead stays in budget.
        section = bench.run_obs_bench(rounds=1)
        assert_live_floors("obs", section)
        assert section["disabled"]["spans_per_run"] > 16
        # The reported enabled fraction is never negative; when the
        # raw measurement is, the noise_floor flag says so.
        enabled = section["enabled"]
        assert enabled["overhead_fraction"] >= 0.0
        assert enabled["noise_floor"] == \
            (enabled["overhead_fraction_raw"] < 0.0)


FAKE_INCREMENTAL = {
    "workload": {"suffixes": 24, "items": 1200, "perturbed_suffixes": 1,
                 "perturbed_fraction": 1 / 24, "rounds": 2,
                 "parallel_workers": 2},
    "cold": {"seconds": 0.3},
    "warm_repeat": {"seconds": 0.01, "speedup": 30.0},
    "perturbed": {"from_scratch_seconds": 0.28,
                  "incremental_seconds": 0.05, "speedup": 5.6,
                  "suffix_cache": {"hits": 23, "misses": 1,
                                   "hit_rate": 23 / 24},
                  "identical": True},
}


class TestIncrementalSection:
    def test_render_incremental_section(self):
        text = bench.render_incremental_section(FAKE_INCREMENTAL)
        assert "incremental benchmark" in text
        assert "warm repeat" in text
        assert "hit rate 95.8%" in text
        assert "byte-identical: yes" in text

    def test_render_incremental_section_flags_divergence(self):
        diverged = json.loads(json.dumps(FAKE_INCREMENTAL))
        diverged["perturbed"]["identical"] = False
        assert "byte-identical: NO" \
            in bench.render_incremental_section(diverged)

    def test_render_report_with_incremental(self):
        text = bench.render_report({"version": bench.BENCH_VERSION,
                                    "incremental": FAKE_INCREMENTAL})
        assert "incremental benchmark" in text

    def test_incremental_training_sets_shape(self):
        snap0, snap1, n_mutated = bench.incremental_training_sets(
            n_suffixes=20, per_suffix=8, perturb_fraction=0.05)
        assert n_mutated == 1
        assert len(snap0.items) == len(snap1.items)
        assert snap0.label != snap1.label
        # exactly n_mutated suffixes differ between the snapshots
        differing = {".".join(i0.hostname.split(".")[-2:])
                     for i0, i1 in zip(snap0.items, snap1.items)
                     if i0 != i1}
        assert len(differing) == n_mutated

    def test_run_incremental_bench_meets_floors(self):
        # The real measurement, one round: the acceptance gates --
        # warm-repeat speedup, perturbed hit rate, byte-identical
        # results -- must hold wherever the tests run.
        section = bench.run_incremental_bench(rounds=1)
        assert_live_floors("incremental", section)
        cache = section["perturbed"]["suffix_cache"]
        assert cache["hits"] + cache["misses"] \
            == section["workload"]["suffixes"]


FAKE_HTTP = {
    "workload": {"zipf_hostnames": 20000,
                 "workload_fingerprint": "deadbeef" * 8,
                 "workers": 2, "concurrency": 4},
    "closed_single": {"mode": "closed", "requests": 600, "ok": 600,
                      "errors": 0, "concurrency": 4, "rate": None,
                      "batch_size": 1, "hostnames_per_request": 1,
                      "duration_s": 0.2, "throughput_rps": 3000.0,
                      "hostnames_per_s": 3000.0,
                      "status": {"200": 600},
                      "latency_p50_s": 0.0012, "latency_p90_s": 0.002,
                      "latency_p99_s": 0.005, "latency_mean_s": 0.0013,
                      "workload_fingerprint": "deadbeef" * 8},
    "closed_batch": {"mode": "closed", "requests": 40, "ok": 40,
                     "errors": 0, "concurrency": 2, "rate": None,
                     "batch_size": 500, "hostnames_per_request": 500,
                     "duration_s": 0.04, "throughput_rps": 1000.0,
                     "hostnames_per_s": 500000.0,
                     "status": {"200": 40},
                     "latency_p50_s": 0.0016, "latency_p90_s": 0.003,
                     "latency_p99_s": 0.006, "latency_mean_s": 0.002,
                     "workload_fingerprint": "deadbeef" * 8},
    "open": {"mode": "open", "requests": 400, "ok": 400, "errors": 0,
             "concurrency": 4, "rate": 200.0, "batch_size": 1,
             "hostnames_per_request": 1, "duration_s": 2.0,
             "throughput_rps": 200.0, "hostnames_per_s": 200.0,
             "status": {"200": 400},
             "latency_p50_s": 0.0008, "latency_p90_s": 0.004,
             "latency_p99_s": 0.014, "latency_mean_s": 0.0015,
             "workload_fingerprint": "deadbeef" * 8},
    "drain_exit_code": 0,
}


class TestHttpSection:
    def test_render_http_section(self):
        text = bench.render_http_section(FAKE_HTTP)
        assert "http benchmark" in text
        assert "2 workers" in text
        assert "closed single" in text
        assert "500000 hostnames/s" in text
        assert "exit code 0" in text

    def test_render_report_with_http(self):
        text = bench.render_report({"version": bench.BENCH_VERSION,
                                    "http": FAKE_HTTP})
        assert "http benchmark" in text

    def test_section_records_the_zipf_workload_fingerprint(self):
        # The determinism satellite: the section's fingerprint is the
        # hash of the exact seeded Zipf stream the serve bench uses,
        # so HTTP and in-process numbers are provably comparable.
        from repro.serve.loadgen import workload_fingerprint
        expected = workload_fingerprint(bench.zipf_hostnames())
        assert FAKE_HTTP["workload"]["workload_fingerprint"] != expected
        section = bench.run_http_bench(single_requests=20,
                                       batch_requests=4, batch_size=50,
                                       open_requests=10, open_rate=100.0,
                                       concurrency=2, workers=1)
        assert section["workload"]["workload_fingerprint"] == expected
        assert section["closed_single"]["workload_fingerprint"] \
            == expected
        assert section["drain_exit_code"] == 0
        assert section["closed_single"]["errors"] == 0


FAKE_SHADOW = {
    "workload": {"conventions": 24, "zipf_hostnames": 20000,
                 "rounds": 1, "workload_fingerprint": "deadbeef" * 8},
    "overhead": {"single_seconds": 0.01, "dual_seconds": 0.018,
                 "overhead_ratio": 1.8, "budget_ratio": 2.2,
                 "within_budget": True,
                 "dual_hostnames_per_second": 1.1e6},
    "ledger": {"hostnames": 2000,
               "expected": {"agree": 1200, "primary_only": 200,
                            "candidate_only": 200, "conflict": 400},
               "observed": {"agree": 1200, "primary_only": 200,
                            "candidate_only": 200, "conflict": 400},
               "exact": True, "primary_identical": True,
               "disagreement_fraction": 0.4},
}


class TestShadowSection:
    def test_render_shadow_section(self):
        text = bench.render_shadow_section(FAKE_SHADOW)
        assert "shadow benchmark" in text
        assert "overhead 1.80x" in text
        assert "[OK, budget 2.2x]" in text
        assert "exact: yes" in text
        assert "primary-identical: yes" in text

    def test_render_shadow_section_flags_budget_breach(self):
        over = json.loads(json.dumps(FAKE_SHADOW))
        over["overhead"]["within_budget"] = False
        over["ledger"]["exact"] = False
        text = bench.render_shadow_section(over)
        assert "OVER BUDGET" in text
        assert "exact: NO" in text

    def test_render_report_with_shadow(self):
        text = bench.render_report({"version": bench.BENCH_VERSION,
                                    "shadow": FAKE_SHADOW})
        assert "shadow benchmark" in text

    def test_divergence_case_counts_partition_the_stream(self):
        primary, candidate, hostnames, expected = \
            bench.shadow_divergence_case(n=50)
        assert len(hostnames) == 50
        assert sum(expected.values()) == 50
        assert expected == {"agree": 30, "primary_only": 5,
                            "candidate_only": 5, "conflict": 10}
        assert "svc07-bench.org" in primary.conventions
        assert "svc07-bench.org" not in candidate.conventions
        assert "extra-bench.org" in candidate.conventions
        assert "extra-bench.org" not in primary.conventions

    def test_divergence_case_rejects_ragged_n(self):
        with pytest.raises(ValueError):
            bench.shadow_divergence_case(n=55)


FAKE_OBS_WINDOW = {
    "workload": {"http_requests": 300, "log_lines": 20000,
                 "window_records": 201, "rounds": 3,
                 "flush_interval_seconds": 1.0,
                 "window_seconds": 10.0, "window_count": 60},
    "request_seconds": 0.0002,
    "access_log": {"line_seconds": 2.1e-06,
                   "drain_line_seconds": 5.5e-06,
                   "sync_line_seconds": 7.4e-06,
                   "fraction_of_request": 0.0105},
    "window": {"record_seconds": 2.2e-05,
               "fraction_per_second": 2.2e-05},
    "overhead_fraction": 0.0105,
    "budget_fraction": 0.03,
    "within_budget": True,
}


class TestObsWindowSection:
    def test_render_obs_window_section(self):
        text = bench.render_obs_window_section(FAKE_OBS_WINDOW)
        assert "obs-window benchmark" in text
        assert "access log line" in text
        assert "window fold" in text
        assert "[OK, budget 3.0%]" in text

    def test_render_obs_window_section_flags_budget_breach(self):
        over = json.loads(json.dumps(FAKE_OBS_WINDOW))
        over["within_budget"] = False
        assert "OVER BUDGET" in bench.render_obs_window_section(over)

    def test_render_report_with_obs_window(self):
        text = bench.render_report({"version": bench.BENCH_VERSION,
                                    "obs_window": FAKE_OBS_WINDOW})
        assert "obs-window benchmark" in text

    def test_run_obs_window_bench_meets_budget(self):
        # The real measurement, small rounds: the acceptance gate
        # that the per-request access-log enqueue plus the amortised
        # window fold stays inside the serving budget.
        section = bench.run_obs_window_bench(rounds=1)
        assert_live_floors("obs_window", section)
        access = section["access_log"]
        # The enqueue must beat the synchronous write it replaces.
        assert access["line_seconds"] < access["sync_line_seconds"]
        assert section["window"]["record_seconds"] > 0.0
        assert section["request_seconds"] > 0.0


FAKES = {"learner": FAKE_LEARNER, "pipeline": FAKE_PIPELINE,
         "serve": FAKE_SERVE, "dispatch": FAKE_DISPATCH, "obs": FAKE_OBS,
         "incremental": FAKE_INCREMENTAL, "http": FAKE_HTTP,
         "shadow": FAKE_SHADOW, "obs_window": FAKE_OBS_WINDOW}


def full_report():
    """A report holding every section's fake numbers."""
    report = dict(_copy(FAKE_LEARNER), version=bench.BENCH_VERSION)
    for name, section in bench.SECTIONS.items():
        if section.key and name != "dispatch":
            report[section.key] = _copy(FAKES[name])
    return report


def fake_runners(monkeypatch, calls):
    """Replace every section's runner with one that records its
    ``(name, rounds)`` in ``calls`` and returns the fake numbers."""
    for name, section in list(bench.SECTIONS.items()):
        def runner(rounds, jobs, name=name):
            calls.append((name, rounds))
            return _copy(FAKES[name])
        monkeypatch.setitem(bench.SECTIONS, name,
                            section._replace(run=runner))


class TestSections:
    def test_fakes_cover_the_registry(self):
        assert set(FAKES) == set(bench.SECTIONS)

    @pytest.mark.parametrize("name", list(bench.SECTIONS))
    def test_write_sections_preserves_other_sections(
            self, name, tmp_path, monkeypatch):
        section = bench.SECTIONS[name]
        fresh = FAKES[name]
        existing = full_report()
        if section.key is None:
            for key in fresh:
                existing[key] = {"stale": True}
        elif name != "dispatch":
            existing[section.key] = {"stale": True}
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(existing), encoding="utf-8")
        fake_runners(monkeypatch, [])

        report = bench.write_sections(str(path), [name])

        expected = dict(_copy(existing), version=bench.BENCH_VERSION)
        if section.key is None:
            expected.update(fresh)
        elif name == "dispatch":
            # Fresh single-core kernels; the fan-out numbers and the
            # worker count they ran with survive.
            expected["serve"] = dict(
                fresh, bulk=FAKE_SERVE["bulk"],
                workload=dict(fresh["workload"], parallel_workers=2))
        else:
            expected[section.key] = fresh
        assert report == expected
        assert json.loads(path.read_text(encoding="utf-8")) == expected

    @pytest.mark.parametrize("name", list(bench.SECTIONS))
    def test_write_sections_from_scratch(self, name, tmp_path,
                                         monkeypatch):
        path = tmp_path / "BENCH.json"
        fake_runners(monkeypatch, [])
        report = bench.write_sections(str(path), [name])
        assert report["version"] == bench.BENCH_VERSION
        assert json.loads(path.read_text(encoding="utf-8")) == report
        key = bench.SECTIONS[name].key
        assert (report if key is None else report[key]).items() \
            >= FAKES[name].items()
        # The section renders through the registry.
        assert len(bench.render_report(report).splitlines()) > 1

    @pytest.mark.parametrize("name", list(bench.SECTIONS))
    def test_rounds_reach_every_section(self, name, tmp_path,
                                        monkeypatch):
        calls = []
        fake_runners(monkeypatch, calls)
        output = str(tmp_path / "BENCH.json")
        assert bench_report.main(["--section", name, "--rounds", "7",
                                  "--output", output]) == 0
        assert bench_report.main(["--section", name,
                                  "--output", output]) == 0
        assert calls == [(name, 7), (name, bench.SECTIONS[name].rounds)]

    def test_full_run_measures_each_report_key_once(self, tmp_path,
                                                    monkeypatch):
        calls = []
        fake_runners(monkeypatch, calls)
        report = bench.write_sections(str(tmp_path / "BENCH.json"))
        assert [name for name, _ in calls] == list(bench.FULL_RUN)
        assert "dispatch" not in bench.FULL_RUN
        assert report == full_report()


class TestFloors:
    def committed(self):
        return json.loads(COMMITTED.read_text(encoding="utf-8"))

    def test_committed_report_passes_every_committed_floor(self):
        results = bench.check_floors(self.committed())
        assert len(results) == sum(1 for row in bench.FLOORS
                                   if row[3] is not None)
        assert all(ok for ok, _ in results), \
            [line for ok, line in results if not ok]
        assert bench_report.main(["--check",
                                  "--output", str(COMMITTED)]) == 0

    def test_broken_floor_fails_check(self, tmp_path, capsys):
        report = self.committed()
        report["shadow"]["overhead"]["overhead_ratio"] = 2.5
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert bench_report.main(["--check", "--output", str(path)]) == 1
        failures = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("FAIL")]
        assert len(failures) == 1
        assert "shadow.overhead.overhead_ratio" in failures[0]

    def test_missing_key_fails_check(self, tmp_path, capsys):
        report = self.committed()
        del report["http"]["drain_exit_code"]
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert bench_report.main(["--check", "--output", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  http.drain_exit_code == 0: missing" in out

    def test_live_check_scopes_rows_to_measured_sections(self):
        results = bench.check_floors({"serve": FAKE_SERVE}, live=["serve"])
        assert all(ok for ok, _ in results)
        assert all(line.split()[1].startswith("serve.")
                   for _, line in results)
        assert any("serve.bulk." in line for _, line in results)
        # dispatch keeps the old fan-out numbers, so it is not judged
        # on them.
        kernels = {key: value for key, value in FAKE_SERVE.items()
                   if key != "bulk"}
        results = bench.check_floors({"serve": kernels}, live=["dispatch"])
        assert results and all(ok for ok, _ in results)
        assert not any("serve.bulk." in line for _, line in results)

    def test_single_worker_fanout_renders_not_measured(self):
        serve = _copy(FAKE_SERVE)
        assert "speedup 1.96x (2 workers)" \
            in bench.render_serve_section(serve)
        serve["bulk"]["parallel_workers"] = 1
        assert "speedup not measured (1 workers)" \
            in bench.render_serve_section(serve)
        report = dict(_copy(FAKE_LEARNER), pipeline=_copy(FAKE_PIPELINE))
        report["workload"]["parallel_workers"] = 1
        report["pipeline"]["timeline"]["parallel_workers"] = 1
        lines = bench.render_report(report).splitlines()
        for kernel in ("run_datasets", "build_timeline"):
            line, = [line for line in lines if kernel in line]
            assert "speedup not measured (1 workers)" in line

    @pytest.mark.parametrize("cpus, live, ok", [
        (2, ["serve"], False),      # the host could fan out but did not
        (1, ["serve"], True),       # the host cannot fan out
        (2, None, True),            # committed numbers: reported only
    ], ids=["live-multicore", "live-single-cpu", "committed"])
    def test_single_worker_fanout_check(self, cpus, live, ok,
                                        monkeypatch):
        monkeypatch.setattr(bench, "default_workers", lambda: cpus)
        monkeypatch.setattr(bench, "FLOORS", [
            ("serve.bulk.parallel_speedup", ">=", 1.5, 1.5)])
        serve = _copy(FAKE_SERVE)
        serve["bulk"]["parallel_workers"] = 1
        (passed, line), = bench.check_floors({"serve": serve}, live=live)
        assert passed is ok
        assert "not measured (1 workers)" in line
