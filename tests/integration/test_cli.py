"""Tests for the command-line interface."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _EXPERIMENTS, _FLAGS, _VERBS, _build_parser, \
    _experiment, main

ROOT = Path(__file__).resolve().parents[2]


class TestCli:
    def test_appendix_a(self, capsys):
        assert main(["appendix-a", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "NC #7" in out

    def test_learn_from_file(self, tmp_path, capsys):
        path = tmp_path / "hostnames.txt"
        path.write_text(
            "# hostname asn\n"
            "as3356.lon1.example.com 3356\n"
            "as1299.lon2.example.com 1299\n"
            "as174.fra1.example.com 174\n"
            "as2914.fra2.example.com 2914\n"
            "as6453.ams1.example.com 6453\n",
            encoding="utf-8")
        assert main(["learn", "--hostnames", str(path)]) == 0
        out = capsys.readouterr().out
        assert "example.com" in out
        assert "as(\\d+)" in out

    def test_learn_requires_file(self, capsys):
        assert main(["learn"]) == 2

    def test_learn_skips_malformed_lines(self, tmp_path, capsys):
        path = tmp_path / "hostnames.txt"
        path.write_text("onlyonefield\n", encoding="utf-8")
        assert main(["learn", "--hostnames", str(path)]) == 0

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["nonsense"]) == 2
        assert "invalid choice: 'nonsense'" in capsys.readouterr().err

    def test_learn_save_then_apply(self, tmp_path, capsys):
        training = tmp_path / "train.txt"
        training.write_text(
            "as3356.lon1.example.com 3356\n"
            "as1299.lon2.example.com 1299\n"
            "as174.fra1.example.com 174\n"
            "as2914.fra2.example.com 2914\n"
            "as6453.ams1.example.com 6453\n",
            encoding="utf-8")
        saved = tmp_path / "conv.json"
        assert main(["learn", "--hostnames", str(training),
                     "--save", str(saved)]) == 0
        assert saved.exists()
        capsys.readouterr()

        targets = tmp_path / "targets.txt"
        targets.write_text("as8075.ams9.example.com\n"
                           "unknown.other.net\n", encoding="utf-8")
        assert main(["apply", "--conventions", str(saved),
                     "--hostnames", str(targets)]) == 0
        out = capsys.readouterr().out
        assert "as8075.ams9.example.com\t8075" in out
        assert "unknown.other.net\t-" in out

    def test_apply_requires_both_files(self, capsys):
        assert main(["apply"]) == 2

    def test_report(self, tmp_path, capsys):
        training = tmp_path / "train.txt"
        training.write_text(
            "as3356.lon1.example.com 3356\n"
            "as1299.lon2.example.com 1299\n"
            "as174.fra1.example.com 174\n"
            "as2914.fra2.example.com 2914\n",
            encoding="utf-8")
        assert main(["report", "--hostnames", str(training)]) == 0
        out = capsys.readouterr().out
        assert "[TP]" in out
        assert "suffix: example.com" in out

    def test_report_requires_file(self, capsys):
        assert main(["report"]) == 2


class TestCliCache:
    TRAINING = ("as3356.lon1.example.com 3356\n"
                "as1299.lon2.example.com 1299\n"
                "as174.fra1.example.com 174\n"
                "as2914.fra2.example.com 2914\n"
                "as6453.ams1.example.com 6453\n")

    def _training_file(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text(self.TRAINING, encoding="utf-8")
        return path

    def test_learn_populates_and_reuses_cache(self, tmp_path, capsys,
                                              monkeypatch):
        training = self._training_file(tmp_path)
        cache = tmp_path / "cache"
        assert main(["learn", "--hostnames", str(training),
                     "--cache-dir", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert list(cache.glob("hoiho/*.pkl"))

        # Warm run must not learn again: break Hoiho.run and rely on
        # the cached result.
        from repro.core.hoiho import Hoiho
        monkeypatch.setattr(
            Hoiho, "run",
            lambda self, items: pytest.fail("re-learned on warm cache"))
        assert main(["learn", "--hostnames", str(training),
                     "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == cold

    def test_no_cache_flag_disables_store(self, tmp_path, capsys):
        training = self._training_file(tmp_path)
        cache = tmp_path / "cache"
        assert main(["learn", "--hostnames", str(training),
                     "--cache-dir", str(cache), "--no-cache"]) == 0
        assert not cache.exists()

    def test_cache_dir_from_environment(self, tmp_path, capsys,
                                        monkeypatch):
        training = self._training_file(tmp_path)
        cache = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        assert main(["learn", "--hostnames", str(training)]) == 0
        assert list(cache.glob("hoiho/*.pkl"))

    def test_cache_info_and_clear(self, tmp_path, capsys):
        training = self._training_file(tmp_path)
        cache = tmp_path / "cache"
        assert main(["learn", "--hostnames", str(training),
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()

        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "hoiho" in out
        assert "suffixes" in out
        assert "1 entry" in out

        # whole-result entry plus one per-suffix artifact
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "cleared 2" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_clear_namespace_filter(self, tmp_path, capsys):
        training = self._training_file(tmp_path)
        cache = tmp_path / "cache"
        assert main(["learn", "--hostnames", str(training),
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()

        assert main(["cache", "clear", "--cache-dir", str(cache),
                     "--namespace", "suffixes"]) == 0
        out = capsys.readouterr().out
        assert "cleared 1" in out
        assert "namespace suffixes" in out
        # the whole-result entry survives a filtered sweep
        assert list(cache.glob("hoiho/*.pkl"))
        assert not list(cache.glob("suffixes/*.pkl"))

    def test_cache_clear_rejects_unknown_namespace(self, tmp_path, capsys):
        assert main(["cache", "clear", "--cache-dir", str(tmp_path / "c"),
                     "--namespace", "scratch"]) == 2
        assert "invalid choice: 'scratch'" in capsys.readouterr().err

    def test_cache_defaults_to_info(self, tmp_path, capsys):
        assert main(["cache", "--cache-dir", str(tmp_path / "c")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_requires_dir(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "info"]) == 2

    def test_cache_rejects_unknown_subcommand(self, tmp_path, capsys):
        assert main(["cache", "frobnicate",
                     "--cache-dir", str(tmp_path / "c")]) == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_experiment_with_cache_dir(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["table1", "--scale", "tiny",
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert list(cache.glob("worlds/*.pkl"))
        assert list(cache.glob("timelines/*.pkl"))
        assert list(cache.glob("hoiho/*.pkl"))


class TestCliServe:
    TRAINING = ("as3356.lon1.example.com 3356\n"
                "as1299.lon2.example.com 1299\n"
                "as174.fra1.example.com 174\n"
                "as2914.fra2.example.com 2914\n"
                "as6453.ams1.example.com 6453\n")

    def _conventions_file(self, tmp_path, capsys):
        training = tmp_path / "train.txt"
        training.write_text(self.TRAINING, encoding="utf-8")
        saved = tmp_path / "conv.json"
        assert main(["learn", "--hostnames", str(training),
                     "--save", str(saved)]) == 0
        capsys.readouterr()
        return saved

    def _targets_file(self, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("# probe list\n"
                           "as8075.ams9.example.com\n"
                           "unknown.other.net\n", encoding="utf-8")
        return targets

    def test_annotate_tsv_to_stdout(self, tmp_path, capsys):
        saved = self._conventions_file(tmp_path, capsys)
        assert main(["annotate", "--conventions", str(saved),
                     "--hostnames", str(self._targets_file(tmp_path))]) == 0
        captured = capsys.readouterr()
        assert captured.out == ("as8075.ams9.example.com\t8075\n"
                                "unknown.other.net\t-\n")
        assert "2 hostname(s): 1 annotated, 1 unannotated" in captured.err

    def test_annotate_jsonl_to_file(self, tmp_path, capsys):
        import json
        saved = self._conventions_file(tmp_path, capsys)
        out = tmp_path / "annotated.jsonl"
        assert main(["annotate", "--conventions", str(saved),
                     "--hostnames", str(self._targets_file(tmp_path)),
                     "--format", "jsonl", "--out", str(out)]) == 0
        records = [json.loads(line)
                   for line in out.read_text(encoding="utf-8").splitlines()]
        assert records == [
            {"asn": 8075, "hostname": "as8075.ams9.example.com"},
            {"asn": None, "hostname": "unknown.other.net"}]

    def test_annotate_parallel_matches_serial(self, tmp_path, capsys):
        saved = self._conventions_file(tmp_path, capsys)
        targets = tmp_path / "many.txt"
        targets.write_text("".join(
            "as%d.pop%d.example.com\n" % (100 + i, i % 4)
            for i in range(50)), encoding="utf-8")
        serial, parallel = tmp_path / "serial.tsv", tmp_path / "parallel.tsv"
        assert main(["annotate", "--conventions", str(saved),
                     "--hostnames", str(targets),
                     "--out", str(serial)]) == 0
        assert main(["annotate", "--conventions", str(saved),
                     "--hostnames", str(targets), "--jobs", "2",
                     "--chunk-size", "8", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_annotate_reads_stdin(self, tmp_path, capsys, monkeypatch):
        import io
        saved = self._conventions_file(tmp_path, capsys)
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("as8075.ams9.example.com\n"))
        assert main(["annotate", "--conventions", str(saved),
                     "--hostnames", "-"]) == 0
        assert capsys.readouterr().out == "as8075.ams9.example.com\t8075\n"

    def test_annotate_requires_both_files(self, capsys):
        assert main(["annotate"]) == 2

    def test_serve_loop_and_metrics_out(self, tmp_path, capsys, monkeypatch):
        import io
        import json
        saved = self._conventions_file(tmp_path, capsys)
        metrics = tmp_path / "metrics.json"
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "as8075.ams9.example.com\nunknown.other.net\n"))
        assert main(["serve", "--conventions", str(saved),
                     "--metrics-out", str(metrics)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ("as8075.ams9.example.com\t8075\n"
                                "unknown.other.net\t-\n")
        assert "# serving 1 convention(s)" in captured.err
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        assert snapshot["counters"] == {
            "annotated": 1, "malformed": 0, "misses": 1, "requests": 2,
            "memo_hits": 0, "memo_misses": 2, "memo_evictions": 0}
        assert snapshot["memo"]["size"] == 2

    def test_serve_requires_conventions(self, capsys):
        assert main(["serve"]) == 2

    @pytest.mark.parametrize("command", ["annotate", "serve", "serve-http"])
    def test_negative_memo_size_rejected(self, command, tmp_path, capsys):
        saved = self._conventions_file(tmp_path, capsys)
        hostnames = ["--hostnames", "-"] if command == "annotate" else []
        assert main([command, "--conventions", str(saved), *hostnames,
                     "--memo-size", "-1"]) == 2
        assert "--memo-size: must be >= 0" in capsys.readouterr().err

    def test_serve_stats_renders_metrics_file(self, tmp_path, capsys,
                                              monkeypatch):
        import io
        saved = self._conventions_file(tmp_path, capsys)
        metrics = tmp_path / "metrics.json"
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("as8075.ams9.example.com\n"))
        assert main(["serve", "--conventions", str(saved),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["serve-stats", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "requests" in out
        assert "example.com" in out

    def test_serve_stats_reads_bench_serve_section(self, tmp_path, capsys):
        import json
        report = tmp_path / "bench.json"
        report.write_text(json.dumps({"serve": {
            "workload": {"conventions": 4, "hostnames": 100,
                         "parallel_workers": 1},
            "linear_apply": {"seconds": 1.0, "hostnames_per_second": 100.0},
            "dispatch": {"cold_seconds": 0.5, "warm_seconds": 0.01,
                         "warm_hostnames_per_second": 10000.0,
                         "speedup_vs_linear": 100.0},
            "bulk": {"serial_seconds": 0.02, "parallel_seconds": 0.02,
                     "parallel_speedup": 1.0},
        }}), encoding="utf-8")
        assert main(["serve-stats", "--output", str(report)]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out.lower()

    def test_serve_stats_missing_section(self, tmp_path, capsys):
        import json
        report = tmp_path / "bench.json"
        report.write_text(json.dumps({"version": 3}), encoding="utf-8")
        assert main(["serve-stats", "--output", str(report)]) == 2
        assert main(["serve-stats",
                     "--output", str(tmp_path / "absent.json")]) == 2


class TestCliObservability:
    TRAINING = ("as3356.lon1.example.com 3356\n"
                "as1299.lon2.example.com 1299\n"
                "as174.fra1.example.com 174\n"
                "as2914.fra2.example.com 2914\n"
                "as6453.ams1.example.com 6453\n")

    def test_run_trace_out_writes_valid_artifacts(self, tmp_path, capsys):
        from repro.obs.manifest import (validate_manifest_file,
                                        validate_trace_file)
        trace = tmp_path / "trace.jsonl"
        manifest = tmp_path / "run.manifest.json"
        assert main(["run", "--scale", "tiny",
                     "--trace-out", str(trace),
                     "--manifest-out", str(manifest)]) == 0
        captured = capsys.readouterr()
        assert "run complete:" in captured.out
        assert "# trace written to" in captured.err
        assert validate_trace_file(str(trace)) == []
        assert validate_manifest_file(str(manifest)) == []

    def test_run_manifest_path_defaults_beside_trace(self, tmp_path,
                                                     capsys):
        import json
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "--scale", "tiny",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        manifest = tmp_path / "trace.manifest.json"
        assert manifest.exists()
        document = json.loads(manifest.read_text(encoding="utf-8"))
        stage_names = [s["name"] for s in document["stages"]]
        assert stage_names == ["stage.world", "stage.timeline",
                               "stage.learn"]
        # Stage wall times must account for (almost all of) the run.
        assert sum(s["wall"] for s in document["stages"]) <= \
            document["wall_seconds"]

    def test_run_without_trace_writes_nothing(self, tmp_path, capsys):
        assert main(["run", "--scale", "tiny"]) == 0
        captured = capsys.readouterr()
        assert "trace written" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_trace_summary_renders_stage_tree(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "--scale", "tiny",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "stage.timeline" in out
        assert "snapshot" in out
        assert "slowest suffixes" in out

    def test_trace_summary_requires_target(self, capsys):
        assert main(["trace", "summary"]) == 2
        assert "required: file" in capsys.readouterr().err

    def test_trace_summary_missing_file(self, tmp_path, capsys):
        assert main(["trace", "summary",
                     str(tmp_path / "absent.jsonl")]) == 2

    def test_trace_rejects_unknown_subcommand(self, tmp_path, capsys):
        assert main(["trace", "frobnicate",
                     str(tmp_path / "t.jsonl")]) == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_experiment_trace_out(self, tmp_path, capsys):
        from repro.obs.manifest import validate_trace_file
        trace = tmp_path / "fig5.jsonl"
        assert main(["figure5", "--scale", "tiny",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert validate_trace_file(str(trace)) == []

    def test_cache_info_json(self, tmp_path, capsys):
        import json
        training = tmp_path / "train.txt"
        training.write_text(self.TRAINING, encoding="utf-8")
        cache = tmp_path / "cache"
        assert main(["learn", "--hostnames", str(training),
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache),
                     "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["kinds"]["hoiho"]["entries"] == 1
        assert info["kinds"]["suffixes"]["entries"] == 1
        # every registered namespace is reported, even empty ones
        assert info["kinds"]["worlds"] == {"entries": 0, "bytes": 0}
        assert info["entries"] == 2

    def test_serve_stats_prom_exposition(self, tmp_path, capsys,
                                         monkeypatch):
        import io
        training = tmp_path / "train.txt"
        training.write_text(self.TRAINING, encoding="utf-8")
        saved = tmp_path / "conv.json"
        assert main(["learn", "--hostnames", str(training),
                     "--save", str(saved)]) == 0
        capsys.readouterr()
        metrics = tmp_path / "metrics.json"
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("as8075.ams9.example.com\n"))
        assert main(["serve", "--conventions", str(saved),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["serve-stats", "--metrics", str(metrics),
                     "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests counter" in out
        assert "repro_requests 1" in out
        assert 'le="+Inf"' in out

    def test_serve_stats_json(self, tmp_path, capsys, monkeypatch):
        import io
        import json
        training = tmp_path / "train.txt"
        training.write_text(self.TRAINING, encoding="utf-8")
        saved = tmp_path / "conv.json"
        assert main(["learn", "--hostnames", str(training),
                     "--save", str(saved)]) == 0
        capsys.readouterr()
        metrics = tmp_path / "metrics.json"
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("as8075.ams9.example.com\n"))
        assert main(["serve", "--conventions", str(saved),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["serve-stats", "--metrics", str(metrics),
                     "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["requests"] == 1

    def test_serve_stats_prom_requires_metrics_file(self, tmp_path,
                                                    capsys):
        import json
        report = tmp_path / "bench.json"
        report.write_text(json.dumps({"serve": {}}), encoding="utf-8")
        assert main(["serve-stats", "--output", str(report),
                     "--format", "prom"]) == 2

    def test_annotate_rejects_render_formats(self, tmp_path, capsys):
        assert main(["annotate", "--format", "prom"]) == 2
        err = capsys.readouterr().err
        assert "argument --format: invalid choice: 'prom'" in err
        assert re.search(r"choose from '?jsonl'?, '?tsv'?\)", err)


class TestCliHttp:
    """``serve-http``/``loadgen`` commands and the ``serve`` signal fix."""

    TRAINING = TestCliServe.TRAINING

    def _conventions_file(self, tmp_path, capsys):
        training = tmp_path / "train.txt"
        training.write_text(self.TRAINING, encoding="utf-8")
        saved = tmp_path / "conv.json"
        assert main(["learn", "--hostnames", str(training),
                     "--save", str(saved)]) == 0
        capsys.readouterr()
        return saved

    def _cli_env(self):
        import os
        from pathlib import Path
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    _CLI = "from repro.cli import main; import sys; " \
           "sys.exit(main(sys.argv[1:]))"

    def test_serve_sigterm_flushes_metrics_out(self, tmp_path, capsys):
        """Regression: an interrupted ``serve`` session must not lose
        its ``--metrics-out`` snapshot (it used to flush only at EOF)."""
        import json
        import signal
        import subprocess
        import sys
        import time
        saved = self._conventions_file(tmp_path, capsys)
        metrics = tmp_path / "metrics.json"
        process = subprocess.Popen(
            [sys.executable, "-c", self._CLI, "serve",
             "--conventions", str(saved), "--metrics-out", str(metrics)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=self._cli_env(), text=True)
        try:
            process.stdin.write("as8075.ams9.example.com\n")
            process.stdin.flush()
            # The echoed annotation proves the loop is live (and the
            # request is in the registry) before the kill.
            assert process.stdout.readline() \
                == "as8075.ams9.example.com\t8075\n"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        assert snapshot["counters"]["requests"] == 1
        assert snapshot["counters"]["annotated"] == 1

    def test_serve_http_serves_and_drains_via_cli(self, tmp_path,
                                                  capsys):
        """End to end through the console entry point: boot a pre-fork
        ``serve-http``, drive it with the ``loadgen`` command, SIGTERM
        it, and check the drained parent wrote merged metrics."""
        import json
        import re
        import signal
        import subprocess
        import sys
        from repro.serve.http import wait_ready
        saved = self._conventions_file(tmp_path, capsys)
        targets = tmp_path / "targets.txt"
        targets.write_text("".join(
            "as%d.pop%d.example.com\n" % (100 + i, i % 4)
            for i in range(30)), encoding="utf-8")
        metrics = tmp_path / "merged.json"
        process = subprocess.Popen(
            [sys.executable, "-c", self._CLI, "serve-http",
             "--conventions", str(saved), "--port", "0",
             "--workers", "2", "--metrics-out", str(metrics)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=self._cli_env(), text=True)
        try:
            ready = process.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", ready)
            assert match, "no ready line: %r" % ready
            port = int(match.group(1))
            assert wait_ready("127.0.0.1", port, timeout=15)
            assert main(["loadgen", "--port", str(port),
                         "--hostnames", str(targets),
                         "--requests", "40", "--concurrency", "2"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["ok"] == 40
            assert report["errors"] == 0
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=20) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        merged = json.loads(metrics.read_text(encoding="utf-8"))
        assert merged["counters"]["http_requests"] >= 40
        assert merged["counters"]["requests"] >= 40

    def test_serve_http_requires_conventions(self, capsys):
        assert main(["serve-http"]) == 2

    def test_serve_http_rejects_bad_flags(self, tmp_path, capsys):
        saved = self._conventions_file(tmp_path, capsys)
        assert main(["serve-http", "--conventions", str(saved),
                     "--workers", "0"]) == 2
        assert main(["serve-http", "--conventions", str(saved),
                     "--max-inflight", "0"]) == 2

    def test_loadgen_rejects_bad_flags(self, capsys, tmp_path):
        assert main(["loadgen", "--batch-size", "0"]) == 2
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        assert main(["loadgen", "--hostnames", str(empty)]) == 2

    def test_serve_stats_merges_repeated_metrics_files(self, tmp_path,
                                                       capsys):
        import json
        first = tmp_path / "w0.json"
        second = tmp_path / "w1.json"
        first.write_text(json.dumps(
            {"counters": {"requests": 3, "annotated": 2},
             "memo": {"size": 1}}), encoding="utf-8")
        second.write_text(json.dumps(
            {"counters": {"requests": 4, "misses": 1}}),
            encoding="utf-8")
        assert main(["serve-stats", "--metrics", str(first),
                     "--metrics", str(second), "--json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["counters"]["requests"] == 7
        assert merged["counters"]["annotated"] == 2
        assert merged["counters"]["misses"] == 1

    def test_serve_stats_merge_rejects_mismatched_bounds(self, tmp_path,
                                                         capsys):
        import json
        first = tmp_path / "w0.json"
        second = tmp_path / "w1.json"
        first.write_text(json.dumps({"histograms": {"latency_seconds": {
            "bounds": [1.0, 2.0], "buckets": [1, 0], "overflow": 0,
            "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5}}}),
            encoding="utf-8")
        second.write_text(json.dumps({"histograms": {"latency_seconds": {
            "bounds": [1.0, 4.0], "buckets": [1, 0], "overflow": 0,
            "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5}}}),
            encoding="utf-8")
        assert main(["serve-stats", "--metrics", str(first),
                     "--metrics", str(second)]) == 2
        assert "cannot merge" in capsys.readouterr().err


class TestCliShadow:
    """``serve --shadow`` and the ``shadow-report`` command."""

    def _world(self, tmp_path):
        from repro.bench import shadow_divergence_case
        from repro.core.io import conventions_to_json
        primary, candidate, hostnames, expected = \
            shadow_divergence_case(n=50)
        primary_path = tmp_path / "primary.json"
        candidate_path = tmp_path / "candidate.json"
        primary_path.write_text(conventions_to_json(primary),
                                encoding="utf-8")
        candidate_path.write_text(conventions_to_json(candidate),
                                  encoding="utf-8")
        return primary_path, candidate_path, hostnames, expected

    def test_serve_shadow_answers_primary_and_reports(
            self, tmp_path, capsys, monkeypatch):
        import io
        import json
        from repro.serve.service import AnnotationService
        primary_path, candidate_path, hostnames, expected = \
            self._world(tmp_path)
        oracle = AnnotationService.from_json_file(str(primary_path))
        metrics = tmp_path / "metrics.json"
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("".join(h + "\n"
                                                for h in hostnames)))
        assert main(["serve", "--conventions", str(primary_path),
                     "--shadow", str(candidate_path),
                     "--metrics-out", str(metrics)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == len(hostnames)
        for hostname, asn, line in zip(hostnames,
                                       oracle.annotate_batch(hostnames),
                                       lines):
            assert line == "%s\t%s" % (hostname,
                                       asn if asn is not None else "-")
        assert "# shadowing" in captured.err
        assert "shadow disagreement report" in captured.err
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        assert snapshot["counters"]["shadow_requests"] == len(hostnames)
        assert snapshot["shadow"]["active"] is True

    def test_shadow_report_merges_metrics_files(self, tmp_path, capsys,
                                                monkeypatch):
        import io
        import json
        primary_path, candidate_path, hostnames, expected = \
            self._world(tmp_path)
        metrics = tmp_path / "metrics.json"
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("".join(h + "\n"
                                                for h in hostnames)))
        assert main(["serve", "--conventions", str(primary_path),
                     "--shadow", str(candidate_path),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        # Same file twice = two identical workers; counts double.
        assert main(["shadow-report", "--metrics", str(metrics),
                     "--metrics", str(metrics), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["requests"] == 2 * len(hostnames)
        for cls, count in expected.items():
            assert report[cls] == 2 * count
        assert main(["shadow-report", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "shadow disagreement report" in out
        assert "confl-bench.org" in out

    def test_shadow_report_unreachable_server(self, capsys):
        assert main(["shadow-report", "--port", "1"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_shadow_report_unreadable_metrics(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["shadow-report", "--metrics", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err


_STORE = {"--cache-dir", "--no-cache"}
_JOBS = {"--jobs", "--retries", "--retry-backoff"}
_ANNOTATE = {"--conventions", "--hostnames", "--checkpoint", "--out",
             "--format", "--chunk-size", "--memo-size"} | _JOBS
_PIPELINE = {"--seed", "--scale", "--trace-out", "--manifest-out"} \
    | _STORE | _JOBS

#: Every verb, and exactly the flags its handler reads.
VERB_FLAGS = {
    "learn": {"--hostnames", "--save"} | _STORE | _JOBS,
    "report": {"--hostnames"} | _STORE | _JOBS,
    "annotate": _ANNOTATE,
    "apply": _ANNOTATE,
    "serve": {"--conventions", "--shadow", "--memo-size", "--metrics-out"},
    "serve-http": {"--conventions", "--shadow", "--promote-threshold",
                   "--host", "--port", "--workers", "--max-body",
                   "--max-inflight", "--drain-grace", "--metrics-out",
                   "--access-log", "--trace-sample", "--trace-out",
                   "--history", "--history-interval", "--memo-size"}
    | _STORE,
    "loadgen": {"--hostnames", "--host", "--port", "--mode", "--requests",
                "--concurrency", "--rate", "--batch-size", "--loadgen-out"},
    "serve-stats": {"--metrics", "--format", "--json", "--output"},
    "shadow-report": {"--history", "--metrics", "--host", "--port",
                      "--json", "--top"},
    "watch": {"--host", "--port", "--interval", "--iterations"},
    "slo-report": {"--history", "--slo", "--json"} | _STORE,
    "bench": {"--output", "--section", "--rounds", "--check", "--jobs"},
    "cache": {"--cache-dir", "--namespace", "--json"},
    "trace": {"--top"},
    "run": _PIPELINE,
    "all": _PIPELINE,
    **{name: _PIPELINE for name in (
        "figure5", "figure6", "table1", "table2", "section5", "section7",
        "sensitivity", "appendix-a", "ablation")},
}


class TestVerbTable:
    """Each verb parses exactly the flags it reads."""

    def test_every_verb_is_pinned(self):
        assert sorted(verb.name for verb in _VERBS) == sorted(VERB_FLAGS)

    @pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
    def test_help_lists_exactly_the_flags_the_verb_reads(self, verb,
                                                          capsys):
        assert main([verb, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        assert usage.startswith("usage: repro-hoiho %s " % verb)
        assert set(re.findall(r"\[(--[\w-]+)", usage)) == VERB_FLAGS[verb]

    def test_positionals_of_cache_and_trace(self, capsys):
        assert main(["cache", "--help"]) == 0
        assert "[{info,clear}]" in capsys.readouterr().out
        assert main(["trace", "--help"]) == 0
        assert "{summary} file" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: repro-hoiho" in capsys.readouterr().out
        assert main([]) == 2

    def test_a_flag_the_verb_does_not_read_is_a_usage_error(self, capsys):
        assert main(["table1", "--scale", "tiny", "--port", "9",
                     "--workers", "7", "--rate", "3"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --port 9 --workers 7 --rate 3" \
            in err
        # Reported by the verb's own parser, with the verb's usage.
        assert err.startswith("usage: repro-hoiho table1 ")
        assert "error: unrecognized" in err.splitlines()[-1]

    def test_serve_stats_formats(self, capsys):
        assert main(["serve-stats", "--format", "jsonl"]) == 2
        assert "invalid choice: 'jsonl'" in capsys.readouterr().err


class TestParserLiterals:
    """Building the parser imports no experiment, ``Scale`` or
    ``serve.engine``, so the values it would take from them are
    literals; these pins keep each equal to its source."""

    @pytest.mark.parametrize("name", sorted(_EXPERIMENTS))
    def test_experiment_help_is_its_module_docstring(self, name):
        helps = {verb.name: verb.help for verb in _VERBS}
        assert helps[name] == _EXPERIMENTS[name] \
            == _experiment(name).__doc__.splitlines()[0]

    def test_scale_choices(self):
        from repro.eval.context import Scale
        assert list(_FLAGS["--scale"]["choices"]) \
            == [scale.value for scale in Scale]
        assert _FLAGS["--scale"]["default"] == Scale.SMALL.value

    def test_format_choices(self):
        from repro.serve.engine import SINKS
        assert list(_FLAGS["--format"]["choices"]) == sorted(SINKS)

    def test_chunk_size_help(self):
        from repro.serve.engine import DEFAULT_CHUNK_SIZE
        assert " %d " % DEFAULT_CHUNK_SIZE in _FLAGS["--chunk-size"]["help"]


#: A line invoking the CLI: the command runs from the token to a shell
#: operator or comment.
_INVOCATION = re.compile(r"(?:repro-hoiho|python -m repro\.cli)\s(.*)")
_SHELL_END = re.compile(r"\s+(?:[|;&<#]|\d?>)")


def _documented_commands():
    """``(where, argv)`` of every single-line CLI command in the docs
    and CI: inline code spans, and lines that do not continue onto the
    next."""
    paths = [ROOT / "README.md", ROOT / "DESIGN.md",
             ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md")),
             ROOT / ".github" / "workflows" / "ci.yml"]
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            where = "%s:%d" % (path.relative_to(ROOT), number)
            if "`" in line:
                texts = [span for span in re.findall(r"`([^`]*)`", line)
                         if _INVOCATION.match(span)]
            elif line.rstrip().endswith("\\"):
                continue
            else:
                texts = [line[match.start():]
                         for match in [_INVOCATION.search(line)] if match]
            for text in texts:
                rest = _INVOCATION.match(text + " ").group(1)
                yield where, shlex.split(_SHELL_END.split(rest)[0])


def _serve_bench_argv():
    """The argv ``benchmarks/e2e/serve.py`` boots ``serve-http`` with;
    each value computed at run time reads as ``1``."""
    tree = ast.parse((ROOT / "benchmarks" / "e2e" / "serve.py")
                     .read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.List) and any(
                isinstance(item, ast.Constant) and item.value == "serve-http"
                for item in node.elts):
            argv = [item.value if isinstance(item, ast.Constant) else "1"
                    for item in node.elts]
            return argv[argv.index("serve-http"):]
    raise AssertionError("no serve-http argv in benchmarks/e2e/serve.py")


class TestDocumentedCommands:
    def test_docs_name_commands(self):
        commands = list(_documented_commands())
        assert len(commands) > 50
        verbs = {argv[0] for _, argv in commands}
        assert {"run", "learn", "serve-http", "cache", "trace"} <= verbs

    @pytest.mark.parametrize(
        "where, argv",
        list(_documented_commands()) + [("benchmarks/e2e/serve.py",
                                         _serve_bench_argv())])
    def test_command_parses(self, where, argv, capsys):
        try:
            _build_parser().parse_args(argv)
        except SystemExit as exc:  # 0 after printing --help
            if exc.code != 0:
                pytest.fail("%s: %r does not parse (exit %s)"
                            % (where, argv, exc.code))
