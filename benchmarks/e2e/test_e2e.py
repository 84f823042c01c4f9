"""Self-test of the end-to-end benchmark.

``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (outside tier-1's
``testpaths``).  One ``--quick`` run (TINY scale, ~1 min) backs the
report checks; the load-generator checks use a small server of their own.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from benchmarks.e2e.common import ROOT, SRC, load_spec
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.serve import LoadGenerator, RATE, Server, traffic
from benchmarks.e2e.speed import MEASURED_CPU, SpeedProbe
from repro.core.hoiho import Hoiho
from repro.core.io import conventions_to_json
from repro.core.types import TrainingItem
from repro.obs.trace import load_trace
from repro.serve.service import AnnotationService

WORKLOADS = ("run_small", "relearn_small", "serve_single_zipf",
             "serve_batch_unique")


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--quick", "--seed", "3",
         "--out", str(out)],
        cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=600)
    return proc, json.loads(out.read_text()), out


def test_quick_run_succeeds_without_failures(quick):
    proc, results, _ = quick
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    for name in WORKLOADS:
        workload = results["workloads"][name]
        assert workload["attempted"] > 0
        assert workload["end_to_end"]["error_rate"]["median"] == 0


def test_every_listed_metric_appears_with_its_unit(quick):
    proc, results, _ = quick
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    last = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name in WORKLOADS:
        end_to_end = results["workloads"][name]["end_to_end"]
        for entry in spec["end_to_end"]:
            assert end_to_end[entry["name"]]["unit"] == entry["unit"]
            assert end_to_end[entry["name"]]["median"] > 0
        for entry in spec["end_to_end"] + spec["per_layer"]:
            assert last["%s/%s" % (name, entry["name"])]["unit"] \
                == entry["unit"]
    machine = results["machine"]
    assert machine["nproc"] == os.cpu_count() and machine["scale"] == "tiny"


def test_traced_layers_account_for_the_run(quick):
    _, results, out = quick
    layers = results["workloads"]["run_small"]["per_layer"]
    assert 0 <= layers["trace.unattributed_share"]["value"] <= 0.1
    assert layers["bdrmapit.graph.share"]["value"] > 0
    names = {record["name"] for record in
             load_trace(str(out) + ".trace.jsonl")}
    assert {"stage.timeline", "snapshot.graph", "stage.learn",
            "core.delta.plan", "serve.closed_loop", "serve.codec"} <= names


def test_load_generator_stays_within_nproc(quick):
    _, results, _ = quick
    for name in ("serve_single_zipf", "serve_batch_unique"):
        info = results["workloads"][name]["info"]
        assert 1 <= info["peak_threads"] <= os.cpu_count()
        assert 1 <= info["peak_connections"] <= os.cpu_count()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    result = Hoiho().run([
        TrainingItem("as%d.pop%d.example.com" % (asn, i % 3), asn)
        for i, asn in enumerate([3356, 1299, 174, 2914, 6453])])
    conventions = tmp_path_factory.mktemp("serve") / "conventions.json"
    conventions.write_text(conventions_to_json(result))
    live = Server(conventions)
    live.start()
    try:
        yield live, AnnotationService.from_json_file(str(conventions),
                                                     memo_size=0)
    finally:
        assert live.stop() == 0


def test_planted_wrong_answer_counts_as_a_failure(server):
    live, reference = server
    hostnames = ["as%d.pop1.example.com" % asn for asn in range(100, 140)]
    answers = reference.annotate_batch(hostnames)
    planted = list(answers)
    planted[7] = 99999
    client = LoadGenerator(live.host, live.port)
    for batch in (False, True):
        assert client.closed_loop(traffic(hostnames, answers, batch)) \
            .failed == 0
        phase = client.closed_loop(traffic(hostnames, planted, batch))
        assert phase.failed == 1 and phase.attempted == (1 if batch else 40)


def test_client_never_exceeds_nproc(server):
    live, reference = server
    hostnames = ["as%d.pop2.example.com" % asn for asn in range(1, 50)]
    load = traffic(hostnames, reference.annotate_batch(hostnames), False)
    client = LoadGenerator(live.host, live.port)
    assert client.closed_loop(load, 0.3).failed == 0
    assert client.open_loop(load, RATE, 0.3).failed == 0
    client.scrape()
    assert 1 <= client.peak_threads <= os.cpu_count()
    assert 1 <= client.peak_connections <= os.cpu_count()


def test_speed_probe_shares_the_measured_cpu_and_stops():
    with SpeedProbe() as probe:
        assert os.sched_getaffinity(probe.proc.pid) == {MEASURED_CPU}
        start = time.monotonic()
        time.sleep(0.3)
        end = time.monotonic()
    assert probe.proc.returncode == 0
    slowdown = probe.slowdown(start, end)
    assert slowdown > 0
    assert probe.reference(2.0, start, end) == pytest.approx(2.0 / slowdown)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5]
    assert verdict(base, [100.2, 99.8], "lower", 0.1) == "same"
    assert verdict(base, [120.0, 125.0], "lower", 0.1) == "worse"
    assert verdict(base, [120.0, 125.0], "higher", 0.1) == "better"
    noisy = [50.0, 100.0, 150.0, 200.0]
    assert verdict(noisy, [120.0], "lower", 0.1) == "unresolved"
    assert verdict(noisy, [10.0], "lower", 0.1) == "better"
