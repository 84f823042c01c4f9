"""The incremental-learning smoke: real cached CLI runs through the store.

A cold and a warm traced TINY ``run`` share one ``--cache-dir``: the
cold run goes through the delta planner (all misses), the warm one is
served by the store at least 5x faster, and both manifests and traces
validate.  Sections 5 and 7 and the ablation read the stored timeline
and must print a storeless run's output byte for byte; ``cache info``
counts the suffixes the cold run packed, ``cache clear`` drops them;
a warm traced ``all`` builds one naming plan.

Each command runs in a child process, as a user would run it.  The
tests share one store and run in file order; tier-1 deselects them
(``-m 'not slow and not smoke'``), and ``pytest -m smoke`` runs them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.manifest import validate_manifest_file, validate_trace_file

pytestmark = pytest.mark.smoke

SRC = Path(__file__).resolve().parents[2] / "src"


def _cli(workdir, *argv, check=True):
    """``python -m repro.cli *argv`` in ``workdir``; the completed run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          cwd=workdir, env=env, capture_output=True,
                          text=True)
    if check:
        assert done.returncode == 0, done.stderr
    return done


def _records(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A store after a cold and a warm traced ``run --scale tiny``."""
    workdir = tmp_path_factory.mktemp("incremental")
    for name in ("cold", "warm"):
        _cli(workdir, "run", "--scale", "tiny", "--cache-dir", "cache",
             "--trace-out", "%s.jsonl" % name,
             "--manifest-out", "%s.manifest.json" % name)
    return workdir


class TestColdAndWarmRuns:
    def test_manifests_and_traces_validate(self, workdir):
        for name in ("cold", "warm"):
            assert validate_manifest_file(
                str(workdir / ("%s.manifest.json" % name))) == []
            assert validate_trace_file(
                str(workdir / ("%s.jsonl" % name))) == []

    def test_cold_learn_span_carries_suffix_cache_attrs(self, workdir):
        attrs = [r["attrs"] for r in _records(workdir / "cold.jsonl")
                 if r["name"] == "stage.learn"
                 and "suffix_cache_misses" in r.get("attrs", {})]
        assert attrs, "cold stage.learn span carries no suffix-cache attrs"

    def test_warm_run_is_5x_faster_than_cold(self, workdir):
        cold, warm = (json.loads((workdir / ("%s.manifest.json" % name))
                                 .read_text())["wall_seconds"]
                      for name in ("cold", "warm"))
        assert warm * 5.0 <= cold, \
            "warm cached run not >= 5x faster than cold (%.2fs, %.2fs)" \
            % (cold, warm)


@pytest.mark.parametrize("experiment", ["section5", "section7", "ablation"])
def test_stored_timeline_output_equals_storeless(workdir, experiment):
    """These read the newest ITDK snapshot's body, which holds no traces
    and no naming records: the replayed campaign's graph and the
    re-derived naming must give the storeless output."""
    cached = _cli(workdir, experiment, "--scale", "tiny",
                  "--cache-dir", "cache").stdout
    assert cached == _cli(workdir, experiment, "--scale", "tiny").stdout


def test_suffix_namespace_counts_one_pack_and_clears(workdir):
    info = json.loads(_cli(workdir, "cache", "info", "--cache-dir", "cache",
                           "--json").stdout)
    [put] = [r["attrs"] for r in _records(workdir / "cold.jsonl")
             if r.get("name") == "store.put"
             and r["attrs"].get("kind") == "suffixes"]
    entries = info["kinds"]["suffixes"]["entries"]
    assert entries == put["entries"] > 0, (entries, put)
    assert not list((workdir / "cache" / "suffixes").glob("*.json"))
    assert "namespace suffixes" in _cli(
        workdir, "cache", "clear", "--cache-dir", "cache",
        "--namespace", "suffixes").stdout
    info = json.loads(_cli(workdir, "cache", "info", "--cache-dir", "cache",
                           "--json").stdout)
    assert info["kinds"]["suffixes"]["entries"] == 0, info


def test_warm_all_builds_one_naming_plan(workdir):
    """A warm context re-attaches a provider of its one naming plan to
    the stored sets, so a warm ``all`` builds it once."""
    _cli(workdir, "all", "--scale", "tiny", "--cache-dir", "cache",
         "--trace-out", "warm-all.jsonl")
    plans = [r for r in _records(workdir / "warm-all.jsonl")
             if r["name"] == "naming.plan"]
    assert len(plans) == 1, plans


def test_a_flag_of_another_verb_exits_2(workdir):
    done = _cli(workdir, "table1", "--scale", "tiny", "--port", "9",
                check=False)
    assert done.returncode == 2, done.stderr
