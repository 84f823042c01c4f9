"""Live bounds on the serving hot path and on shadow deployment.

Each kernel is timed once per module, best of ten rounds (fewer can
miss the dispatch or bulk bound on a shared 2-vCPU host), by
:func:`repro.bench.run_serve_bench` and
:func:`repro.bench.run_shadow_bench`.  Tier-1 deselects these tests
(``-m 'not slow and not smoke'``); ``pytest -m smoke
tests/integration`` runs them.
"""

import pytest

from repro.bench import run_serve_bench, run_shadow_bench

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def serve():
    return run_serve_bench(rounds=10)


@pytest.fixture(scope="module")
def shadow():
    return run_shadow_bench(rounds=10)


def test_warm_dispatch_rate(serve):
    # Floored absolutely: the linear path runs the label-walk PSL, so
    # the ratio below no longer isolates dispatch.
    assert serve["dispatch_per_second"] >= 250_000


def test_dispatch_beats_the_linear_apply_loop(serve):
    assert serve["speedup_vs_linear"] > 1.0


def test_memo_speeds_up_the_zipf_stream(serve):
    assert serve["memo_speedup"] >= 1.5
    assert serve["memo_per_second"] >= 500_000


def test_bulk_annotation_fans_out(serve):
    # A ratio measured with one worker reflects the host, not the
    # fan-out.
    if serve["bulk_workers"] < 2:
        pytest.skip("not measured (%d workers)" % serve["bulk_workers"])
    assert serve["bulk_speedup"] >= 1.5


def test_shadow_overhead(shadow):
    assert shadow["overhead_ratio"] <= 3.0


def test_shadow_ledger_is_exact(shadow):
    assert shadow["observed"] == shadow["expected"]
    assert shadow["primary_identical"]
