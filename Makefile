PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-slow test-faults bench lint

# Tier-1: slow (full-scale pipeline) and smoke tests are excluded by the
# default pytest addopts; `make test-slow` runs only the slow ones.
test:
	$(PYTHON) -m pytest tests/ -q

test-slow:
	$(PYTHON) -m pytest tests/ -q -m slow

# Fault-injection suite: injected worker crashes, poison chunks,
# hang + timeout, degrade-to-serial, and checkpoint-resume round
# trips (docs/ROBUSTNESS.md).  CI runs this in its own job.
test-faults:
	$(PYTHON) -m pytest tests/core/test_resilience.py \
		tests/serve/test_faults.py -q -m 'slow or not slow'

# Refresh BENCH_learner.json: every section, or only the ones named in
# SECTIONS (e.g. `make bench SECTIONS="serve http"`; the names are the
# rows of repro.bench.SECTIONS).
bench:
	$(PYTHON) benchmarks/bench_report.py $(foreach s,$(SECTIONS),--section $(s))

lint:
	$(PYTHON) -m pyflakes src/repro tests benchmarks 2>/dev/null || true
