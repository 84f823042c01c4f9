PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-slow test-faults lint

# Tier-1: slow (full-scale pipeline) and smoke tests are excluded by the
# default pytest addopts; `make test-slow` runs only the slow ones.
test:
	$(PYTHON) -m pytest tests/ -q

test-slow:
	$(PYTHON) -m pytest tests/ -q -m slow

# Fault-injection suite (docs/ROBUSTNESS.md), the command CI's
# fault-injection job runs: the slow pool-backed fault paths (injected
# worker crashes, poison chunks, hang + timeout, degrade-to-serial,
# checkpoint-resume), the SMALL parallel == serial timeline proof and
# the SMALL walk oracle.  Their fast tests run in `make test`.
test-faults:
	$(PYTHON) -m pytest -q -m slow tests/core/test_resilience.py \
		tests/serve/test_faults.py tests/eval/test_timeline_parallel.py \
		tests/traceroute/test_walk_oracle.py

# Compile every module in memory with warnings as errors, stdlib only
# and writing no .pyc: a syntax error or a warning such as an invalid
# escape sequence fails the target, naming the file and line.
lint:
	$(PYTHON) -W error -c 'import pathlib, sys; [compile(p.read_bytes(), str(p), "exec") for d in sys.argv[1:] for p in sorted(pathlib.Path(d).rglob("*.py"))]' src/repro tests benchmarks
