# Developer entry points. `make check` is the everyday gate: lint, the
# repo-specific static analyzer, the full unit and integration suite
# (including the cross-engine API-parity tests under tests/api/), plus a
# real sharded parallel sweep, so the runner path is exercised outside
# its unit tests on every run.
#
# `make ci` mirrors .github/workflows/ci.yml on one machine: lint, the
# analyzer (python -m tools.analysis -- determinism, schema round-trips,
# facade purity, registry hygiene), the suite with slow-test timings,
# then the sweep gate (tools/sweep_gate.py) -- both execution backends
# (process, serial) must produce byte-identical stable JSON, merging four shard stores
# must reproduce the unsharded sweep, and the chaos leg must prove the
# lease fabric: a sweep under deterministic fault injection (crashes,
# hangs, torn writes, renewal stalls) byte-identical to a clean sweep,
# every fault class visible in the fabric.retry.* metrics.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check ci lint analyze test test-ci smoke serve-smoke sweep-gate \
	bench bench-pytest

check: lint analyze test smoke

ci: lint analyze test-ci sweep-gate serve-smoke

lint:
	$(PYTHON) tools/lint.py src tests tools benchmarks examples

analyze:
	$(PYTHON) -m tools.analysis src tests tools benchmarks examples

test:
	$(PYTHON) -m pytest -q

test-ci:
	$(PYTHON) -m pytest -q --durations=10

smoke:
	$(PYTHON) -m pytest -q -m smoke
	$(PYTHON) -m repro batch-check --shard 0/8 --jobs 2

sweep-gate:
	$(PYTHON) tools/sweep_gate.py

# Boot a real `repro serve` daemon and walk the lifecycle: cold stream,
# warm cached repeat, raw .g text, /metrics scrape, drained shutdown
# (mirrors the CI serve job).
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

# The perf ledger, one tool and one file: kernel rows with per-stage
# self-times, the tracing row, the cold/warm --bdd-cache sweep and the
# serve daemon (8 concurrent clients, cold vs warm p50/p99, plus the
# edit loop: cold vs --base-seeded re-checks) to BENCH.json.
bench:
	$(PYTHON) tools/bench.py --quick

bench-pytest:
	$(PYTHON) -m pytest benchmarks --benchmark-only
