# Developer entry points for the correlation-rule-mining reproduction.

PYTHON ?= python

.PHONY: install test test-fast test-all lint lint-strict lint-json bench bench-counting bench-mine bench-mine-smoke bench-paper examples service-smoke all

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Tier-1: everything except tests marked @pytest.mark.slow (worker-pool
# spin-ups, large property sweeps) — the quick pre-commit gate.  Works
# from a bare checkout: src/ is put on PYTHONPATH, no install needed.
test-fast:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest tests/ -x -q -m "not slow"

# The full suite, slow markers included.
test-all:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest tests/ -q

# replint: the project's semantic invariant checker (see
# docs/static_analysis.md).  Exits non-zero on any violation or on an
# undocumented/stale suppression; stdlib-only, so it runs everywhere.
# Incremental by default (.replint-cache.json, gitignored): a warm tree
# pays only for what changed.
lint:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.analysis

# The CI gate: no cache (a fresh runner has none to trust) and strict
# suppression hygiene.
lint-strict:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.analysis --no-cache --strict

lint-json:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.analysis --format json

bench: bench-counting
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Counting-backend shootout (single_pass vs bitmap vs vectorized) on the
# census and Quest datasets; writes the machine-readable report.
bench-counting:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_vectorized_counting.py --output BENCH_counting.json

# End-to-end mine wall-time for every counting backend plus the FP-tree
# top-K branch-and-bound; writes the machine-readable report.  The
# smoke variant is the seconds-long CI gate (tiny Quest, no census): it
# fails the build if any registry backend mines a different border than
# bitmap, and prints the parallel/bitmap ratio measured in the run.
bench-mine:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_mine.py --output BENCH_mine.json

bench-mine-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_mine.py --smoke --output BENCH_mine_smoke.json

# The paper's examples and Tables 1-5 checked against the published
# numbers (Table 2's 44/45 decisions, Table 5's pruning counts),
# untimed: the CI gate on the paper reproduction.  Needs NumPy and
# pytest-benchmark.
bench-paper:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q benchmarks/bench_examples.py benchmarks/bench_table[1-5]_*.py --benchmark-disable

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/market_basket_pitfalls.py
	$(PYTHON) examples/census_mining.py
	$(PYTHON) examples/records_pipeline.py
	$(PYTHON) examples/beyond_binary.py
	$(PYTHON) examples/text_mining.py --max-level 2
	$(PYTHON) examples/quest_pruning.py
	$(PYTHON) examples/streaming_service.py

# Boot the streaming mining service against a real HTTP socket, append
# and query over the wire, and assert the incremental state matches a
# cold batch mine plus telemetry reconciliation (the CI service gate).
service-smoke:
	$(PYTHON) examples/streaming_service.py

all: test bench
