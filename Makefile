# Convenience targets for the smart-arrays reproduction.

PYTHON ?= python

.PHONY: install test bench figures examples live loc clean all

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every paper table/figure report into benchmarks/results/.
figures:
	cd benchmarks && for f in bench_*.py; do $(PYTHON) $$f; done

examples:
	for f in examples/*.py; do $(PYTHON) $$f || exit 1; done

# Live-adaptation demo (daemon-driven online migration) + its report.
live:
	$(PYTHON) -m repro live
	cd benchmarks && $(PYTHON) bench_live_adaptation.py

# Python source lines under src/ (the tracked size metric).
loc:
	@find src -name '*.py' -exec cat {} + | wc -l

artifacts: ## the final paper-trail outputs
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	    benchmarks/results test_output.txt bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +

all: install test bench figures
