# Convenience entry points.  Everything runs with PYTHONPATH=src so no
# install step is needed.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint typecheck fuzz fuzz-smoke serve-smoke soak bench bench-dd bench-portfolio bench-zx bench-service bench-parameterized bench-qasm

# Tier-1 gate: the full unit-test suite.  When pytest-cov is installed
# (pip install .[test], as CI does) the run also enforces the line-
# coverage floors of tools/coverage_floor.json on repro.ec and
# repro.circuit; without it (the hermetic test container) the suite
# runs plain — the gate degrades, it never blocks on a missing tool.
test:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -x -q \
			--cov=repro.ec --cov=repro.circuit \
			--cov-report=json:coverage.json --cov-report=term && \
		$(PYTHON) tools/check_coverage.py; \
	else \
		$(PYTHON) -m pytest -x -q; \
	fi

# Project-invariant AST lint (always available) plus ruff when installed.
# ruff/mypy are optional-dependency tools ([project.optional-dependencies]
# lint); the targets degrade gracefully where they are not installed so
# `make lint` works in the hermetic test container, while CI installs
# them and gets the full gate.
lint:
	$(PYTHON) tools/check_repro.py --json lint_report.json
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests tools benchmarks; \
	else \
		echo "ruff not installed; skipping (pip install .[lint])"; \
	fi

typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping (pip install .[lint])"; \
	fi

# The acceptance fuzz campaign: 300 Clifford+T pairs through the full
# differential oracle.  Exit 0 = all checkers agreed, exit 2 = at least
# one disagreement was shrunk and written to corpus/.
fuzz:
	$(PYTHON) -m repro fuzz --seed 0 --budget 300 --family clifford_t

# The ~30 s seeded smoke budget that also runs inside tier-1.
fuzz-smoke:
	$(PYTHON) -m pytest -m fuzz_smoke -q

# End-to-end service smoke: real server + client over an AF_UNIX socket,
# the same 20-pair batch twice; the second submit must be served from
# the verdict cache and the draining shutdown must leave zero children.
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

# The chaos-soak acceptance campaign: 200 jobs through a 4-worker pool
# under seeded kill/hang/leak faults plus two planted poison pairs.
# Exit 0 = zero lost jobs, zero zombies, verdict parity with run_check.
soak:
	$(PYTHON) -m repro soak --jobs 200 --seed 0

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate BENCH_dd_kernels.json: the DD checkers on Table-1-style
# pairs and on the optimized Table-1 cells that dominate the DD column,
# keeping the trajectory.
bench-dd:
	$(PYTHON) benchmarks/bench_dd_kernels.py

# Regenerate BENCH_portfolio.json: sequential combined schedule vs the
# concurrent strategy portfolio on Table-1-style compiled cells.
bench-portfolio:
	$(PYTHON) benchmarks/bench_portfolio.py

# Regenerate BENCH_zx_simplify.json: full_reduce on every Table-1
# optimized cell (all three configurations), keeping the trajectory.
bench-zx:
	$(PYTHON) benchmarks/bench_zx_simplify.py

# Regenerate BENCH_service.json: per-job fork sandbox vs the supervised
# worker pool vs a full verdict-cache replay.
bench-service:
	$(PYTHON) benchmarks/bench_service.py

# Regenerate BENCH_parameterized.json: symbolic-first vs
# instantiate-only parameterized equivalence checking on seeded ansatz
# pairs.
bench-parameterized:
	$(PYTHON) benchmarks/bench_parameterized.py

# Regenerate BENCH_qasm.json: circuit_from_qasm on the 48 Table-1 texts
# (best-of-3 per text, statements/s summary), keeping the trajectory.
bench-qasm:
	$(PYTHON) benchmarks/bench_qasm.py
