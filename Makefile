# Repo tooling. `make help` lists targets.

PYTHON ?= python
PYTHONPATH := src

.PHONY: help test bench bench-smoke bench-oracle bench-json docs-check typecheck lint

help:
	@echo "targets:"
	@echo "  test        tier-1 suite (tests/ + benchmarks/, what CI gates on)"
	@echo "  bench       artifact-regenerating benches only (-> benchmarks/results/)"
	@echo "  bench-smoke fig1 store+resume round trip, jobs 1 vs 2 (pooled grid,"
	@echo "              4 golden runs) per-cell class diff, prune off/dead classification"
	@echo "              diff (fig1 regfile, and the Fig. 3 l1d.data flow"
	@echo "              on sha), prune static (capture-free dataflow pruning,"
	@echo "              REPRO_STATIC_XCHECK sanitizer on) vs off class diffs"
	@echo "              at all three tiers, sweep-scenario store+resume round"
	@echo "              trip (+ CSV artifact), binary vs jsonl store-format"
	@echo "              class diff, lanes=8 vs lanes=1 class diffs at all"
	@echo "              three tiers (repro.batch), REPRO_CHAOS"
	@echo "              degraded-completion leg (crash+hang injection,"
	@echo "              quarantine, no-op resume) + warm-start speedup artifact"
	@echo "  bench-oracle one round of every bench/ workload on the held-out"
	@echo "              seed 7; fails when any class differs from the"
	@echo "              all-accelerators-off oracle (timings not gated)"
	@echo "  bench-json  distill benchmarks/results/*.txt into BENCH_4.json"
	@echo "  docs-check  fail on dangling file references in README.md / DESIGN.md"
	@echo "  typecheck   mypy --strict over the typed surface (mypy.ini files=)"
	@echo "  lint        repro-study staticcheck --all + ruff (pyflakes, isort)"

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Both tooling gates degrade politely when the tool is absent (the
# container images bake in only the runtime deps); CI installs
# mypy/ruff and runs them for real.  The workload linter needs no
# third-party tool and always runs.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
	  $(PYTHON) -m mypy --config-file mypy.ini; \
	else \
	  echo "typecheck: mypy not installed, skipping (CI runs it)"; \
	fi

lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli staticcheck --all
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
	  $(PYTHON) -m ruff check .; \
	else \
	  echo "lint: ruff not installed, skipping (CI runs it)"; \
	fi

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q

# The resumable-campaign smoke: the same `run fig1` command twice over
# stringsearch and sha -- the first populates a fresh store (a --resume
# of an empty store is a fresh start), the second resumes it and must
# re-run nothing -- then the store summary.  The jobs leg re-runs the
# same cells at --jobs 1 and diffs every cell's classes against the
# --jobs 2 store, whose four (level, workload) golden runs were
# captured by pool workers ahead of the fault stream and evicted as
# their cells completed: cross-jobs exactness of the pooled grid
# schedule.  The prune leg runs the same cells with prune=off and diffs
# every cell's classes against the prune=dead smoke store: dead pruning
# exactness, window-bounded verdicts included, on two workloads per
# tier.  The static legs re-run fig1's cells (and, below, the
# sweep's arch cell) with prune=static -- capture-free dataflow
# pruning, sanitizer cross-check live -- and diff classes against the
# prune=off stores: the static exactness contract at all three tiers.  The sweep-smoke scenario (2 levels x 2 prune modes)
# then exercises the scenario layer end to end the same way: run twice
# with store+resume, export the ResultSet CSV (a CI artifact), and diff
# each level's prune=off vs prune=dead store class-by-class (the
# exactness contract, via the sweep path).  The lanes leg re-runs the
# sweep's cells at all three tiers with execution.lanes=8 (the lane
# walk) into a fresh store and diffs every cell's classes against its
# scalar store (the cross-lane exactness contract, via the CLI path):
# the sweep store for arch and uarch, and for rtl -- not part of the
# sweep preset -- a scalar rtl run made first.  The jsonl
# leg re-runs the sweep's arch cells with execution.store_format=jsonl
# and diffs them against the (binary, format-2) sweep store -- the
# cross-format exactness contract, read straight off the mmap on the
# binary side.  The
# chaos leg re-runs the sweep's arch cells under deterministic fault
# injection into the *executor* (REPRO_CHAOS: one transient worker
# crash at fault #2, one persistent hang at fault #5): the campaign
# must complete degraded (assert_store_incidents.py requires at least
# one quarantined incident), a chaos-free resume must re-run nothing,
# and the surviving classifications must diff clean against the
# undisturbed sweep store (diff_store_classes.py masks quarantined
# indices out of both sides).  The
# warm-start speedup bench publishing
# benchmarks/results/warmstart_speedup.txt runs only when `make test` /
# `make bench` has not already written the artifact (CI runs `make
# test` first, so the expensive cold campaign is not paid twice).
bench-smoke:
	rm -rf benchmarks/results/smoke_store benchmarks/results/smoke_prune
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run fig1 \
	  --set targets.workloads=stringsearch,sha --set faults.samples=20 \
	  --jobs 2 --store benchmarks/results/smoke_store --resume
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run fig1 \
	  --set targets.workloads=stringsearch,sha --set faults.samples=20 \
	  --jobs 2 --store benchmarks/results/smoke_store --resume
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli store \
	  benchmarks/results/smoke_store/*
	rm -rf benchmarks/results/smoke_jobs1
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run fig1 \
	  --set targets.workloads=stringsearch,sha --set faults.samples=20 \
	  --jobs 1 --store benchmarks/results/smoke_jobs1
	for cell in benchmarks/results/smoke_store/*; do \
	  $(PYTHON) tools/diff_store_classes.py \
	    benchmarks/results/smoke_jobs1/$$(basename $$cell) $$cell \
	    || exit 1; \
	done
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run fig1 \
	  --set targets.workloads=stringsearch,sha --set faults.samples=20 \
	  --jobs 2 --prune off \
	  --store benchmarks/results/smoke_prune
	for cell in benchmarks/results/smoke_store/*; do \
	  $(PYTHON) tools/diff_store_classes.py \
	    $$cell benchmarks/results/smoke_prune/$$(basename $$cell) \
	    || exit 1; \
	done
	rm -rf benchmarks/results/smoke_fig3 benchmarks/results/smoke_fig3_off
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run \
	  bench/workloads/fig3-l1d.toml \
	  --set sweep.seed=1,2 --set faults.samples=12 --prune dead \
	  --store benchmarks/results/smoke_fig3
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run \
	  bench/workloads/fig3-l1d.toml \
	  --set sweep.seed=1,2 --set faults.samples=12 --prune off \
	  --store benchmarks/results/smoke_fig3_off
	for cell in benchmarks/results/smoke_fig3/*; do \
	  $(PYTHON) tools/diff_store_classes.py \
	    benchmarks/results/smoke_fig3_off/$$(basename $$cell) $$cell \
	    || exit 1; \
	done
	rm -rf benchmarks/results/smoke_static
	REPRO_STATIC_XCHECK=1 \
	  PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run fig1 \
	  --set targets.workloads=stringsearch --set faults.samples=20 \
	  --jobs 2 --prune static \
	  --store benchmarks/results/smoke_static
	$(PYTHON) tools/diff_store_classes.py \
	  benchmarks/results/smoke_static/uarch-stringsearch-regfile-pinout \
	  benchmarks/results/smoke_prune/uarch-stringsearch-regfile-pinout
	$(PYTHON) tools/diff_store_classes.py \
	  benchmarks/results/smoke_static/rtl-stringsearch-regfile-pinout \
	  benchmarks/results/smoke_prune/rtl-stringsearch-regfile-pinout
	rm -rf benchmarks/results/smoke_sweep
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run sweep-smoke \
	  --set execution.store=benchmarks/results/smoke_sweep \
	  --set execution.resume=true \
	  --csv benchmarks/results/sweep_smoke.csv
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run sweep-smoke \
	  --set execution.store=benchmarks/results/smoke_sweep \
	  --set execution.resume=true \
	  --csv benchmarks/results/sweep_smoke.csv
	$(PYTHON) tools/diff_store_classes.py \
	  benchmarks/results/smoke_sweep/arch-stringsearch-regfile-pinout-prune=off \
	  benchmarks/results/smoke_sweep/arch-stringsearch-regfile-pinout-prune=dead
	$(PYTHON) tools/diff_store_classes.py \
	  benchmarks/results/smoke_sweep/uarch-stringsearch-regfile-pinout-prune=off \
	  benchmarks/results/smoke_sweep/uarch-stringsearch-regfile-pinout-prune=dead
	rm -rf benchmarks/results/smoke_static_arch
	REPRO_STATIC_XCHECK=1 \
	  PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run sweep-smoke \
	  --set targets.levels=arch --set sweep.prune=static \
	  --set execution.store=benchmarks/results/smoke_static_arch
	$(PYTHON) tools/diff_store_classes.py \
	  benchmarks/results/smoke_static_arch/arch-stringsearch-regfile-pinout-prune=static \
	  benchmarks/results/smoke_sweep/arch-stringsearch-regfile-pinout-prune=off
	rm -rf benchmarks/results/smoke_jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run sweep-smoke \
	  --set targets.levels=arch \
	  --set execution.store=benchmarks/results/smoke_jsonl \
	  --set execution.store_format=jsonl
	$(PYTHON) tools/diff_store_classes.py \
	  benchmarks/results/smoke_jsonl/arch-stringsearch-regfile-pinout-prune=off \
	  benchmarks/results/smoke_sweep/arch-stringsearch-regfile-pinout-prune=off
	$(PYTHON) tools/diff_store_classes.py \
	  benchmarks/results/smoke_jsonl/arch-stringsearch-regfile-pinout-prune=dead \
	  benchmarks/results/smoke_sweep/arch-stringsearch-regfile-pinout-prune=dead
	rm -rf benchmarks/results/smoke_rtl benchmarks/results/smoke_lanes
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run sweep-smoke \
	  --set targets.levels=rtl \
	  --set execution.store=benchmarks/results/smoke_rtl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run sweep-smoke \
	  --set targets.levels=arch,uarch,rtl --set execution.lanes=8 \
	  --set execution.store=benchmarks/results/smoke_lanes
	for cell in benchmarks/results/smoke_lanes/*; do \
	  scalar=benchmarks/results/smoke_sweep/$$(basename $$cell); \
	  test -d $$scalar || \
	    scalar=benchmarks/results/smoke_rtl/$$(basename $$cell); \
	  $(PYTHON) tools/diff_store_classes.py $$scalar $$cell || exit 1; \
	done
	rm -rf benchmarks/results/smoke_chaos
	REPRO_CHAOS='segv@2,hang*@5' \
	  PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run sweep-smoke \
	  --set targets.levels=arch \
	  --set execution.batch_size=1 --set execution.batch_timeout=5 \
	  --set execution.store=benchmarks/results/smoke_chaos
	$(PYTHON) tools/assert_store_incidents.py \
	  benchmarks/results/smoke_chaos 1
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli store \
	  benchmarks/results/smoke_chaos/*
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli run sweep-smoke \
	  --set targets.levels=arch \
	  --set execution.batch_size=1 \
	  --set execution.store=benchmarks/results/smoke_chaos \
	  --set execution.resume=true
	$(PYTHON) tools/diff_store_classes.py \
	  benchmarks/results/smoke_chaos/arch-stringsearch-regfile-pinout-prune=off \
	  benchmarks/results/smoke_sweep/arch-stringsearch-regfile-pinout-prune=off
	$(PYTHON) tools/diff_store_classes.py \
	  benchmarks/results/smoke_chaos/arch-stringsearch-regfile-pinout-prune=dead \
	  benchmarks/results/smoke_sweep/arch-stringsearch-regfile-pinout-prune=dead
	test -f benchmarks/results/warmstart_speedup.txt || \
	  PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
	    benchmarks/test_warmstart_speedup.py -q
	@echo "--- benchmarks/results/warmstart_speedup.txt:"
	@cat benchmarks/results/warmstart_speedup.txt

# The campaign benchmark's class oracle (bench/README.md) on its
# held-out seed: one round per workload.  bench/run.py exits 1 when a
# lane engine or a pruner classifies any fault differently from the
# oracle, which was recorded with every accelerator off; the timings it
# prints are informational and never gate.
bench-oracle:
	$(PYTHON) bench/run.py --seed 7

bench-json:
	$(PYTHON) tools/bench_summary.py

docs-check:
	$(PYTHON) tools/docs_check.py README.md DESIGN.md
