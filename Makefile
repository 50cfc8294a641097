# Developer entry points. Everything runs against the in-tree sources.
export PYTHONPATH := src

.PHONY: test fast stress loc bench bench-directory bench-fastpath bench-recovery bench-gang bench-quick bench-e2e bench-pairs obs-smoke obs-svg shard-smoke recovery-smoke gang-smoke

test:   ## tier-1 verify: the full suite (virtual time keeps it quick)
	python -m pytest -x -q

fast:   ## the suite minus the seeded fault-injection stress runs
	python -m pytest -q -m "not stress"

stress: ## fault-adversarial runs checked against the paper's theorems
	python -m pytest tests/stress -q

loc:    ## source lines, code-only lines (tokenize: no comments, docstrings or blanks) and modules, the figures CHANGES.md reports (ROADMAP aim 2)
	@python3 tools/loc.py

bench:  ## regenerate the paper's tables/figures (print with -s)
	python -m pytest benchmarks/ --benchmark-only -q

bench-directory: ## directory-backend ablation (pure virtual time); rewrites BENCH_directory.json byte for byte
	python -m pytest benchmarks/test_ablation_directory.py --benchmark-only -q -s

bench-fastpath: ## transfer-path measurements (adaptive vs fixed chunks, gang geometry, obs overhead); writes BENCH_fastpath.json
	python -m pytest benchmarks/test_ablation_fastpath.py --benchmark-only -q -s

bench-recovery: ## time-to-recover vs checkpoint interval; writes BENCH_recovery.json
	python -m pytest benchmarks/test_ablation_recovery.py --benchmark-only -q -s

bench-gang: ## concurrent gang-migration geometry; the gang section of BENCH_fastpath.json
	python -m pytest benchmarks/test_ablation_fastpath.py -k gang_migration --benchmark-only -q -s

bench-quick: ## wall-clock benchmark smoke (<= 20 s): every metric BENCHMARK.json declares must be emitted
	python3 bench/run.py --quick

bench-e2e: ## the wall-clock end-to-end metrics as the driver runs them (~55 s; see bench/README.md)
	python3 bench/run.py --workload homogeneous --seed 1 --seconds 40 --trace 0

bench-pairs: ## alternating parent/change runs with the per-metric verdict: make bench-pairs PARENT=<rev> [N=10] [WORKLOAD=homogeneous] (~2 min per pair)
	python3 tools/bench_pairs.py --parent $(PARENT) --pairs $(or $(N),10) --workload $(or $(WORKLOAD),homogeneous)

obs-smoke: ## real mp migration with event collection on; validates the JSONL artifact and its space-time SVG
	REPRO_OBS_SMOKE=1 python -m pytest tests/integration/test_obs_mp.py -q

obs-svg: ## run a real mp migration and render the clock-aligned space-time SVG
	python -m repro obs run --out obs_events.jsonl --no-report
	python -m repro obs svg obs_events.jsonl --out obs_spacetime.svg
	python -c "import xml.etree.ElementTree as ET; ET.fromstring(open('obs_spacetime.svg').read()); print('obs_spacetime.svg: well-formed XML')"

shard-smoke: ## SIGKILL a live shard daemon during an mp migration workload
	REPRO_SHARD_SMOKE=1 python -m pytest tests/stress/test_shard_crash_mp.py -q

recovery-smoke: ## SIGKILL a rank and a shard mid-run; digest-identical completion
	REPRO_RECOVERY_SMOKE=1 python -m pytest tests/stress/test_crash_recovery_mp.py -q -s

gang-smoke: ## two overlapping mp migrations under a shared bandwidth budget; digest-identical completion
	REPRO_GANG_SMOKE=1 python -m pytest tests/stress/test_gang_crash_mp.py -q -s
