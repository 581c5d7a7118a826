# Convenience targets for the SplitServe reproduction.

.PHONY: install test bench bench-smoke bench-resilience-smoke \
	bench-multijob-smoke bench-plan-smoke bench-core-smoke \
	bench-core bench-work bench-figures \
	serve-smoke chaos-smoke obs-smoke report-smoke examples figures \
	loc knobs census clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# One tiny ExperimentSpec per ported bench file, straight through the
# ExperimentRunner, plus the ablation benches small enough to run whole
# — smoke-tests the figure and ablation suite in well under a minute.
bench-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest benchmarks/ -m smoke -q

# The paper-figure benches in full: every figure and table bench, the
# headline claims and the resilience benches, with their claim
# assertions (well under a minute with REPRO_CACHE=0).
bench-figures:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_fig1_cost_curves.py \
		benchmarks/bench_fig2_provisioning.py \
		benchmarks/bench_fig4_profiling.py \
		benchmarks/bench_fig5_pool.py benchmarks/bench_fig5_tpcds.py \
		benchmarks/bench_fig6_pagerank.py \
		benchmarks/bench_fig7_timeline.py \
		benchmarks/bench_fig8_kmeans.py \
		benchmarks/bench_fig9_sparkpi.py \
		benchmarks/bench_headline_claims.py \
		benchmarks/bench_table1_comparison.py \
		benchmarks/bench_resilience.py -q

# One tiny faulted run through the ExperimentRunner — smoke-tests the
# fault-injection path (see DESIGN.md, "Fault model").
bench-resilience-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_resilience.py -m smoke -q

# One tiny job-arrival replay against a shared executor pool — smoke-tests
# the multi-application cluster runtime (see DESIGN.md, "Cluster runtime").
bench-multijob-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_multijob_arrivals.py -m smoke -q

# One planned split through the planner's probe/predict/enforce loop —
# smoke-tests the repro.planner subsystem (see DESIGN.md, "Planner").
bench-plan-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_planner_slo.py -m smoke -q

# One small multijob replay timed end to end — smoke-tests the kernel
# throughput figures behind BENCH_core.json (see benchmarks/bench_core_speed.py)
# — and a small replay-fair and replay-split replay, each counted twice,
# whose bytecode counts and traced memory peaks must repeat exactly.
bench-core-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_core_speed.py \
		benchmarks/bench_work_counts.py -m smoke -q

# Regenerate BENCH_core.json: headline 12-job + 10x 120-job configs,
# min-of-N wall times. For where the time goes, layer by layer:
# python perfbench/run.py --workload replay-fair --trace 1.
bench-core:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python benchmarks/bench_core_speed.py --write

# Deterministic work counts (bytecodes, Python calls, events) and traced
# memory peak of one replay-fair-shaped replay and one replay-split world:
# a repeatable measure of Python-level work and allocation, free of the
# host's wall-time noise, but not the size of a wall-time change (work
# done in C is not counted). Takes a few minutes.
bench-work:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python benchmarks/bench_work_counts.py

# One open-loop burst against an in-process ServeRuntime, the API smoke
# tests through the in-process test client, and the socket tests against
# the stdlib server `repro serve` runs — smoke-tests the `repro serve`
# control plane (see DESIGN.md, "Control plane").
serve-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest tests/api benchmarks/bench_serve_load.py -m smoke -q

# One small seeded chaos scenario against a live ServeRuntime: throttle
# storm → breaker open/recover, worker kill → retry, kill-9 + restart →
# journal recovery (see DESIGN.md, "Service resilience").
chaos-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest benchmarks/bench_chaos.py -m smoke -q

# Scrape GET /metrics off a live in-process control plane and assert it
# parses under the test suite's Prometheus text-format parser, then run
# one job end to end and render its causal span tree (no orphans)
# through the `repro trace` CLI path (see DESIGN.md,
# "Serve observability").
obs-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest tests/api/test_metrics_endpoint.py \
		tests/api/test_tracing.py \
		tests/observability/test_serve_obs.py -m smoke -q

# One seeded scenario through event-log/trace export and `repro report`,
# asserting same-seed event logs are byte-identical (see DESIGN.md,
# "Observability").
report-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest tests/observability/test_report_smoke.py -m smoke -q

examples:
	python examples/quickstart.py
	python examples/tpcds_burst.py
	python examples/pagerank_segue.py
	python examples/autoscaling_day.py
	python examples/kmeans_reference.py
	python examples/flink_style_stream.py

# Regenerate the outputs EXPERIMENTS.md records.
figures: bench

# Line count of src/'s Python files: the net-lines figure CHANGES.md
# and ROADMAP.md report for each change.
loc:
	@find src -name '*.py' -print0 | xargs -0 cat | wc -l

# The settable values in src/, counted on the AST: parameters with a
# default and dataclass fields with a default — the options figure
# CHANGES.md reports next to the line count.
knobs:
	@python tools/knobs.py src

# The definitions in src/repro that no Python file outside tests/ names
# (tools/census.py, stdlib only): a report of removal candidates, not a
# gate — framework hooks show up, and names that are common words are
# missed.
census:
	@python tools/census.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache src/repro.egg-info .repro_cache
