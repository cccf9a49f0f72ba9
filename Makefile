# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-e2e bench-json bench-compare experiments \
  examples trace-demo analyze-demo profile-demo clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# End-to-end benchmark (every workload in BENCHMARK.json; see
# bench/e2e/README.md for single-workload runs).
bench-e2e:
	bash bench/e2e/run.sh

# Microbenchmarks only (no experiment tables), written as JSON
# (schema psn-bench/1, see DESIGN.md). BENCH_PR10.json in the repo root
# is a committed snapshot of this output (BENCH_PR2..PR9.json are
# prior snapshots, kept for before/after comparison).
bench-json:
	dune exec bench/main.exe -- --json BENCH_PR10.json

# Regression diff against the committed baseline.  Thresholds are
# deliberately wide: committed numbers come from a different machine, so
# only order-of-magnitude regressions should fail the build.  The
# analyzer subjects get an even wider bound — replay throughput is the
# most allocation-sensitive number here and varies most across runners;
# vector.receive_into gets a tighter one so the arena fast path cannot
# quietly fall behind the copy path again (the PR7 regression fix).
# peak_live_cuts rows are deterministic counts, not timings, so they
# are pinned near-exactly: any slab growth fails the comparison.
bench-compare:
	dune exec bench/main.exe -- \
	  --only "engine.schedule+run,vector.receive,analyze.posthoc,analyze.online,hall.run.sharded(4),shardstats.overhead,predicate.eval,detector.flush,detector.stream.flush,lattice.stream" \
	  --compare BENCH_PR10.json \
	  --threshold analyze=200,receive_into=60,peak_live_cuts=1,100

# Full (slow) experiment profiles — the numbers in EXPERIMENTS.md.
experiments:
	dune exec bin/main.exe -- experiment

examples:
	dune exec examples/quickstart.exe
	dune exec examples/exhibition_hall.exe
	dune exec examples/smart_office.exe
	dune exec examples/hospital.exe
	dune exec examples/habitat.exe
	dune exec examples/banking.exe
	dune exec examples/smart_pen.exe
	dune exec examples/execution_model.exe
	dune exec examples/middleware_tour.exe

# Sample traces of the smart-office scenario: structured JSONL plus a
# Chrome trace_event file loadable in Perfetto (ui.perfetto.dev), with a
# 1 s-period metric timeline rendered as counter tracks.
trace-demo:
	dune exec bin/main.exe -- trace office --horizon 600 --out trace-demo.jsonl
	dune exec bin/main.exe -- trace office --horizon 600 --format chrome \
	  --timeline 1000 --out trace-demo.chrome.json
	@echo "wrote trace-demo.jsonl and trace-demo.chrome.json"

# Causal analytics over the trace demo: critical paths, per-link
# latency histograms, and drop attribution, as text plus a
# psn-analyze/1 JSON summary.  Depends on trace-demo having run.
analyze-demo:
	dune exec bin/main.exe -- analyze trace-demo.jsonl \
	  --json analyze-demo.json
	@echo "wrote analyze-demo.json"

# Host-time profile (wall ns + GC deltas per phase) of a quick
# experiment sweep; host readings stay out of sim traces by design.
profile-demo:
	dune exec bin/main.exe -- profile e5 --quick --out profile-demo.json
	@echo "wrote profile-demo.json"

clean:
	dune clean
