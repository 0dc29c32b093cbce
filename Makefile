# Convenience targets; everything below is plain dune + the CLI.

.PHONY: all build build-flags test bench bench-smoke serve-smoke obs-smoke tune-smoke topo-smoke analyze-smoke check fmt smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

# The default build is the release profile (dune-workspace) with the
# flags of the root dune file. Fails if it compiles the engine -opaque
# (no cross-module inlining) or lost the dev profile's
# warnings-as-errors, or if the dev profile, the quick path for
# rebuilding after an edit, no longer builds (into _build-dev, so the
# default build is left alone). Also fails if any file under lib/ or
# bin/ other than lib/util/parallel.ml spawns a domain: that module's
# one schedule is the only place parallel work is started. And fails
# if any file under lib/ or bin/ other than lib/core/configuration.ml
# gives a steering or compiler knob an optional-argument default
# (`?(region_uops = ...`): Configuration.default_params is the one
# place the paper's knob values are written. And fails if any file
# under lib/harness/ or bin/ names `Tracegen.next` or `Dynuop`: the
# simulation paths read the trace as columns (Tracegen.fill into a
# Columns buffer), not as one boxed record per micro-op.
KNOBS = region_uops|max_chain|slack_threshold|crit_min_scale|min_scale|remap_threshold|stall_threshold|imbalance_limit
ENGINE_CMX = _build/default/lib/uarch/.clusteer_uarch.objs/native/clusteer_uarch__Engine.cmx
build-flags:
	@set -e; mkdir -p _build; r=_build/engine-rules.txt; \
	dune rules $(ENGINE_CMX) > $$r; \
	if grep -q -- '-opaque' $$r; then \
	  echo "build-flags: FAIL: the default build compiles Engine -opaque"; exit 1; \
	fi; \
	for f in -strict-sequence '@1..3@5..28@30..39@43@46..47@49..57@61..62-40'; do \
	  grep -qF -- "$$f" $$r || \
	    { echo "build-flags: FAIL: the default build lacks $$f"; exit 1; }; \
	done; \
	spawns=$$(grep -rlF 'Domain.spawn' lib bin | \
	  grep -vx 'lib/util/parallel.ml' || true); \
	if [ -n "$$spawns" ]; then \
	  echo "build-flags: FAIL: Domain.spawn outside lib/util/parallel.ml:" $$spawns; \
	  exit 1; \
	fi; \
	defaults=$$(grep -rnE '\?\( *($(KNOBS)) *=' lib bin | \
	  grep -v '^lib/core/configuration\.ml:' || true); \
	if [ -n "$$defaults" ]; then \
	  echo "build-flags: FAIL: knob defaults outside lib/core/configuration.ml:"; \
	  echo "$$defaults"; exit 1; \
	fi; \
	records=$$(grep -rnE 'Tracegen\.next|Dynuop' lib/harness bin || true); \
	if [ -n "$$records" ]; then \
	  echo "build-flags: FAIL: record trace path under lib/harness/ or bin/ (read columns):"; \
	  echo "$$records"; exit 1; \
	fi; \
	dune build @all --profile dev --build-dir _build-dev; \
	echo "build-flags: OK (no -opaque, dev warnings are errors, dev profile builds, one spawn site, knob defaults in one place, trace read as columns)"

# Every study, in order: the paper's tables and figures, the
# ablations, the extension studies and the harness's own studies.
bench:
	dune exec bin/csteer.exe -- experiment all

# Quick machine-checkable slice of the study table: the throughput/
# allocation study only, at reduced trace length. Fails if its JSON
# document is not produced, a steering policy started allocating on the
# decision path, the full simulation path (engine + trace generator)
# allocates more than 16 minor words per committed micro-op, or a bad
# -n or study name is not rejected with exit 2 and a one-line
# diagnostic.
# The throughput study enforces the scaling floor (>=1.5x at 2
# domains, >=3x at 4; exits 1 with a one-line diagnostic per miss)
# and records the speedup table in the run ledger at
# _build/bench-runs. Hosts that cannot run the checked domain count in
# parallel print an explicit SKIP instead — see bin/experiment.ml.
bench-smoke: build
	@rm -rf _build/bench-runs
	_build/default/bin/csteer.exe experiment throughput -n 2000 \
	  --ledger _build/bench-runs --json > _build/bench.json
	@grep -q '"suite_throughput"' _build/bench.json
	@grep -q '"steering_alloc_words_per_decide":{"op":0.0,"op-parallel":0.0,"dep":0.0,"crit":0.0,"vc2":0.0,"one-cluster":0.0,"ob":0.0,"rhop":0.0}' \
	  _build/bench.json
	@grep -q '"kind":"bench"' _build/bench-runs/index.jsonl
	@c=_build/default/bin/csteer.exe; \
	for a in 'throughput -n 0' bogus; do \
	  $$c experiment $$a > _build/bench-bad.out 2> _build/bench-bad.err; rc=$$?; \
	  if [ $$rc -ne 2 ] || [ -s _build/bench-bad.out ] || \
	     [ "$$(wc -l < _build/bench-bad.err)" -ne 1 ]; then \
	    echo "bench-smoke: FAIL experiment $$a: exit $$rc, want 2 with one stderr line"; \
	    exit 1; \
	  fi; \
	done
	@echo "bench-smoke: OK (_build/bench.json, ledger _build/bench-runs)"

# End-to-end slice of the service layer: start a server on a temp
# socket, submit the same small batch twice, and assert over the wire
# that (1) the second run is served entirely from cache with
# bit-identical bytes and 0 simulations run, (2) an already-expired
# deadline is rejected with timeout, not simulated, and (3) the
# hit/miss/simulation counters agree.
serve-smoke: build
	@rm -rf _build/serve-smoke && mkdir -p _build/serve-smoke
	@set -e; \
	csteer=_build/default/bin/csteer.exe; d=_build/serve-smoke; \
	$$csteer serve --socket $$d/serve.sock --cache-dir $$d/cache \
	  2> $$d/serve.log & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do [ -S $$d/serve.sock ] && break; sleep 0.1; done; \
	[ -S $$d/serve.sock ] || { echo "serve-smoke: server did not start"; exit 1; }; \
	printf '%s\n%s\n' \
	  '{"workload":"gzip-1","policy":"vc2","uops":2000}' \
	  '{"workload":"mcf","policy":"op","uops":2000}' > $$d/batch.jsonl; \
	$$csteer batch --socket $$d/serve.sock --results-only $$d/batch.jsonl \
	  > $$d/first.jsonl 2> $$d/first.log; \
	$$csteer batch --socket $$d/serve.sock --results-only $$d/batch.jsonl \
	  > $$d/second.jsonl 2> $$d/second.log; \
	cmp $$d/first.jsonl $$d/second.jsonl; \
	grep -q '2 ok (2 cached)' $$d/second.log; \
	$$csteer submit --socket $$d/serve.sock -w gzip-1 -n 3000 \
	  --deadline-ms 0 --json > $$d/timeout.json; \
	grep -q '"reason":"timeout"' $$d/timeout.json; \
	$$csteer submit --socket $$d/serve.sock --stats > $$d/stats.json; \
	grep -q '"serve.cache.hits":2' $$d/stats.json; \
	grep -q '"serve.cache.misses":3' $$d/stats.json; \
	grep -q '"serve.simulations":2' $$d/stats.json; \
	grep -q '"serve.rejected.timeout":1' $$d/stats.json; \
	$$csteer submit --socket $$d/serve.sock --shutdown 2>> $$d/serve.log; \
	wait $$pid; trap - EXIT; \
	echo "serve-smoke: OK (_build/serve-smoke)"

# Operational-telemetry slice: one profiled simulation recorded into a
# run ledger, then read back through `csteer runs` (summary JSON, full
# entry with GC accounting and phase-timing percentiles) and a local
# Prometheus dump through `csteer metrics`.
obs-smoke: build
	@rm -rf _build/obs-smoke && mkdir -p _build/obs-smoke
	@set -e; \
	csteer=_build/default/bin/csteer.exe; d=_build/obs-smoke; \
	$$csteer simulate -w 164.gzip-1 -p vc2 -n 2000 --ledger $$d/runs \
	  > $$d/simulate.txt 2> $$d/simulate.log; \
	grep -q '"kind":"simulate"' $$d/runs/index.jsonl; \
	$$csteer runs list --dir $$d/runs --json > $$d/list.json; \
	grep -q '"kind":"simulate"' $$d/list.json; \
	$$csteer runs show --dir $$d/runs 1 > $$d/run1.json; \
	grep -q 'engine_minor_words_per_uop' $$d/run1.json; \
	grep -q 'p99' $$d/run1.json; \
	$$csteer metrics -w 164.gzip-1 -n 2000 > $$d/metrics.txt; \
	grep -q '# TYPE engine_copyq_depth histogram' $$d/metrics.txt; \
	grep -q 'profile_engine_commit_ns_count' $$d/metrics.txt; \
	echo "obs-smoke: OK (_build/obs-smoke)"

# One full champion/challenger cycle of the auto-tuner on a tiny
# budget: a 4-evaluation grid over two workloads, per-evaluation
# ledger entries, the study report re-read as JSON, and the winner
# promoted to a champion artifact. This is exactly the worked session
# EXPERIMENTS.md walks through.
tune-smoke: build
	@rm -rf _build/tune-smoke && mkdir -p _build/tune-smoke
	@set -e; \
	csteer=_build/default/bin/csteer.exe; d=_build/tune-smoke; \
	$$csteer tune run --space vc --search grid --max-evals 4 \
	  -w gzip-1,vpr-1 -n 4000 --out $$d/tune --ledger $$d/runs \
	  > $$d/run.txt 2> $$d/run.log; \
	grep -q 'study written' $$d/run.txt; \
	grep -q '"kind":"tune"' $$d/runs/index.jsonl; \
	[ "$$(grep -c '"kind":"tune"' $$d/runs/index.jsonl)" -ge 4 ]; \
	$$csteer tune report --study $$d/tune/study.json --json > $$d/report.json; \
	grep -q '"kind":"tune_study"' $$d/report.json; \
	grep -q '"challenger_wins"' $$d/report.json; \
	$$csteer tune promote --study $$d/tune/study.json > $$d/promote.txt; \
	grep -q '"kind":"tune_champion"' $$d/tune/champion.json; \
	echo "tune-smoke: OK (_build/tune-smoke)"

# Interconnect-topology slice: an adversarial workload on a 2x2 mesh
# must surface the topology-aware steering counters
# (steer.remap.hops appears only on non-uniform fabrics) and stay
# bit-identical across runs; the topology inspector round-trips; and
# the topology study's JSON document has entries for every fabric.
topo-smoke: build
	@rm -rf _build/topo-smoke && mkdir -p _build/topo-smoke
	@set -e; \
	csteer=_build/default/bin/csteer.exe; d=_build/topo-smoke; \
	$$csteer simulate -w adv-fanout -c 4 --topology mesh2x2 -p vc2 \
	  -n 3000 --json > $$d/mesh1.json 2> $$d/mesh.log; \
	$$csteer simulate -w adv-fanout -c 4 --topology mesh2x2 -p vc2 \
	  -n 3000 --json > $$d/mesh2.json 2>> $$d/mesh.log; \
	cmp $$d/mesh1.json $$d/mesh2.json; \
	grep -q '"steer.remap.hops"' $$d/mesh1.json; \
	grep -q '"kind":"mesh"' $$d/mesh1.json; \
	$$csteer simulate -w adv-fanout -c 4 -p vc2 -n 3000 --json \
	  > $$d/p2p.json 2>> $$d/mesh.log; \
	! grep -q '"steer.remap.hops"' $$d/p2p.json; \
	$$csteer topo show hier2x4 --json > $$d/hier.json; \
	grep -q '"uplink_latency":4' $$d/hier.json; \
	$$csteer experiment topo -n 2000 --json > $$d/topo.json 2> $$d/topo.txt; \
	grep -q '"topology_study"' $$d/topo.json; \
	grep -q '"topology":"hier2x4"' $$d/topo.json; \
	echo "topo-smoke: OK (_build/topo-smoke)"

# Static-analysis slice: `csteer check` must come back clean (--strict)
# on every builtin workload x policy over every builtin fabric; its
# drift check (--vs-run) must confirm real runs of vc2 and op stay
# inside the static copy/remap bounds on p2p and hier2x4; a
# deliberately corrupted placement must be rejected with the stable
# CM006 code; a drift-checked run lands in the ledger; and the
# cost-model accuracy study reports zero drift errors.
analyze-smoke: build
	@rm -rf _build/analyze-smoke && mkdir -p _build/analyze-smoke
	@set -e; \
	csteer=_build/default/bin/csteer.exe; d=_build/analyze-smoke; \
	for topo in p2p bus ring mesh4x2 hier2x4; do \
	  $$csteer check --all --strict --topology $$topo > $$d/$$topo.txt; \
	  grep -q 'target(s): ok' $$d/$$topo.txt; \
	done; \
	$$csteer check --all -p vc2,op --vs-run -n 6000 --strict \
	  > $$d/drift-p2p.txt; \
	grep -q 'with drift check: ok' $$d/drift-p2p.txt; \
	grep -q 'CM100' $$d/drift-p2p.txt; \
	$$csteer check --all -p vc2,op --topology hier2x4 --vs-run -n 6000 \
	  --strict > $$d/drift-hier.txt; \
	grep -q 'with drift check: ok' $$d/drift-hier.txt; \
	$$csteer compile -w gzip-1 -p ob --emit $$d/ok.annot > /dev/null; \
	awk 'NR==8 {$$4=9} {print}' $$d/ok.annot > $$d/bad.annot; \
	if $$csteer check -w gzip-1 -p ob --annot $$d/bad.annot \
	  > $$d/bad.txt 2>&1; then \
	  echo "analyze-smoke: corrupted placement not rejected"; exit 1; \
	fi; \
	grep -q 'CM006' $$d/bad.txt; \
	$$csteer check -w mcf -p vc2 --vs-run -n 4000 --ledger $$d/runs \
	  > /dev/null 2> $$d/ledger.log; \
	grep -q '"kind":"check"' $$d/runs/index.jsonl; \
	$$csteer experiment predict -n 3000 --json > $$d/predict.json \
	  2> $$d/predict.txt; \
	grep -q '"prediction_study"' $$d/predict.json; \
	! grep -q '"drift_errors":[1-9]' $$d/predict.json; \
	echo "analyze-smoke: OK (_build/analyze-smoke)"

# Static verification of every built-in workload under each software
# steering scheme: IR well-formedness, chain/leader invariants and
# static placement, with warnings promoted to failures.
check: build
	dune exec bin/csteer.exe -- check --all --strict

# Formatting is checked only where the formatter exists; the dune rules
# are always available (`dune build @fmt`) once ocamlformat is installed.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "fmt: ocamlformat not installed, skipping"; \
	fi

# Fast end-to-end confidence: full build, its flags, the test suite, the static
# verifier over every built-in workload, a parallel deterministic
# sweep, the throughput-study smoke, the service-layer smoke, the auto-tuner
# cycle, the interconnect-topology slice, the quickstart example (so
# examples/ cannot bit-rot silently), and one traced 10k-uop
# simulation whose Chrome trace must be valid JSON with interval
# telemetry.
smoke: build build-flags test check fmt bench-smoke serve-smoke obs-smoke tune-smoke topo-smoke analyze-smoke
	dune exec examples/quickstart.exe
	dune exec bin/csteer.exe -- simulate -w mcf -n 10000 \
	  --trace-out _build/smoke_trace.json --trace-format json \
	  --stats-interval 1000
	@grep -q '"traceEvents"' _build/smoke_trace.json
	@echo "smoke: OK (_build/smoke_trace.json)"

clean:
	dune clean
	rm -rf _build-dev
