.PHONY: all build test lint check bench perfbench-smoke perfbench-pairs bench-all bench-check bench-prefilter bench-static bench-fleet trace-demo golden replay-golden diff-golden clean

all: build

build:
	dune build @all

test:
	dune runtest

# The metadata-soundness lint gate: every workload model must produce
# zero diagnostics.
lint:
	dune exec bin/bastion_cli.exe -- lint --app nginx
	dune exec bin/bastion_cli.exe -- lint --app sqlite
	dune exec bin/bastion_cli.exe -- lint --app vsftpd

# Build everything, then run the lint gate.
check: lint
	dune build @check

bench:
	dune exec bench/main.exe

# Smoke-run the benchmark for one second per workload at the default
# seed.  perfbench exits 0 even when a known answer fails, so the gate
# is the "correct" field of the JSON object on its last line.
perfbench-smoke:
	dune build perfbench/main.exe
	for w in nginx-tiered nginx-fs-monitor attack-replay; do \
	  out=$$(dune exec --root . --display quiet perfbench/main.exe -- \
	    --workload $$w --seed 0 --seconds 1 --trace 0) || exit 1; \
	  last=$$(printf '%s\n' "$$out" | tail -n 1); \
	  echo "$$w: $$last"; \
	  case "$$last" in *'"correct": true'*) ;; *) echo "$$w: a known answer failed"; exit 1 ;; esac; \
	done

# Compare the working tree with revision BASE on one perfbench
# workload: 10 alternating untraced 10-second pairs at seeds 1..10,
# base first on odd seeds.  Takes minutes; CI does not run it.
perfbench-pairs:
	@if [ -z "$(BASE)" ] || [ -z "$(WORKLOAD)" ]; then \
	  echo "usage: make perfbench-pairs BASE=<rev> WORKLOAD=<name>"; exit 2; fi
	tools/perfbench_pairs.sh $(BASE) $(WORKLOAD)

# Regenerate the committed BENCH_*.json artifacts (EXPERIMENTS.md):
# all of them (~20 s), or one by name.
bench-all:
	dune exec bench/main.exe -- --emit all

bench-prefilter bench-static bench-fleet:
	dune exec bench/main.exe -- --emit $(@:bench-%=%)

# Regenerate every artifact in memory and fail, naming each
# committed file that differs from its regeneration.
bench-check:
	dune exec bench/main.exe -- --check

# Record an NGINX run with the flight recorder and summarise the trace
# (open nginx.trace.json in Perfetto / chrome://tracing).
trace-demo:
	dune exec bin/bastion_cli.exe -- run --app nginx --trace nginx.trace.json --metrics
	dune exec bin/bastion_cli.exe -- trace-summary nginx.trace.json

# Regenerate the golden-trace corpus: one small-scale benign run and
# one attack-matrix run per application, recorded with `--audit`.  The
# model is deterministic, so regeneration must be byte-identical to
# the checked-in traces (CI enforces this with `git diff`).
golden:
	dune build bin/bastion_cli.exe
	dune exec bin/bastion_cli.exe -- run --app nginx --scale small --defense full --audit test/golden/nginx-benign.jsonl
	dune exec bin/bastion_cli.exe -- run --app sqlite --scale small --defense full --audit test/golden/sqlite-benign.jsonl
	dune exec bin/bastion_cli.exe -- run --app vsftpd --scale small --defense full --audit test/golden/vsftpd-benign.jsonl
	dune exec bin/bastion_cli.exe -- attack --id cve-2013-2028 --config full --audit test/golden/nginx-attack.jsonl
	dune exec bin/bastion_cli.exe -- attack --id rop-mprotect-sqlite-1 --config full --audit test/golden/sqlite-attack.jsonl
	dune exec bin/bastion_cli.exe -- attack --id rop-exec-daemon --config full --audit test/golden/vsftpd-attack.jsonl

# Replay every checked-in golden trace strictly and write one JSON
# divergence report per trace to replay-reports/ (the offline
# re-verification gate).  Every trace runs; the target exits non-zero
# afterwards if any of them diverged.
replay-golden:
	dune build bin/bastion_cli.exe
	mkdir -p replay-reports
	status=0; \
	for t in test/golden/*.jsonl; do \
	  name=$$(basename "$$t" .jsonl); \
	  dune exec bin/bastion_cli.exe -- replay "$$t" --strict \
	    --json "replay-reports/$$name.json" || status=1; \
	done; \
	exit $$status

# Differentially replay the whole golden corpus against the in-tree
# compile pass: the regression oracle.  Exits non-zero on any verdict
# flip or context move and writes the committed "what moved" artifact
# (CI enforces it stays byte-identical with `git diff`).
diff-golden:
	dune build bin/bastion_cli.exe
	dune exec bin/bastion_cli.exe -- replay test/golden/nginx-benign.jsonl test/golden/sqlite-benign.jsonl test/golden/vsftpd-benign.jsonl test/golden/nginx-attack.jsonl test/golden/sqlite-attack.jsonl test/golden/vsftpd-attack.jsonl --against current --diff DIFF_replay_golden.json

clean:
	dune clean
