# Tier-1 verification: build, formatting, tests.

.PHONY: all build fmt test bench bench-json bench-smoke bench-diff chaos par par-ingest export-par drill perfbench-selftest check fullscale

all: build

build:
	dune build

# Formatting is enforced for dune files (ocamlformat is not a dependency
# of this repo; see dune-project's (formatting) stanza).
fmt:
	dune build @fmt

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Machine-readable headline metrics (micro ns/op, fig6a memory bytes,
# flap withdrawal-storm counts, burst/intern sharing & packing ratios).
bench-json:
	dune exec bench/main.exe -- --json bench.json micro fig6a flap burst intern fwd ingest-par export-par fullscale drill

# Full-table-scale control plane: 500k+ routes over 100 neighbors through
# the batched-ingest pipeline, then a staged churn replay (withdraw storm,
# peer flaps, fresh wave). Reports RIB memory, bytes/route, updates/sec
# and convergence time.
fullscale:
	dune exec bench/main.exe -- fullscale

# Fast smoke run of the microbenchmarks (used by `make check`); writes
# bench-smoke.json for the regression gate below.
bench-smoke:
	dune exec bench/main.exe -- --smoke --json bench-smoke.json micro flap burst intern fwd ingest-par export-par fullscale drill

# Regression gate: compare the smoke run against the committed baseline.
# Fails if any count/bytes/ratio headline metric moves >10% in the wrong
# direction (timing metrics are reported but not gated).
bench-diff: bench-smoke
	dune exec tools/bench_diff.exe -- bench/baseline-smoke.json bench-smoke.json

# Fault-injection convergence suite (also part of `dune runtest`).
chaos:
	dune exec test/test_chaos.exe

# The lane suites. The ingest and export lanes both sit on the `Lanes`
# pool (lib/core/lanes.ml); their suites run a `Router.create ~lanes:4`
# router against a `~lanes:1` one.
#
# Lanes pool: the pool's own contract (inline single lane, idempotent
# shutdown and respawn, queue high-water marks, exception safety) and the
# attribute arena under an intern storm from four domains (also part of
# `dune runtest`).
par:
	dune exec test/test_lanes.exe

# Ingest lane: the 4-lane-vs-sequential fingerprint differential (incl.
# graceful restart and mid-churn session kills), decode-error counting at
# either lane count, the neighbor hash and lane-count validation (also
# part of `dune runtest`).
par-ingest:
	dune exec test/test_par_ingest.exe

# Export lane: the 4-lane-vs-sequential differential on Adj-RIB-Out
# fingerprints, exact counters and per-neighbor wire-byte transcripts (incl.
# graceful restart and mid-churn kills), the encode-once wire-cache
# accounting, the flush's neighbor placement, lane-count validation and
# the chunked regression (also part of `dune runtest`).
export-par:
	dune exec test/test_export_par.exe

# Failover drills: PoP kill/re-home/restart, degraded mode, two-phase
# zero-residual guarantees (also part of `dune runtest`).
drill:
	dune exec test/test_drill.exe

# Repository benchmark self-test: every workload runs a fixed tick count
# twice and must repeat its counts and output checks exactly (see
# perfbench/README.md; the timed benchmark itself is
# `python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1`).
perfbench-selftest:
	dune build @perfbench/selftest

check: fmt build test chaos par par-ingest export-par drill perfbench-selftest bench-diff
