# Tier-1 verification: build, formatting, tests.

.PHONY: all build fmt test bench bench-smoke chaos par export-par drill perfbench-selftest check fullscale

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

# Full-table-scale control plane: 500k+ routes over 100 neighbors through
# the batched-ingest pipeline, then a staged churn replay (withdraw storm,
# peer flaps, fresh wave). Reports RIB memory, bytes/route, updates/sec
# and convergence time.
fullscale:
	dune exec bench/main.exe -- fullscale

# Short runs of the benches that stay out of the test suites (used by
# `make check`, ~2 s). Each checks its headline numbers in-process and
# the run exits non-zero when one fails: the exact flow-cache and
# wire-cache counts, export-par's zero staged residual, fullscale's RIB
# bytes, and the timing floors (fwd cached/cold >= 3.15x, export-par
# 4-lane flush >= 0.54x, fullscale >= 54k updates/s). The counts the
# deleted benches used to report are exact assertions in test/.
bench-smoke:
	dune exec bench/main.exe -- --smoke fwd export-par fullscale

# Fault-injection convergence suite (also part of `dune runtest`).
chaos:
	dune exec test/test_chaos.exe

# The lane suites. The export lane sits on the `Lanes` pool
# (lib/core/lanes.ml); its suite runs a `Router.create ~lanes:4` router
# against a `~lanes:1` one.
#
# Lanes pool: the pool's own contract (inline single lane, idempotent
# shutdown and respawn, queue high-water marks, exception safety) (also
# part of `dune runtest`).
par:
	dune exec test/test_lanes.exe

# Export lane: the 4-lane-vs-sequential differential on Adj-RIB-Out
# fingerprints, exact counters and per-neighbor wire-byte transcripts (incl.
# graceful restart and mid-churn kills), the encode-once wire-cache
# accounting, the flush's neighbor placement, lane-count validation and
# the chunked regression (also part of `dune runtest`).
export-par:
	dune exec test/test_export_par.exe

# Failover drills: PoP kill/re-home/restart (detection and reconvergence
# pinned in simulated seconds), degraded mode, two-phase
# zero-residual guarantees (also part of `dune runtest`).
drill:
	dune exec test/test_drill.exe

# Repository benchmark self-test: every workload runs a fixed tick count
# twice and must repeat its counts and output checks exactly (see
# perfbench/README.md; the timed benchmark itself is
# `python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1`).
perfbench-selftest:
	dune build @perfbench/selftest

check: fmt build test chaos par export-par drill perfbench-selftest bench-smoke
