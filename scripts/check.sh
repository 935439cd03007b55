#!/bin/sh
# Tier-2 verification gate. Tier 1 is `go build ./... && go test ./...`;
# this script adds vet, the race detector over the whole module, and a
# quick machine-readable benchmark snapshot so a perf regression or a
# reappearing steady-state allocation is visible before merge.
#
# Usage: scripts/check.sh [output.json] [baseline.json]
#   output.json    where to write the quick benchmark snapshot
#                  (default: bench-check.json in the repo root, gitignored
#                  territory — committed snapshots are BENCH_N.json,
#                  written by `go run ./cmd/bench`; see docs/PERFORMANCE.md)
#   baseline.json  optional committed snapshot (e.g. BENCH_2.json) to diff
#                  the fresh snapshot against with cmd/benchdiff; the gate
#                  fails on >10% regression in any recorded series. Compare
#                  against a baseline measured on the same machine — the
#                  committed snapshots record their environment in "notes".
set -eu

cd "$(dirname "$0")/.."
out="${1:-bench-check.json}"
baseline="${2:-}"

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "FAIL: gofmt would reformat:"
  echo "$unformatted"
  exit 1
fi

echo "==> go build ./..."
go build ./...

# TestBuilderAtVertexCap builds a real 2^27-vertex graph on a single
# goroutine (2.6 GB peak RSS without -race), so the race detector has
# nothing to check in it and its race build does not fit an 8 GB host.
# It runs without -race in its own step; the race step skips it by name.
echo "==> go test -run '^TestBuilderAtVertexCap\$' ./internal/graph/ (vertex-cap build, no -race)"
go test -count=1 -run '^TestBuilderAtVertexCap$' ./internal/graph/

echo "==> go test -race -skip '^TestBuilderAtVertexCap\$' ./..."
go test -race -skip '^TestBuilderAtVertexCap$' ./...

# The parallel paths (N goroutines annealing over per-chain workspaces;
# parallel multi-start over per-worker compaction arenas; the poisoned-
# start recovery path, where one panicking start must neither deadlock
# the pool nor corrupt the survivors' aggregation; the worker-count
# determinism matrix) get extra race-detector exercise beyond the single
# pass the full run gives them: repeated runs vary goroutine
# interleavings.
echo "==> go test -race -count=3 -run 'TestParallel|TestDeterminismMatrix' ./internal/core/"
go test -race -count=3 -run 'TestParallel|TestDeterminismMatrix' ./internal/core/

# The service daemon is the most concurrency-dense package in the tree
# (worker pool, SSE streamers, long-pollers, and HTTP handlers all share
# job state): repeated race runs vary the interleavings. This also
# re-runs TestLoadSmoke — 200 concurrent clients against an in-process
# daemon, no lost or drifting jobs — under the race detector.
echo "==> go test -race -count=2 ./internal/service/ (daemon race + load smoke)"
go test -race -count=2 ./internal/service/

# Crash-safety integration gate: a checkpointing campaign killed with
# SIGKILL mid-run (subprocess, no handlers) must resume from the atomic
# checkpoint file and agree cut-for-cut with an uninterrupted run.
echo "==> go test -run 'TestCheckpointSurvivesSIGKILL' ./internal/harness/ (kill-and-resume gate)"
go test -count=1 -run 'TestCheckpointSurvivesSIGKILL' ./internal/harness/

# Fault-injection matrix: every faultfs fault kind (clean and torn
# ENOSPC writes, fsync and rename EIO, read-side bit flips) against the
# fsx atomic-write protocol and the CRC trailer layer — committed files
# never corrupt, injected corruption is always caught and typed.
echo "==> go test ./internal/faultfs/ ./internal/fsx/ (fault-injection matrix + CRC layer)"
go test -count=1 ./internal/faultfs/ ./internal/fsx/

# Corruption quarantine: a damaged job record or graph file on disk
# must quarantine on restart (typed error, evidence preserved, the rest
# of the state recovered), and a persistence failure must degrade
# serving instead of failing jobs. Retention: a job's record writes land
# in state order, a finished job's record is written exactly twice, and a
# finished job whose record is durable is served from it with only an
# index left in memory (a live heap bound per job).
echo "==> go test -run 'TestCorrupt|TestDegraded|TestReadyz|TestRecordWritesOrdered|TestRecordWrittenTwice|TestRetention|TestCheckpointCorrupt|TestCheckpointGarbage|TestCheckpointWriteFailure' (quarantine, degraded-mode and retention gates)"
go test -count=1 -run 'TestCorrupt|TestDegraded|TestReadyz|TestRecordWritesOrdered|TestRecordWrittenTwice|TestRetention' ./internal/service/
go test -count=1 -run 'TestCheckpointCorrupt|TestCheckpointGarbage|TestCheckpointWriteFailure' ./internal/harness/

# Chaos gate: a real daemon subprocess under a seeded fault schedule,
# SIGKILLed mid-flight across several incarnations, then audited — zero
# lost acks, zero panics, zero silently-accepted corrupt records, every
# surviving result byte-identical to the fault-free run. Reproduce a
# failure with CHAOS_SEED=N scripts/check.sh (or -chaos-seed N directly;
# see docs/ROBUSTNESS.md "Fault injection and chaos testing").
echo "==> go test -run 'TestChaos' ./internal/service/ -chaos-seed ${CHAOS_SEED:-1} (chaos gate)"
go test -count=1 -run 'TestChaos' ./internal/service/ -chaos-seed "${CHAOS_SEED:-1}"

# Parser robustness: a short fuzz smoke per reader. Malformed input must
# error — never panic, never wrap ids into range, never OOM (go test
# runs the seed corpora; the smoke explores a little beyond them).
# FuzzReadBCSR covers the binary header boundaries of the size caps:
# hostile n/m counts and edge counts past the int32-offset limit.
for target in FuzzReadEdgeList FuzzReadMETIS FuzzUnmarshalGraph FuzzCompactCSREquivalence FuzzReadBCSR; do
  echo "==> go test -fuzz=$target -fuzztime=10s ./internal/graph/"
  go test -run "^$target\$" -fuzz="^$target\$" -fuzztime=10s ./internal/graph/
done

# The contraction kernel against its map-based model: arbitrary small
# weighted graphs, contracted by a random maximal matching, must give
# exactly the model's coarse vertex and edge weights in sorted CSR.
echo "==> go test -fuzz=FuzzContractEquivalence -fuzztime=10s ./internal/coarsen/"
go test -run '^FuzzContractEquivalence$' -fuzz='^FuzzContractEquivalence$' -fuzztime=10s ./internal/coarsen/

# Million-vertex pipeline smoke at 10^5 scale: generate a BCSR file,
# memory-map it, and run multilevel KL under the race detector (with
# checkptr, which -race turns on, over the mmap'd edge arrays). The same
# instance is then bisected by a plain build and the two side
# assignments diffed byte-for-byte: the determinism contract, end to end
# through the CLI. This is also CI's end-to-end run of truncated KL
# passes: mlkl bounds every pass on its levels above
# 2·kl.MultilevelLookahead = 2,048 vertices, so the cmp holds the bounded
# passes to the same contract.
echo "==> gengraph -format csr + bisect under -race (mmap smoke)"
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
go run ./cmd/gengraph -model gnp -n 100000 -deg 4 -seed 7 -format csr -out "$smokedir/smoke.csr"
go run -race ./cmd/bisect -in "$smokedir/smoke.csr" -alg mlkl -starts 1 -validate \
  -out "$smokedir/sides.race"
echo "==> bisect -race vs plain build: sides must be identical"
go run ./cmd/bisect -in "$smokedir/smoke.csr" -alg mlkl -starts 1 -validate \
  -out "$smokedir/sides.plain"
cmp "$smokedir/sides.plain" "$smokedir/sides.race" \
  || { echo "FAIL: the -race build changed the bisection (sides.plain != sides.race)"; exit 1; }

# The same end-to-end smoke for the spectral-initialized multilevel
# algorithm: with the coarsest-level Lanczos Fiedler solve seeding the
# refinement, the run under the race detector must produce sides
# byte-identical to the plain build's, through the CLI.
echo "==> bisect -alg mlkl+spec under -race vs plain build (spectral smoke)"
go run -race ./cmd/bisect -in "$smokedir/smoke.csr" -alg mlkl+spec -starts 1 -validate \
  -out "$smokedir/sides.spec.race"
go run ./cmd/bisect -in "$smokedir/smoke.csr" -alg mlkl+spec -starts 1 -validate \
  -out "$smokedir/sides.spec.plain"
cmp "$smokedir/sides.spec.plain" "$smokedir/sides.spec.race" \
  || { echo "FAIL: the -race build changed the spectral bisection (sides.spec.plain != sides.spec.race)"; exit 1; }

# The zero-alloc contracts: matching, contraction, and the full warm
# compact/project cycle must not touch the heap in steady state, and
# neither may a warm SA Refiner's whole run
# (TestRefineSteadyStateZeroAlloc, and its KL counterpart) or a warm
# Fiedler solve. The bench gate below checks the same property from the
# benchmark side.
echo "==> go test -run 'SteadyAllocs|SteadyStateZeroAlloc' ./internal/coarsen/ ./internal/matching/ ./internal/kl/ ./internal/spectral/ ./internal/anneal/ (alloc contract)"
go test -count=1 -run 'SteadyAllocs|SteadyStateZeroAlloc' ./internal/coarsen/ ./internal/matching/ ./internal/kl/ ./internal/spectral/ ./internal/anneal/

# cmd/benchmark is a module of its own, so `go test ./...` above never
# reaches it. Its test runs every workload at tiny scale and certifies
# every result.
echo "==> (cd cmd/benchmark && go test .) (tiny-scale certified run of every workload)"
(cd cmd/benchmark && go test -count=1 .)

echo "==> go run ./cmd/bench -quick  (snapshot -> $out)"
go run ./cmd/bench -quick -o "$out"

# The quick suite records allocs_per_op for every steady-state row —
# the KL pass, the SA refine loop, and the warm compaction cycle;
# all must be zero (the alloc regression tests enforce the same bound
# under `go test`, this is the belt to their suspenders).
awk '
  /"name": ".*_steady_/ { steady = 1 }
  steady && /"allocs_per_op":/ {
    gsub(/[^0-9]/, "", $2)
    if ($2 + 0 != 0) { bad = 1 }
    steady = 0
  }
  END { exit bad }
' "$out" || { echo "FAIL: steady-state benchmark allocates (see $out)"; exit 1; }

if [ -n "$baseline" ]; then
  echo "==> go run ./cmd/benchdiff $baseline $out"
  go run ./cmd/benchdiff "$baseline" "$out"
fi

echo "OK: vet, build, race tests, daemon load smoke, kill-and-resume, fault/chaos gates, fuzz smoke, alloc contracts, the benchmark's tiny run, and quick benchmarks all passed"
