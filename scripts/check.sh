#!/bin/sh
# Tier-2 verification gate. Tier 1 is `go build ./... && go test ./...`;
# this script adds vet, gofmt, a cross-compiled check for fused
# multiply-adds, the race detector over the whole module, the fault,
# chaos and fuzz gates, a run of every example, end-to-end CLI smokes
# (with cmd/cutstat recomputing bisect's cut from the returned sides) and
# the zero-alloc contracts. Performance is measured by cmd/benchmark (see
# its README), not here.
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

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

# Every other step builds for the host, which is unix, so none of them
# compiles the non-unix BCSR loader (internal/graph/csrfile_fallback.go,
# //go:build !unix). Vetting the module for Windows type-checks it.
echo "==> GOOS=windows go vet ./..."
GOOS=windows go vet ./...

# The same bits on every GOARCH. The Go spec lets a compiler fuse x*y + z
# into one multiply-add that rounds once; amd64 never does, but arm64,
# loong64, ppc64le, riscv64 and s390x do, and a fused SA cost delta can
# turn an exact 0 into 5.55e-17 and change whether a move draws a random
# word. An explicit float64(…) conversion rounds the product and forbids
# the fusion, so every product that feeds an addition is wrapped in one.
# This step compiles the module for those five architectures, and the
# test binaries of the packages whose oracles repeat that arithmetic,
# and fails on any fused instruction in the assembly.
echo "==> GOARCH={arm64,loong64,ppc64le,riscv64,s390x} go build -gcflags=-S (no fused multiply-adds)"
asm=$(mktemp)
trap 'rm -f "$asm"' EXIT
for arch in arm64 loong64 ppc64le riscv64 s390x; do
  GOARCH=$arch go build -gcflags=-S ./... 2>"$asm" \
    || { cat "$asm"; echo "FAIL: GOARCH=$arch go build"; exit 1; }
  for pkg in anneal spectral stats gen; do
    GOARCH=$arch go test -c -o /dev/null -gcflags=-S "./internal/$pkg" 2>>"$asm" \
      || { cat "$asm"; echo "FAIL: GOARCH=$arch go test -c ./internal/$pkg"; exit 1; }
  done
  if grep -E '[[:space:]]FN?M(ADD|SUB)[DFS]?[[:space:]]' "$asm"; then
    echo "FAIL: fused multiply-adds on $arch (above); wrap each product in float64(…)"
    exit 1
  fi
done
rm -f "$asm"

# The build step only compiles the examples; each must also run to
# completion and exit 0. Each takes under a second (service-client
# starts an in-process daemon on a loopback port).
for ex in examples/*/; do
  echo "==> go run ./$ex"
  go run "./$ex" >/dev/null || { echo "FAIL: ./$ex exited non-zero"; exit 1; }
done

# TestBuilderAtVertexCap builds a real 2^27-vertex graph on a single
# goroutine (0.5 GB peak RSS without -race: 517 MB by getrusage on
# linux/amd64), so the race detector has nothing to check in it and its
# shadow memory would only multiply that peak. It runs without -race in
# its own step; the race step skips it by name.
echo "==> go test -run '^TestBuilderAtVertexCap\$' ./internal/graph/ (vertex-cap build, no -race)"
go test -count=1 -run '^TestBuilderAtVertexCap$' ./internal/graph/

echo "==> go test -race -skip '^TestBuilderAtVertexCap\$' ./..."
go test -race -skip '^TestBuilderAtVertexCap$' ./...

# The paper reproduction: every table at paper scale and the O1–O5
# verdicts, regenerated through cmd/experiments and compared with the
# committed results/ (cuts, cut spreads, compaction improvements,
# verdicts). A change that moves a paper cut fails here until results/ is
# regenerated with it. The run is sequential on one goroutine, so the
# race detector has nothing to check in it, and a race build would
# multiply its ~17 s of SA and KL; the test file is built with !race, so
# the race step above skips it.
echo "==> go test -run '^TestPaperReproduction\$' ./cmd/experiments/ (paper reproduction, no -race)"
go test -count=1 -run '^TestPaperReproduction$' ./cmd/experiments/

# The service daemon is the most concurrency-dense package in the tree
# (worker pool, SSE streamers, long-pollers, and HTTP handlers all share
# job state): repeated race runs vary the interleavings. This also
# re-runs TestLoadSmoke — 200 concurrent clients against an in-process
# daemon, no lost or drifting jobs — under the race detector.
echo "==> go test -race -count=2 ./internal/service/ (daemon race + load smoke)"
go test -race -count=2 ./internal/service/

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
echo "==> go test -run 'TestCorrupt|TestDegraded|TestReadyz|TestRecordWritesOrdered|TestRecordWrittenTwice|TestRetention' ./internal/service/ (quarantine, degraded-mode and retention gates)"
go test -count=1 -run 'TestCorrupt|TestDegraded|TestReadyz|TestRecordWritesOrdered|TestRecordWrittenTwice|TestRetention' ./internal/service/

# Chaos gate: a real daemon subprocess under a seeded fault schedule,
# SIGKILLed mid-flight across several incarnations, then audited — zero
# lost acks, zero panics, zero silently-accepted corrupt records, every
# surviving result byte-identical to the fault-free run. Reproduce a
# failure with CHAOS_SEED=N scripts/check.sh (or -chaos-seed N directly;
# see docs/ROBUSTNESS.md "Fault injection and chaos testing").
echo "==> go test -run 'TestChaos' ./internal/service/ -chaos-seed ${CHAOS_SEED:-1} (chaos gate)"
go test -count=1 -run 'TestChaos' ./internal/service/ -chaos-seed "${CHAOS_SEED:-1}"

# Parser robustness: a short fuzz smoke per reader of the two graph
# formats, the edge list and BCSR. Malformed input must error — never
# panic, never wrap ids into range, never OOM (go test runs the seed
# corpora; the smoke explores a little beyond them). FuzzReadBCSR covers
# the binary header boundaries of the size caps (hostile n/m counts and
# edge counts past the int32-offset limit) and, past the header,
# ResetCSR's row checks, which the loader runs over the mapped sections
# as every Builder output and coarse graph passes them: offsets within
# the edges, sorted in-range rows, positive weights, and half-edges that
# number and weigh twice the forward edges. FuzzCSREquivalence holds the
# Builder, which the edge-list parser and every generator go through, to
# a map model of the merged edge multiset.
for target in FuzzReadEdgeList FuzzCSREquivalence FuzzReadBCSR; do
  echo "==> go test -fuzz=$target -fuzztime=10s ./internal/graph/"
  go test -run "^$target\$" -fuzz="^$target\$" -fuzztime=10s ./internal/graph/
done

# The contraction kernel against its map-based model: arbitrary small
# weighted graphs, contracted by a random maximal matching, must give
# exactly the model's coarse vertex and edge weights in sorted CSR.
echo "==> go test -fuzz=FuzzContractEquivalence -fuzztime=10s ./internal/coarsen/"
go test -run '^FuzzContractEquivalence$' -fuzz='^FuzzContractEquivalence$' -fuzztime=10s ./internal/coarsen/

# The early-rejecting configuration model against its map-based oracle:
# arbitrary small degree sequences and seeds must give the same pairs in
# the same order, the same error and the same next word from the stream.
echo "==> go test -fuzz=FuzzConfigurationModelEquivalence -fuzztime=10s ./internal/gen/"
go test -run '^FuzzConfigurationModelEquivalence$' -fuzz='^FuzzConfigurationModelEquivalence$' -fuzztime=10s ./internal/gen/

# Million-vertex pipeline smoke at 10^5 scale: generate a BCSR file,
# memory-map it, and run multilevel KL under the race detector (with
# checkptr, which -race turns on, over the mmap'd edge arrays). The same
# instance is then bisected by a plain build and the two side
# assignments diffed byte-for-byte: the determinism contract, end to end
# through the CLI. This is also CI's end-to-end run of truncated KL
# passes: mlkl bounds every pass on its levels above
# 2·kl.MultilevelLookahead = 2,048 vertices, so the cmp holds the bounded
# passes to the same contract. Last, cmd/cutstat recomputes the cut from
# the returned sides over the same BCSR file, without the gain
# machinery, and must print bisect's cut.
echo "==> gengraph -format csr + bisect under -race (mmap smoke)"
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
go run ./cmd/gengraph -model gnp -n 100000 -deg 4 -seed 7 -format csr -out "$smokedir/smoke.csr"
go run -race ./cmd/bisect -in "$smokedir/smoke.csr" -alg mlkl -starts 1 \
  -out "$smokedir/sides.race"
echo "==> bisect -race vs plain build: sides must be identical"
go run ./cmd/bisect -in "$smokedir/smoke.csr" -alg mlkl -starts 1 \
  -out "$smokedir/sides.plain" >"$smokedir/bisect.plain.txt"
cat "$smokedir/bisect.plain.txt"
cmp "$smokedir/sides.plain" "$smokedir/sides.race" \
  || { echo "FAIL: the -race build changed the bisection (sides.plain != sides.race)"; exit 1; }
echo "==> cutstat -graph smoke.csr -sides sides.plain: the cut must be bisect's"
go run ./cmd/cutstat -graph "$smokedir/smoke.csr" -sides "$smokedir/sides.plain" >"$smokedir/cutstat.txt"
cat "$smokedir/cutstat.txt"
bisect_cut=$(grep '^cut:' "$smokedir/bisect.plain.txt" || true)
cutstat_cut=$(grep '^cut:' "$smokedir/cutstat.txt" || true)
[ -n "$bisect_cut" ] && [ "$bisect_cut" = "$cutstat_cut" ] \
  || { echo "FAIL: cutstat recomputed '$cutstat_cut' from bisect's sides, bisect printed '$bisect_cut'"; exit 1; }

# The same end-to-end smoke for the spectral-initialized multilevel
# algorithm: with the coarsest-level Lanczos Fiedler solve seeding the
# refinement, the run under the race detector must produce sides
# byte-identical to the plain build's, through the CLI.
echo "==> bisect -alg mlkl+spec under -race vs plain build (spectral smoke)"
go run -race ./cmd/bisect -in "$smokedir/smoke.csr" -alg mlkl+spec -starts 1 \
  -out "$smokedir/sides.spec.race"
go run ./cmd/bisect -in "$smokedir/smoke.csr" -alg mlkl+spec -starts 1 \
  -out "$smokedir/sides.spec.plain"
cmp "$smokedir/sides.spec.plain" "$smokedir/sides.spec.race" \
  || { echo "FAIL: the -race build changed the spectral bisection (sides.spec.plain != sides.spec.race)"; exit 1; }

# The zero-alloc contracts: matching, contraction, and the full warm
# compact/project cycle must not touch the heap in steady state, and
# neither may a warm SA Refiner's whole run
# (TestRefineSteadyStateZeroAlloc, and its KL counterpart) or a warm
# Fiedler solve.
echo "==> go test -run 'SteadyAllocs|SteadyStateZeroAlloc' ./internal/coarsen/ ./internal/matching/ ./internal/kl/ ./internal/spectral/ ./internal/anneal/ (alloc contract)"
go test -count=1 -run 'SteadyAllocs|SteadyStateZeroAlloc' ./internal/coarsen/ ./internal/matching/ ./internal/kl/ ./internal/spectral/ ./internal/anneal/

# cmd/benchmark is a module of its own, so neither `go vet ./...` nor
# `go test ./...` above reaches it, and it compiles against the
# repository's packages. Vet it in full (go test runs only a subset of
# vet's checks); its test runs every workload at tiny scale and
# certifies every result.
echo "==> (cd cmd/benchmark && go vet .)"
(cd cmd/benchmark && go vet .)
echo "==> (cd cmd/benchmark && go test .) (tiny-scale certified run of every workload)"
(cd cmd/benchmark && go test -count=1 .)

echo "OK: vet, build, no fused multiply-adds, examples, race tests, paper reproduction, daemon load smoke, fault/chaos gates, fuzz smoke, CLI smokes with cutstat's recomputed cut, alloc contracts, the benchmark's vet and its tiny run all passed"
