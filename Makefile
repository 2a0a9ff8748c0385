# Lightweight CI for the epg reproduction. `make test` is the tier-1
# gate; `make race` is the concurrency wall over the parallel runtime,
# the graph builders, and every engine kernel, and `make race-full`
# (CI's race step) the same over every package; `make fuzz` runs the
# property-fuzz targets for FUZZTIME each; `make bench` regenerates
# the paper's tables and figures once; `make loc` prints the non-test
# Go lines outside bench/; `make benchfig` writes the full-scale
# scheduling study locally (FIG_sched_study.csv, untracked: policy x
# grain x placement x freq x compress x threads x sockets, with modeled
# joules and energy-delay-product columns from the RAPL-analogue power
# model); `make benchfig-ci` rewrites the committed pinned-scale,
# modeled-only artifact FIG_sched_study_ci.csv; `make benchfig-check` is the
# bench-regression gate that fails when the regenerated modeled study
# -- times, cost counters, or joules -- drifts from the committed
# artifact; `make compress-ratio` prints kron-16 raw vs delta+varint
# adjacency bytes and enforces the 2x floor; `make servefig` rewrites
# the epgd serving study (FIG_serving_study.csv, the admission/
# degradation load sweep); `make servefig-check` is the serving drift
# gate that fails when the regenerated study drifts from the committed
# artifact; `make streamfig` rewrites the streaming-mutation study
# (FIG_stream_study.csv, incremental PR/WCC maintenance vs. full
# recompute across batch size x delete fraction); `make
# streamfig-check` is the streaming drift gate over that artifact;
# `make bench-test` builds and tests the nested bench/ module (the
# wall-clock benchmark behind BENCHMARK.json), which `go test ./...`
# from the root does not reach; `make golden` rewrites the golden
# modeled-cost wall (internal/engines/all/testdata/golden_costs.txt:
# what every engine/kernel pair charges on kron-12, checked by the
# ordinary test run) -- only when a change is meant to move a cost.

GO ?= go
FUZZTIME ?= 20s
# Dataset scale for the scheduling-study figure. 17 gives GAP's
# PageRank regions enough chunks (32 at the 4096 grain) that the steal
# policies actually steal at the 16- and 32-thread points — the regime
# where the locality columns separate. (The CI drift artifact is
# pinned to kron-12 in code, independent of this knob.)
SCHEDFIG_SCALE ?= 17

.PHONY: all build test bench-test race race-full fuzz bench loc golden benchfig benchfig-ci benchfig-check compress-ratio servefig servefig-check streamfig streamfig-check serve-soak speedup-floor big-conformance numa-sweep vet fmt-check

all: test bench-test race

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# bench/ has its own go.mod (replace => ../) so it can import
# internal/...; it compiles against internal/parallel, engines, server.
bench-test:
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./internal/parallel/... ./internal/graph/... ./internal/engines/...

race-full:
	$(GO) test -race ./...

fuzz:
	$(GO) test -fuzz '^FuzzScanInt64$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/parallel/
	$(GO) test -fuzz '^FuzzBitmapToSlice$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/parallel/
	$(GO) test -fuzz '^FuzzChunkQueueDrain$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/parallel/
	$(GO) test -fuzz '^FuzzVarintRoundTrip$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/graph/
	$(GO) test -fuzz '^FuzzCompressedCSREquivalence$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/graph/
	$(GO) test -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/snap/
	$(GO) test -fuzz '^FuzzMutationEquivalence$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/graph/
	$(GO) test -fuzz '^FuzzSketchRepair$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/server/

# Smoke step: print raw vs delta+varint adjacency bytes on kron-16 and
# fail below the 2x floor.
compress-ratio:
	$(GO) test -run 'TestCompressionRatioKron16$$' -v ./internal/graph/

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

# The size the quality-of-design axis is judged by: non-test Go lines
# outside the frozen benchmark module.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l

golden:
	EPG_WRITE_GOLDEN=1 $(GO) test -run 'TestGoldenModeledCosts$$' -count=1 -v ./internal/engines/all/

benchfig:
	EPG_WRITE_SCHEDFIG=1 EPG_BENCH_SCALE=$(SCHEDFIG_SCALE) $(GO) test -run 'TestWriteSchedStudy$$' -v -timeout 30m .

benchfig-ci:
	EPG_WRITE_SCHEDFIG_CI=1 $(GO) test -run TestWriteSchedStudyCI -v -timeout 30m .

benchfig-check:
	EPG_SCHEDFIG_CHECK=1 $(GO) test -run TestSchedStudyCIDrift -v -timeout 30m .

servefig:
	EPG_WRITE_SERVEFIG=1 $(GO) test -run 'TestWriteServeStudy$$' -v .

servefig-check:
	EPG_SERVEFIG_CHECK=1 $(GO) test -run TestServeStudyDrift -v .

streamfig:
	EPG_WRITE_STREAMFIG=1 $(GO) test -run 'TestWriteStreamStudy$$' -v -timeout 30m .

streamfig-check:
	EPG_STREAMFIG_CHECK=1 $(GO) test -run TestStreamStudyDrift -v -timeout 30m .

# Race-enabled soak over the live daemon: concurrent clients x panic
# injection x deadlines x cancellation against the bounded queue, and
# concurrent mutates against two executors.
serve-soak:
	$(GO) test -race -count=2 ./internal/server/ ./internal/logfmt/

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

speedup-floor:
	EPG_SPEEDUP_FLOOR=1 $(GO) test -run TestSpeedupFloor -v .

big-conformance:
	EPG_BIG_CONFORMANCE=1 $(GO) test -run TestBigConformance -v -timeout 60m ./internal/engines/all/

numa-sweep:
	EPG_NUMA_SWEEP=1 $(GO) test -run TestBigNUMASweep -v -timeout 60m ./internal/engines/all/

vet:
	$(GO) vet ./...
