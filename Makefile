# Single entry point shared by CI (.github/workflows/ci.yml) and local
# runs: `make ci` is exactly what the gate executes.

GO      ?= go

.PHONY: build test race scale-probe yardstick-smoke suite-gate lint deadcode mutant-gate fmt watch-smoke pins traffic-cover coverage fuzz-smoke loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# scale-probe builds and converges the large and internet presets once:
# the proof that a paper-scale world still fits the box, and the one
# loop too long for bench/'s per-run time cap.
scale-probe:
	$(GO) test -run '^$$' -bench '^BenchmarkLargeWorldBuild$$' -benchtime 1x -timeout 30m .

# yardstick-smoke is bench/'s own shrunken pass over all four workloads,
# untraced then traced: it checks that the harness and every binary it
# drives still work, and its numbers are not comparable. Perf
# comparisons between commits: bash bench/run.sh, go run ./bench -compare.
yardstick-smoke:
	$(GO) run ./bench -all -smoke -out .bench_build/smoke.json

# suite-gate runs the statistical release gates: every registered
# scenario across pinned seeds (suites/release.json, report + provenance
# written to the working directory) plus the detector-quality suite
# under the dictionary arm (suites/detectors.json, written to
# suite-detectors/); CI uploads both.
suite-gate:
	$(GO) run ./cmd/suiterun -suite suites/release.json -out .
	$(GO) run ./cmd/suiterun -suite suites/detectors.json -out suite-detectors

# watch-smoke boots wormwatchd, replays an attack scenario through the
# lossless engine tap, and asserts /alerts is served and byte-identical
# at two -engine-shards values; then recovery, sharding, resharding.
watch-smoke:
	./ci/watchsmoke.sh

# pins holds the repo's byte-identity guarantee to the hashes in
# ci/pins.txt: each line's command, run on freshly built binaries, must
# print exactly the pinned bytes (worms reports at every -workers, the
# bench sweep grid, both suite reports, commdict replays).
pins:
	./ci/pins.sh

# traffic-cover runs the pins (ci/pins.sh, unchanged) on binaries built
# with coverage of every package and writes what they executed, per
# function, to .cover/func.txt: which product code the pinned commands
# reach, the traffic evidence for deleting a path none of them does.
# The pins must still pass. Not part of ci.
traffic-cover:
	rm -rf .cover && mkdir .cover
	GOFLAGS='-cover -coverpkg=bgpworms/...' GOCOVERDIR='$(CURDIR)/.cover' ./ci/pins.sh
	$(GO) tool covdata func -i=.cover >.cover/func.txt

# coverage enforces the ratchet in ci/coverage.txt (raise-only).
coverage:
	./ci/coverage.sh

# fuzz-smoke runs each native fuzzer for 30s against its checked-in
# seed corpus (testdata/fuzz), catching codec regressions fuzzing finds
# faster than the unit suites.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -fuzz '^FuzzCommunityText$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/bgp
	$(GO) test -fuzz '^FuzzMRTRecord$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/mrt
	$(GO) test -fuzz '^FuzzSuiteFile$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/suite
	$(GO) test -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/durable
	$(GO) test -fuzz '^FuzzCheckpoint$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/durable
	$(GO) test -fuzz '^FuzzAlertJSON$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/serve

# lint is gofmt, go vet and the layering gate (layering_test.go): the
# record package imports only the wire and simulation layers, watch and
# semantics never depend on core, only bench/ names the record's old
# watch-package aliases, and no binary registers -scale/-seed itself.
lint:
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) test -count=1 -run '^TestLayering$$' .

# deadcode rebuilds every main package without inlining and fails on a
# non-test function under internal/ that the linker put into none of
# them, unless ci/deadcode.allow names it with a reason (and on an
# allow-list line that no longer applies). The binaries are the API.
deadcode:
	$(GO) test -tags deadcode -count=1 -run '^TestDeadcode$$' .

# mutant-gate applies each ci/mutants/*.patch — a seeded bug — to a
# temp copy of the tree and requires the tests its header names to go
# red; a patch that no longer applies fails the gate too.
mutant-gate:
	./ci/mutantgate.sh

fmt:
	gofmt -w .

# loc prints the non-test Go line count outside bench/ — the figure
# ROADMAP's size line and every "net-negative" criterion refer to.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

ci: build lint deadcode mutant-gate race coverage fuzz-smoke watch-smoke pins scale-probe yardstick-smoke suite-gate
