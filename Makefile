# Development entry points. CI runs the same commands (see
# .github/workflows/ci.yml); nothing here is required to build.

GO ?= go
# Repeat each benchmark COUNT times so `benchstat old.txt new.txt` has
# samples to test significance on (benchstat wants >= 10 for tight CIs).
COUNT ?= 10

.PHONY: build cross test race lint fmt-check shim-guard bench bench-smoke bench-engine bench-scale bench-check bench-flood bench-grid bench-pairs fuzz-smoke load-smoke

build:
	$(GO) build ./...

# The cache reads its entries with raw system calls on unix and with
# os.ReadFile elsewhere (sweep/readfile_*.go): build both sides.
cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# The determinism-contract analyzers (internal/lint: nodeterm, maporder,
# allowcheck) over every package of the module. Exits nonzero
# on any diagnostic; see docs/DETERMINISM.md for the rules and the
# //tcpz:allow suppression syntax.
lint: fmt-check shim-guard
	$(GO) run ./cmd/tcpz-vet ./...

# Every Go file, bench/ included, is gofmt-formatted: gofmt -l lists none.
fmt-check:
	@files=$$(gofmt -l .); test -z "$$files" \
		|| { echo "$$files"; echo 'gofmt -l lists the files above; run gofmt -w on them'; exit 1; }

# bench/ compiles against a few deprecated shims until the next benchmark
# revision retargets it (attacksim.New/Config, FloodRun.Botnet,
# netsim.NewSharded, ShardStats, ExecStats.Steals/MeanQueueDepth, and the
# SimulatedCrypto fields of the sims' configs). Fail if any Go file
# outside bench/ uses one.
shim-guard:
	@! grep -rnE --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'attacksim\.New\(|attacksim\.Config\{|\.Botnet\b|netsim\.NewSharded|\.ShardStats\(|\.Steals\b|\.MeanQueueDepth\b|SimulatedCrypto:|\.SimulatedCrypto\b' . \
		|| { echo 'deprecated shim called outside bench/ (the next benchmark revision removes them)'; exit 1; }

# Full microbench sweep, benchstat-ready:
#   make bench > new.txt            # on your branch
#   git stash && make bench > old.txt && git stash pop
#   benchstat old.txt new.txt
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(COUNT) ./...

# The event-engine hot path only (the numbers recorded in
# docs/PERFORMANCE.md "Engine microbenchmarks", the hold model at
# 150-2,400 pending events that shows what the queue costs at the length
# a flood cell keeps it, and one 69-segment response as a packet train
# and as single sends).
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineScheduling|BenchmarkPacketPath|BenchmarkEngineHold|BenchmarkTrain' -benchmem -count $(COUNT) ./internal/netsim/

# One iteration of every benchmark — the CI rot guard — the allocation
# budgets of the challenge path (tier-1 runs them too; CI's -short test
# job does not) and the packet heap's budget per flood-cell packet leg.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	$(GO) test -run 'TestAllocBudget|TestHeapBudget' -count=1 ./internal/serversim ./internal/attacksim ./internal/clientsim ./internal/experiments ./sweep

# The macro-source scale wall and curve: the 100k-source bounded-memory
# test (skipped under -short, so `make race`/CI's -short test job never
# runs it implicitly) plus the sources-vs-heap/runtime sweep behind
# BENCH_scale.json.
bench-scale:
	$(GO) test -run 'TestMacroFloodBoundedMemory|TestMacroFloodRetainedPerSource' -v ./internal/experiments/
	$(GO) test -run '^$$' -bench BenchmarkMacroFlood -benchtime=3x .

# bench/ (the repository's benchmark, see BENCHMARK.json) is a module of
# its own that `go build ./...` and `go test ./...` never reach, yet it
# compiles against this module's packages: vet and test it explicitly.
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# One paper-shaped connection-flood cell through the benchmark harness.
bench-flood:
	bash bench/run.sh --workload flood_cell --seed 1

# One 48-cell figure grid into an empty cache: the simulator-dominated
# path every figure regeneration takes.
bench-grid:
	bash bench/run.sh --workload fig_grid_cold --seed 1

# End-to-end pairs: BASE (exported with git archive) against the working
# tree, alternating which runs first; prints each pair's ratio of every
# end-to-end metric and the medians (scripts/bench-pairs.sh). A claimed
# gain is read from ten or more pairs. BENCH_PAIRS_DIR keeps the export.
BASE ?= HEAD
WORKLOAD ?= fig_grid_cold
SEED ?= 1
PAIRS ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(BASE) $(WORKLOAD) $(SEED) $(PAIRS)

fuzz-smoke:
	$(GO) test -fuzz=FuzzChallengeRoundTrip -fuzztime=10s ./tcpopt
	$(GO) test -fuzz=FuzzCookieRoundTrip -fuzztime=10s ./syncookie
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=10s ./puzzlenet
	$(GO) test -fuzz=FuzzCacheEntry -fuzztime=10s ./sweep

# Real-network robustness smoke (docs/ROBUSTNESS.md): the fault-injected
# chaos suite under the race detector, then a self-hosted tcpz-load run
# that must sustain >= 500 completed handshakes on loopback.
load-smoke:
	$(GO) test -race -run 'TestChaos' -v ./puzzlenet
	$(GO) build -o bin/tcpz-load ./cmd/tcpz-load
	bin/tcpz-load -self -duration 3s -clients 12 -attackers 6 -min-handshakes 500
