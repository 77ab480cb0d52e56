GO ?= go

.PHONY: build test race bench ci verify experiments uncovered

# The two newest files of the committed perf trajectory, oldest first — what
# the ci comparator gates on. BENCH_smoke.json never matches the glob.
BENCH_NEWEST := $(shell ls BENCH_[0-9]*.json | sort -V | tail -2)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: race-detector pass over the concurrent subsystems (the workflow
## engine's driver — worker pool, retry timers, a cancelled activity's
## queued elements drained past the service (TestBatchCancelledActivityDrains)
## — the singleflight
## caching resolver +
## resilience guards, the streaming provenance pipeline with graph reads racing
## its commits — each read sees no graph or the whole final one, which commits
## with the run's end (TestGraphReadWhileRunStreams), the storage layer under it
## (TestDBViewConcurrentWithWriter: one Scan sees one commit), the shard router
## with its scatter-gather fan-out, the collection store under it (the record
## projection name detection reads, TestScanSpecies*), the cluster layer —
## the in-memory ownership set (one winner of N concurrent claims), the
## scheduler pool and its wake contract (TestWake*: a pushed admission
## executes with the poll timer an hour away, goes to an idle peer, never
## strands Stop and cannot starve the timer path) — the archival
## store/scrubber, and the curation ledger's ID
## allocation under concurrent detections), plus the core detection stack —
## including crash/resume, a second executor of a running run losing its
## claim (TestRunOwnedWhileExecuting), the sweep racing a pool member
## (TestSweepSchedulerClaimRace), the sharded/unsharded
## equivalence suite, the wake end to end (TestAdmissionWakesPool) and the
## pool's exactly-once accounting (TestPoolCompletedMatchesOutcomes) — that
## drives them end to end, and the span store and /api/v1 handlers, which read
## the live stores while runs commit (a run's rows by primary-key range: no
## run-keyed table has a run_id index, TestRunTablesHaveNoRunIndex, and each
## provenance fact is stored once — a 200-name detection, whose batch-form
## lease is one iteration-batch row, stores at most 16 history rows and 75 KB
## of payload, TestHistoryBytesPerRun).
race:
	$(GO) test -race ./internal/workflow/... ./internal/taxonomy/... ./internal/resilience/... ./internal/provenance/... ./internal/storage/... ./internal/fnjv/... ./internal/shard/... ./internal/cluster/... ./internal/archive/... ./internal/curation/... ./internal/core/... ./internal/telemetry/... ./internal/web/...

## ci: the full hygiene gate — formatting, vet, the race-enabled tests (the
## storage package's carry the commit path's contracts: live apply ≡ WAL replay
## ≡ a map model (TestLiveApplyMatchesReplay), rejected batches leave no trace,
## Apply retains no caller memory (TestApplyDoesNotRetainCallerMemory), the
## on-disk bytes are pinned (TestWireFormatGolden), a torn length header is not
## believed (TestReplayStopsAtOversizedRecord); the workflow package's carry
## the decider's: TestDecide, whose goldens render each completion's folded
## outputs and mark those rebuilt from the elements, and TestDeciderIsPure —
## no clock, lock, context, randomness, telemetry, goroutine or channel in
## decider.go; the provenance package's carry the upgrade guard,
## TestOpensPreviousVersionDirectory), seventeen
## short fuzz smokes — the archival WAV decoder (arbitrary bytes must never
## panic the archive read path), the history prefix resume replays (arbitrary
## events must never panic or wedge the engine), the history-row payload
## encoder (AppendJSON equals json.Marshal byte for byte, errors included, over
## nested lists, nil and empty maps, element batches, HTML and control
## characters, U+2028, invalid UTF-8 and out-of-range years), the decider
## under byte-chosen report orders, batch leases, failures, duplicates and
## resume cuts (dense seqs, one run-finished and last, no index recorded twice
## across iteration-element and iteration-batch events, every completion
## that omits its outputs folding back from its stored encoding to exactly the
## lists the decider collected, every cut before a failure resumes to the same
## history, the Collector's graph legal OPM), the
## history the provenance
## Collector folds (arbitrary events, split anywhere into prefix and live
## stream, must never panic it, make it emit anything but one delta per live
## event with the graph on the terminal one, or leave a dangling edge in
## Collector.Graph()), storage op
## scripts (arbitrary batches applied live must match the model and what a
## reopen replays), the row decoder (whatever decodes re-encodes to an equal
## row, NaN and signed-zero floats included), the provenance annotation and
## span attribute decoders (whatever decodes re-encodes to the same bytes:
## they take only what their encoders write), WAL replay (arbitrary log
## bytes are a torn tail, never a panic or an error), the /api/v1 sequence
## cursors (any ?after=&limit= on a run's edges and spans is a 400 or the
## suffix of the run's list after the cursor — MaxInt64 included — and
## walking by next cursor visits every row once) and the OPM XML codec
## (arbitrary bytes never panic UnmarshalXML; whatever decodes, MarshalXML
## writes exactly the encoding/xml oracle's bytes for, and those bytes decode
## to the same graph; minimizing is capped at 1s, because minimizing a
## multi-kilobyte XML input takes the whole 10s otherwise), the admission-row
## options decoder (arbitrary bytes never panic decodeRunOptions, every
## admitted field round-trips, and a row that still carries the dropped
## lease_ttl_ms and measured_availability decodes to the same options), the
## N-Triples exporter against its test-file reader (whatever parses writes
## back and re-parses to as many triples), the species-name
## parser (a parse's canonical form re-parses to itself), the bounded
## edit distance (in bound, it equals the full distance) and the checklist
## decoder colserver -load reads (arbitrary bytes never panic ReadJSON, and
## whatever decodes dumps and decodes back to an equal checklist) — the chaos smoke
## (randomized kill/resume trials, degraded-authority assessment runs,
## shard-loss traffic, and the scheduler-pool trial: one member drains an
## admission queue in which some runs crash at random history cuts, and every
## queued run must still complete byte-identically exactly once, each crashed
## one resumed by a later drain), the /api/v1 contract smoke (including the /api/v1/cluster
## resources, the per-tenant quota contract, asynchronous detect woken by the
## admission's commit with the poll timer an hour away
## (TestAsyncDetectWakesPool), and the batch-path guard: one
## POST /api/v1/detect over 16 cold names must reach a request-counting stub
## authority as exactly one /resolve_batch and no /resolve), the tracing-overhead
## guard (traced detection within 5% of untraced), the doc-reference check
## (every backticked package identifier, Go file and internal/ or cmd/ path in
## DESIGN.md, API.md and README.md names something the tree still has,
## TestDocReferencesResolve), the reachability check (a go/types walk from
## every main and init of both modules reaches every top-level declaration,
## method and interface method under internal/ but the few reachAllowlist
## names with a reason, TestInternalDeclarationsReachable; dispatch is
## precise: an interface method counts only when reached code calls it, and
## a concrete method is reached through it only when reached code converts
## its type to an interface the type implements — an interface assertion
## `var _ I = (*T)(nil)` is no root — which TestReachDispatchIsPrecise checks
## on a small program), the allocation guards over
## the provenance/telemetry/storage hot paths (zero on the encoders and point
## reads; one per history row, its key, TestHistoryRowAllocs; one per row of
## the commit that ends a run and writes its graph, TestDeltaEncodeAllocs; a 32-byte
## cell, TestValueSizeAllocs, and ≤ 3 allocations per inserted row,
## TestApplyBatchAllocs, on the commit path) and the decider (zero per
## element report, TestDecideAllocs; at most two per batch lease, whatever
## its size, TestDecideLeaseAllocs), a 1-iteration
## bench-harness smoke proving every tracked benchmark still runs (numbers
## land in the gitignored BENCH_smoke.json, not the committed trajectory),
## the bench-trajectory comparator (fails on a >10% ns/op or allocs/op
## regression between the two newest BENCH_<pr>.json files), and the
## multi-tenant load smoke (sustained detect+query traffic at 1 and 4 shards; the >=2x
## throughput gate runs only in the full non-short experiment), and vet +
## tests of the nested benchmark/ module (root `go test ./...` does not enter
## it, and it compiles against core/web/cluster/provenance surfaces a
## refactor here can break), and the executed-code gate (make uncovered).
ci:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(MAKE) race
	$(GO) test ./internal/audio/ -run='^$$' -fuzz=FuzzReadWAV -fuzztime=10s
	$(GO) test ./internal/workflow/ -run='^$$' -fuzz=FuzzResumeHistory -fuzztime=10s
	$(GO) test ./internal/workflow/ -run='^$$' -fuzz=FuzzDecide -fuzztime=10s
	$(GO) test ./internal/workflow/ -run='^$$' -fuzz=FuzzHistoryJSON -fuzztime=10s
	$(GO) test ./internal/provenance/ -run='^$$' -fuzz=FuzzCollectorHistory -fuzztime=10s
	$(GO) test ./internal/storage/ -run='^$$' -fuzz=FuzzApplyReplay -fuzztime=10s
	$(GO) test ./internal/storage/ -run='^$$' -fuzz=FuzzDecodeRow -fuzztime=10s
	$(GO) test ./internal/storage/ -run='^$$' -fuzz=FuzzWALReplay -fuzztime=10s
	$(GO) test ./internal/provenance/ -run='^$$' -fuzz=FuzzDecodeAnnotations -fuzztime=10s
	$(GO) test ./internal/telemetry/ -run='^$$' -fuzz=FuzzDecodeAttrs -fuzztime=10s
	$(GO) test ./internal/web/ -run='^$$' -fuzz=FuzzSeqCursorPages -fuzztime=10s
	$(GO) test ./internal/opm/ -run='^$$' -fuzz=FuzzOPMXML -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/core/ -run='^$$' -fuzz=FuzzRunOptions -fuzztime=10s
	$(GO) test ./internal/linkeddata/ -run='^$$' -fuzz=FuzzReadNTriples -fuzztime=10s
	$(GO) test ./internal/taxonomy/ -run='^$$' -fuzz=FuzzParseName -fuzztime=10s
	$(GO) test ./internal/taxonomy/ -run='^$$' -fuzz=FuzzDistance -fuzztime=10s
	$(GO) test ./internal/taxonomy/ -run='^$$' -fuzz=FuzzReadJSON -fuzztime=10s
	$(GO) run ./cmd/experiments -run chaos -short
	$(GO) test ./internal/web/ -run 'TestAPI|TestCluster|TestAsyncDetect|TestDetectStaysSync'
	$(GO) test -run 'TestTracingOverhead|TestDocReferencesResolve|TestInternalDeclarationsReachable|TestReachDispatchIsPrecise' .
	$(GO) test -run 'Allocs' ./internal/storage/ ./internal/telemetry/ ./internal/provenance/ ./internal/workflow/
	$(GO) run ./cmd/bench -smoke
	$(GO) run ./cmd/bench -compare $(BENCH_NEWEST)
	$(GO) run ./cmd/experiments -run load -short
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) uncovered

## verify: the gate for engine/concurrency/persistence changes — the ci
## hygiene pass (gofmt, vet, race suite) plus the full test suite.
verify: ci
	$(GO) test ./...

## bench: the paper-reproduction benchmarks at the repo root, then the
## hot-path suites via the bench harness, recording the perf trajectory to
## BENCH_$(PR).json (schema bench.v1, documented in EXPERIMENTS.md; min across
## -count repetitions to resist shared-host noise). PR is required, so a run
## never overwrites another PR's committed trajectory point.
bench:
	@test -n "$(PR)" || { echo "make bench: set PR=<n> (writes BENCH_<n>.json)"; exit 1; }
	$(GO) test -bench=. -benchmem .
	$(GO) run ./cmd/bench -out BENCH_$(PR).json

experiments:
	$(GO) run ./cmd/experiments

## uncovered: the executed-code gate (scripts/uncovered.sh). Builds every
## cmd/ program, the examples and the benchmark ledger driver with coverage
## (-cover -coverpkg=repro/...), runs experiments -short, every example, the
## ledger -smoke at -trace 0 and 1, and colserver, curate, fnjvweb and
## orchestrator on loopback driven by curl (each server must exit 0 on
## SIGTERM), all into one GOCOVERDIR in a temporary directory; prints each
## internal/ function that ran none of its statements, per
## `go tool covdata func`, and fails on any that scripts/uncovered.allow
## (at most 15 entries, each with its reason) does not match, or on an entry
## that matches none.
uncovered:
	GO=$(GO) bash scripts/uncovered.sh
