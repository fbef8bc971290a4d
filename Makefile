# Build / verification entry points. `make verify` is the tier-1 loop:
# gofmt + vet + build + full tests + race on the concurrency-bearing packages +
# the benchmark smoke + every example.

GO ?= go
GOFMT ?= gofmt

# Hot-path benchmarks captured into BENCH_retrieval.json.
BENCH_PATTERN := BenchmarkF2RetrievalGreedy$$|BenchmarkF5PaperQuery$$|BenchmarkSimCache
# BENCH_NOTE, when set, names the change a `make bench` / `make
# bench-million` re-record belongs to; it is appended to every record's
# note in BENCH_retrieval.json.
BENCH_NOTE ?=
note = $(1)$(if $(BENCH_NOTE),; $(BENCH_NOTE))
# Offline-pipeline benchmarks captured into BENCH_build.json.
BENCH_BUILD_PATTERN := BenchmarkBuildPaperScale|BenchmarkRetrainPaperScale

.PHONY: fmt build vet test race race-all smoke examples fma-check verify e2e bench bench-build bench-scale bench-million bench-serving bench-serving-smoke bench-ingest bench-federated cover fuzz loc clean

# Packages whose per-package coverage `make cover` gates at 80%.
COVER_GATED := internal/matrix internal/mmm internal/hmmm internal/boot internal/shard internal/retrieval internal/matn internal/index internal/coord internal/rpc internal/live internal/videomodel internal/fed internal/atomicwrite internal/store internal/coalesce internal/obs
COVER_MIN := 80.0

# Fails, listing the files, when any .go file is not gofmt-formatted.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The packages whose job is concurrency, under the race detector: the
# retrieval hot path, the server (incl. the ingest/compaction hammer),
# the metrics registry, the in-process and federated scatter-gathers,
# the live-ingest journal and delta, the network path — rpc and coord
# share connection-owned buffers across exchanges and run the chaos
# suite — and the coalescer, whose waiters share one execution and
# cancel it by reference count.
RACE_PKGS := retrieval server obs shard live fed rpc coord coalesce
race:
	$(GO) test -race $(RACE_PKGS:%=./internal/%/...)

# Full-repo race sweep; slower than the targeted race target, meant
# for CI and pre-release checks.
race-all:
	$(GO) test -race ./...

# The end-to-end /api/query benchmark in smoke mode: every serving shape
# on a paper-scale archive, checked against a direct engine call, the
# brute-force oracle and the byte-identical-body gate (about 12 s).
smoke:
	$(GO) run ./benchmark -smoke

# Every program under examples/, run to completion (a few seconds warm);
# a build alone would not notice an example that fails at run time.
EXAMPLES := $(notdir $(wildcard examples/*))
examples:
	@for ex in $(EXAMPLES); do \
		echo "examples/$$ex"; \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done

# The Go spec lets a compiler fuse x*y + z into one rounding; amd64's
# never does, so every bit-identity gate and frozen record here is an
# amd64 fact unless the other targets compute the same bits. fma-check
# cross-compiles the numeric packages, those that generate every
# golden's inputs (the synthetic archive, its audio and its features),
# and the ingest classifier, clustering, shot detection, the metrics
# histogram, the experiment tables and the recall statistics, for every
# GOARCH whose compiler fuses (offline: the toolchain builds the standard library from
# GOROOT) and fails on any fused multiply-add in their assembly,
# printing its file:line. An explicit float64(x*y) conversion forbids
# the fusion.
FMA_PKGS := retrieval hmmm mmm matrix xrand synthvideo synthaudio features dsp mining obs experiments cluster shotdetect retrieval/retrievaltest
FMA_ARCHES := arm64 ppc64le s390x riscv64 loong64
fma-check:
	@ok=1; for arch in $(FMA_ARCHES); do \
		out=$$(GOARCH=$$arch $(GO) build -gcflags=-S $(FMA_PKGS:%=./internal/%) 2>&1) || { echo "$$out"; exit 1; }; \
		fused=$$(echo "$$out" | awk '$$4 ~ /^(FN?M(ADD|SUB)[DS]?|WFN?M[AS][DS]B)$$/ {print $$3, $$4}' | tr -d '()' | sed 's|$(CURDIR)/||' | sort -u); \
		if [ -n "$$fused" ]; then echo "fma-check: $$arch fuses:"; echo "$$fused"; ok=0; fi; \
	done; [ $$ok -eq 1 ] && echo "fma-check: no fused multiply-add on $(FMA_ARCHES)"

verify: fmt vet build test race smoke examples fma-check

# End-to-end distributed serving: builds cmd/hmmm-shardd, boots 3 real
# shard processes plus an in-process coordinator, and proves the
# differential (bit-identity vs a local oracle), the chaos smoke
# (SIGKILL one shard -> committed partials, restart -> exact again),
# and goroutine-leak-free shutdown, all under the race detector.
e2e:
	$(GO) test -tags e2e -race -count=1 -timeout 5m ./e2e/

# Heavy-traffic serving curve: cmd/hmmmload offers the same bursty
# mixed workload (repeated + unique + heavy queries) to an in-process
# server twice — coalescing + two-lane admission off, then on — and the
# two records land in BENCH_serving.json. The claim this captures: at
# saturating load with a >=30% repeat ratio, coalescing+lanes give
# higher goodput and a lower cheap-query p99 than the single semaphore.
bench-serving:
	$(GO) run ./cmd/hmmmload -compare -bench \
		| $(GO) run ./cmd/benchjson -out BENCH_serving.json \
			-note "request coalescing + two-lane admission vs single-semaphore serving"
	$(GO) run ./cmd/hmmmload -coord 3 -bench -assert-degraded -assert-no-errors \
		| $(GO) run ./cmd/benchjson -out BENCH_serving.json \
			-note "coordinated 3-shard serving; one shard killed at t/3 and restarted at 2t/3 (goodput + degraded rate through the fault)"

# Live-ingest serving curve: cmd/hmmmload offers videos to POST
# /api/ingest at a fixed rate (journal + compaction snapshot on disk, so
# the ack latency includes the fsync) while a background prober queries
# continuously; the record lands in BENCH_serving.json with the accept
# latency, the freshness lag (submit -> first scoped-query hit), the
# prober's tail latency (a serving pause during compaction would surface
# as its max), and the compaction count.
bench-ingest:
	$(GO) run ./cmd/hmmmload -ingest-rate 4 -duration 5s -ingest-compact-after 4 \
		-bench -assert-no-errors \
		| $(GO) run ./cmd/benchjson -out BENCH_serving.json \
			-note "live ingest at 4 videos/s: accept latency, freshness lag, prober tail through background compaction"

# Federated-retrieval smoke: one generated model per built-in domain
# behind a single server, POST /api/query/federated driven closed-loop
# with per-domain patterns (every query exercises the vocabulary-skip
# path on the other two members); the merged-query latency lands in
# BENCH_serving.json.
bench-federated:
	$(GO) run ./cmd/hmmmload -federated soccer,basketball,news \
		-duration 3s -videos 6 -shots 600 -annotated 300 \
		-bench -assert-no-errors \
		| $(GO) run ./cmd/benchjson -out BENCH_serving.json \
			-note "federated query over 3 domain models: merged-ranking latency, member skips via vocabulary gating"

# CI smoke for the serving path: a short single run that must produce
# coalesce hits and zero errors (admission 503s are not errors).
bench-serving-smoke:
	$(GO) run ./cmd/hmmmload -duration 2s -qps 1200 \
		-videos 6 -shots 1200 -annotated 400 \
		-assert-coalesce -assert-no-errors

# Per-package coverage with a floor on the packages whose correctness
# the differential harness and fuzz targets are meant to pin.
cover:
	@$(GO) test -cover ./... | tee /tmp/hmmm-cover.txt
	@ok=1; \
	for pkg in $(COVER_GATED); do \
		pct=$$(grep "hmmm/$$pkg[[:space:]]" /tmp/hmmm-cover.txt | grep -o '[0-9.]*% of statements' | cut -d% -f1); \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for $$pkg"; ok=0; \
		elif awk -v p="$$pct" -v m="$(COVER_MIN)" 'BEGIN{exit !(p < m)}'; then \
			echo "cover: $$pkg at $$pct% is below the $(COVER_MIN)% floor"; ok=0; \
		else echo "cover: $$pkg at $$pct% (floor $(COVER_MIN)%)"; fi; \
	done; [ $$ok -eq 1 ]

# Brief native-fuzz runs of the parser, the durable-record decoder (all
# five kinds: feedback log, ingest journal, model, compact model and
# corpus snapshots), the wire codec, the ranking merge against its
# map-keyed reference, the /api/query codec (the canonical request
# decoder against decodeJSON, the response appender against
# json.Encoder), and the canonical A1 block and A2 against their dense
# values; CI runs the same budget.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzMATNParse -fuzztime=$(FUZZTIME) ./internal/matn/
	$(GO) test -fuzz=FuzzRecordDecode -fuzztime=$(FUZZTIME) ./internal/atomicwrite/
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=$(FUZZTIME) ./internal/rpc/
	$(GO) test -fuzz=FuzzMergeRanked -fuzztime=$(FUZZTIME) ./internal/retrieval/
	$(GO) test -fuzz=FuzzQueryRequestDecode -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzQueryResponseAppend -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzA1Canonical -fuzztime=$(FUZZTIME) ./internal/mmm/
	$(GO) test -fuzz=FuzzA2Canonical -fuzztime=$(FUZZTIME) ./internal/mmm/

# Line counts of the non-test and test .go files of every package
# directory, and their totals: the LoC figures ROADMAP and CHANGES cite.
loc:
	@printf '%-34s %9s %6s\n' package non-test test
	@for d in $$(find . -name '*.go' -not -path './.git/*' | xargs -n1 dirname | sort -u); do \
		src=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		tst=$$(find $$d -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-34s %9d %6d\n' $${d#./} $$src $$tst; \
	done | awk '{print; s += $$2; t += $$3} END {printf "%-34s %9d %6d\n", "total", s, t}'

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime=200x -count=1 . \
		| $(GO) run ./cmd/benchjson -out BENCH_retrieval.json -note "$(call note,hot-path retrieval benches)"
	$(GO) test -run '^$$' -bench 'BenchmarkQueryWithMiddleware' -benchmem -benchtime=200x -count=1 ./internal/server/ \
		| $(GO) run ./cmd/benchjson -out BENCH_retrieval.json -note "$(call note,resilience middleware overhead vs F5PaperQuery)"
	$(GO) test -run '^$$' -bench 'BenchmarkQueryWithObs' -benchmem -benchtime=200x -count=1 ./internal/server/ \
		| $(GO) run ./cmd/benchjson -out BENCH_retrieval.json -note "$(call note,observability overhead vs QueryWithMiddleware baseline (budget <=5%))"
	@echo "appended to BENCH_retrieval.json"

# CI smoke for the coarse→fine pipeline: the differential recall gate
# (prefilter-on recall@10 >= 0.95 vs the exact oracle, plus the
# CoarseCandidates=0 bit-identity suite) and the 1x point of the scale
# benchmarks (two-stage retrieval, in-process shards vs one engine) in
# -short mode. Fast enough for every CI run; the full latency/memory
# curve is `make bench-million`.
bench-scale:
	$(GO) test -run 'TestCoarse|TestGroupCoarse' ./internal/retrieval/ ./internal/shard/
	$(GO) test -run '^$$' -bench 'BenchmarkMillionShot$$|BenchmarkShardedRetrieval$$' -short -benchtime=20x -count=1 .

# The full coarse→fine latency/memory curve and the in-process shard
# sweep (K = 1/2/4 against one engine) at 1x/10x/100x archive scale
# (~1.16M shots at 100x), captured into BENCH_retrieval.json. Both
# share one build per scale; the 100x build takes a few minutes on one
# core. Each benchmark runs five times and benchjson records the
# per-metric median with its sample count.
bench-million:
	$(GO) test -run '^$$' -bench 'BenchmarkMillionShot$$|BenchmarkShardedRetrieval$$' -benchmem -benchtime=100x -count=5 -timeout 60m . \
		| $(GO) run ./cmd/benchjson -out BENCH_retrieval.json -note "$(call note,coarse->fine two-stage retrieval + compact layout scale curve; in-process shards vs one engine)"
	@echo "appended to BENCH_retrieval.json"

bench-build:
	$(GO) test -run '^$$' -bench '$(BENCH_BUILD_PATTERN)' -benchmem -benchtime=50x -count=1 . \
		| $(GO) run ./cmd/benchjson -out BENCH_build.json
	$(GO) test -run '^$$' -bench 'BenchmarkQueryUnderRetrain' -benchtime=200x -count=1 ./internal/server/ \
		| $(GO) run ./cmd/benchjson -out BENCH_build.json -note "query p99 under retrain"
	@echo "appended to BENCH_build.json"

clean:
	$(GO) clean ./...
