# idnlab — reproduction of "A Reexamination of Internationalized Domain
# Names" (DSN 2018). Stdlib-only Go module.

GO ?= go
FUZZTIME ?= 10s
# Benchtime for bench-ssim: default 1s for publishable numbers; the CI
# smoke uses 10x (timing is noisy at 10x, but allocs/op stays exact, so
# the zero-alloc gate still fails loudly on regressions).
SSIM_BENCHTIME ?= 1s
SSIM_BENCH_PATTERN = ^(BenchmarkScore|BenchmarkWithoutPrefilter|BenchmarkSSIMKernel|BenchmarkSSIMKernelNaive|BenchmarkMSEKernel|BenchmarkMSEKernelNaive|BenchmarkRenderWidthInto|BenchmarkPipelineHomograph)$$
# Benchtime for bench-report: 1s for publishable numbers; the CI smoke
# uses 2x (the full-study benchmark assembles a dataset per iteration, so
# even 2x exercises the whole report path; allocs/op stays exact).
REPORT_BENCHTIME ?= 1s
REPORT_BENCH_PATTERN = ^(BenchmarkStudyRun|BenchmarkLangIDClassify|BenchmarkLangIDClassifyDomain)$$
# Benchtime for bench-index: 1s for publishable numbers; the CI smoke
# uses the default. Gates are absolute (0 allocs/op and >= 100k
# lookups/s), so they hold at any benchtime.
INDEX_BENCHTIME ?= 1s
INDEX_BENCH_PATTERN = ^(BenchmarkIndexLookup|BenchmarkDetectNormalized10k)$$
# Benchtime for bench-watch: 1s for publishable numbers; the CI smoke
# uses 0.3s (the pattern includes the whole-delta parse benchmark, so a
# fixed iteration count would blow the budget; 0.3s still gives the
# match loop ~200k iterations — a stable ns/op against the 500k
# deltas/s floor — and allocs/op is exact at any benchtime).
WATCH_BENCHTIME ?= 1s
WATCH_BENCH_PATTERN = ^(BenchmarkWatchMatch1M|BenchmarkAlertLogAppend|BenchmarkDeltaParse)$$
# Benchtime for bench-stat: 1s for publishable numbers; the CI smoke
# uses 0.3s (a fixed iteration count would blow the budget on the
# ~0.5s/op train benchmark, which rides along unguarded for
# offline-cost visibility). Gates are absolute (0 allocs/op and >= 1M
# classifications/s), so they hold at any benchtime.
STAT_BENCHTIME ?= 1s
STAT_BENCH_PATTERN = ^(BenchmarkStatClassify|BenchmarkStatClassifyNaive|BenchmarkStatTrain)$$
# Knobs for bench-gateway: the codec microbench benchtime (allocs/op is
# exact at any benchtime; the zero-alloc gate holds even at CI's 10x),
# the load-phase duration and the per-worker rate cap. CI smoke:
# `make bench-gateway GATEWAY_CODEC_BENCHTIME=10x GATEWAY_BENCH_DURATION=4s`.
GATEWAY_CODEC_BENCHTIME ?= 1s
GATEWAY_BENCH_DURATION ?= 8s
GATEWAY_BENCH_RATE ?= 500
# Knobs for bench-store: the warm-boot corpus size (1M verdicts for the
# publishable warm-boot budget; CI uses 200k — the >= 100k entries/s
# recovery gate is a rate, so it holds at any corpus size), the vstore
# microbench benchtime, the replication-overhead load duration and the
# per-worker rate cap. CI smoke: `make bench-store STORE_BENCH_RECORDS=200000
# STORE_BENCHTIME=0.3s STORE_BENCH_DURATION=4s`.
STORE_BENCH_RECORDS ?= 1000000
STORE_BENCHTIME ?= 1s
STORE_BENCH_DURATION ?= 8s
STORE_BENCH_RATE ?= 500

.PHONY: all build vet test race bench-check bench bench-ssim bench-report bench-index bench-watch bench-stat bench-gateway bench-store report fuzz fuzz-smoke serve-smoke serve-bench cluster-smoke cluster-bench index-smoke watch-smoke stat-smoke store-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is a nested module (own go.mod, `replace idnlab => ../`), so
# build/vet/test above never compile it and an exported-API break there
# is silent. This vets and tests it against the root module as it is and
# runs every BENCHMARK.json workload at 1/50 size (prints `smoke ok`).
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...
	$(GO) run -C bench ./e2e -smoke

# One benchmark per paper table/figure plus ablations; -v includes rows.
bench:
	$(GO) test -bench=. -benchmem ./...

# SSIM hot-path benchmarks (PR 2): kernel + scan numbers into
# BENCH_ssim.json (old-vs-new ns/op, B/op, allocs/op against the recorded
# pre-optimization baseline). Exits non-zero if any steady-state path
# allocates. CI smoke: `make bench-ssim SSIM_BENCHTIME=10x`.
bench-ssim:
	$(GO) test -run='^$$' -bench '$(SSIM_BENCH_PATTERN)' -benchmem -benchtime=$(SSIM_BENCHTIME) . \
	  | $(GO) run ./cmd/benchjson \
	      -baseline BENCH_baseline_ssim.txt \
	      -out BENCH_ssim.json \
	      -require-zero-allocs BenchmarkScore,BenchmarkSSIMKernel,BenchmarkMSEKernel,BenchmarkRenderWidthInto

# Full-study + language-ID benchmarks (PR 4): the corpus-index Study.Run
# and the dense langid classifier into BENCH_report.json (old-vs-new
# against the recorded pre-index baseline). Exits non-zero if any
# steady-state Classify path allocates. CI smoke:
# `make bench-report REPORT_BENCHTIME=2x`.
bench-report:
	$(GO) test -run='^$$' -bench '$(REPORT_BENCH_PATTERN)' -benchmem -benchtime=$(REPORT_BENCHTIME) ./internal/core/ ./internal/langid/ \
	  | $(GO) run ./cmd/benchjson \
	      -baseline BENCH_baseline_report.txt \
	      -out BENCH_report.json \
	      -require-zero-allocs BenchmarkLangIDClassify/ascii,BenchmarkLangIDClassify/latin-diacritics,BenchmarkLangIDClassify/nonlatin,BenchmarkLangIDClassify/cyrillic,BenchmarkLangIDClassifyDomain

# Candidate-index benchmarks (PR 6): steady-state Candidates lookup and
# the end-to-end indexed DetectNormalized at 10k brands into
# BENCH_index.json (old = recorded brute-sweep baseline). Exits non-zero
# if the lookup allocates or drops below 100k lookups/s.
bench-index:
	$(GO) test -run='^$$' -bench '$(INDEX_BENCH_PATTERN)' -benchmem -benchtime=$(INDEX_BENCHTIME) ./internal/candidx/ ./internal/core/ \
	  | $(GO) run ./cmd/benchjson \
	      -baseline BENCH_baseline_index.txt \
	      -out BENCH_index.json \
	      -require-zero-allocs BenchmarkIndexLookup,BenchmarkDetectNormalized10k \
	      -min-throughput BenchmarkIndexLookup=100000

# Streaming watch-tier benchmarks (PR 7): one delta event through the
# match stage at 10k brands / 1M standing subscriptions, the alert log's
# group-commit batching curve (1/16/256 writers), and the delta parser,
# into BENCH_watch.json (old = recorded WATCH_NAIVE=1 sweep baseline).
# Exits non-zero if the match loop allocates or drops below 500k
# deltas/s. CI smoke: `make bench-watch WATCH_BENCHTIME=0.3s`.
bench-watch:
	$(GO) test -run='^$$' -bench '$(WATCH_BENCH_PATTERN)' -benchmem -benchtime=$(WATCH_BENCHTIME) ./internal/watch/ \
	  | $(GO) run ./cmd/benchjson \
	      -baseline BENCH_baseline_watch.txt \
	      -out BENCH_watch.json \
	      -require-zero-allocs BenchmarkWatchMatch1M \
	      -min-throughput BenchmarkWatchMatch1M=500000

# Statistical-classifier benchmarks (PR 8): one label scored through the
# zero-copy IDNSTAT1 model under serving conditions into BENCH_stat.json
# (old = recorded map-based-scorer baseline). The measured prefilter
# pass rate rides along as a custom pass/op metric. Exits non-zero if
# the classify path allocates or drops below 1M classifications/s.
# CI smoke: `make bench-stat STAT_BENCHTIME=0.3s`.
bench-stat:
	$(GO) test -run='^$$' -bench '$(STAT_BENCH_PATTERN)' -benchmem -benchtime=$(STAT_BENCHTIME) ./internal/feat/ \
	  | $(GO) run ./cmd/benchjson \
	      -baseline BENCH_baseline_stat.txt \
	      -out BENCH_stat.json \
	      -require-zero-allocs BenchmarkStatClassify \
	      -min-throughput BenchmarkStatClassify=1000000

# Gateway wire-path benchmark (PR 9): internal/api append-codec
# microbenchmarks (vs the recorded encoding/json baseline, hard
# 0 allocs/op gate on every encoder) plus the request-coalescing
# throughput comparison — idngateway + 2 rate-capped workers under a
# singles-only load, coalescing off vs -coalesce 500us — into
# BENCH_gateway.json. Fails if coalescing buys < 1.5x sustained 2xx QPS.
bench-gateway:
	CODEC_BENCHTIME=$(GATEWAY_CODEC_BENCHTIME) sh scripts/gateway_bench.sh $(GATEWAY_BENCH_DURATION) $(GATEWAY_BENCH_RATE)

# The full study: every table and figure at 1/100 of the paper's corpus.
report:
	$(GO) run ./cmd/idnreport -seed 2018 -scale 100

# Short fuzz passes over the codecs (FUZZTIME=2s for the CI smoke).
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/punycode/
	$(GO) test -fuzz=FuzzEncode -fuzztime=$(FUZZTIME) ./internal/punycode/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/zonefile/
	$(GO) test -fuzz=FuzzScanStream -fuzztime=$(FUZZTIME) ./internal/zonefile/
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/dnssim/
	$(GO) test -fuzz=FuzzDecodeDetect -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzDecodeBatch -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzIndexRoundTrip -fuzztime=$(FUZZTIME) ./internal/candidx/
	$(GO) test -fuzz=FuzzIndexLookup -fuzztime=$(FUZZTIME) ./internal/candidx/
	$(GO) test -fuzz=FuzzDeltaParse -fuzztime=$(FUZZTIME) ./internal/watch/
	$(GO) test -fuzz=FuzzAlertLogReplay -fuzztime=$(FUZZTIME) ./internal/watch/
	$(GO) test -fuzz=FuzzCodecRoundTrip -fuzztime=$(FUZZTIME) ./internal/api/
	$(GO) test -fuzz=FuzzDecodeResponseBytes -fuzztime=$(FUZZTIME) ./internal/api/

# End-to-end smoke of the online detection service: boot idnserve, fire
# the mixed single/batch/bad-input set via idnload -smoke, assert clean
# SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# Serving benchmark: idnload's zipfian replay against a local idnserve
# (longer-running; reports achieved QPS and latency percentiles).
SERVE_BENCH_DURATION ?= 10s
serve-bench:
	sh scripts/serve_bench.sh $(SERVE_BENCH_DURATION)

# Distribution-tier smoke (PR 5): idngateway + 2 idnserve workers, the
# full smoke set through the gateway, SIGKILL one worker, smoke again on
# the survivors, clean SIGTERM drains.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Horizontal-scaling benchmark (PR 5): one rate-capped worker vs gateway
# + 3 rate-capped workers, sustained 2xx QPS into BENCH_cluster.json.
# Fails if the 3-node cluster does not sustain >= 2x one node.
CLUSTER_BENCH_DURATION ?= 8s
CLUSTER_BENCH_RATE ?= 500
cluster-bench:
	sh scripts/cluster_bench.sh $(CLUSTER_BENCH_DURATION) $(CLUSTER_BENCH_RATE)

# Candidate-index smoke (PR 6): build a small index with idnindex, verify
# it (deterministic rebuild + sampled sweep equivalence), then serve
# through idnserve -index and fire the smoke set.
index-smoke:
	sh scripts/index_smoke.sh

# Watch-tier smoke (PR 7): idnzonegen emits a delta stream, idnwatch
# processes it once (alerts, idempotent cursor, deterministic re-run),
# then tails it as a daemon with /metrics and drains cleanly on SIGTERM.
watch-smoke:
	sh scripts/watch_smoke.sh

# Statistical-classifier smoke (PR 8): idnzonegen emits the labeled CSV,
# idnstat trains and gates the held-out eval (recall/pass-rate), idnserve
# boots with -stat and the labeled attack set must come back with
# ensemble verdicts, /metrics must expose the prefilter split, clean
# SIGTERM drain.
stat-smoke:
	sh scripts/stat_smoke.sh

# Durable-store smoke (PR 10): gateway + 3 idnserve workers with warm
# logs, zipfian warm-up, SIGKILL one worker under live load, restart it
# on the same store directory, assert zero non-429 errors, a non-empty
# warm boot, the cold-miss budget from /metrics, and clean drains.
store-smoke:
	sh scripts/store_smoke.sh

# Durable-store benchmark (PR 10): vstore append/recovery/since
# microbenchmarks (warm-boot budget: >= 100k entries/s so a 1M-verdict
# partition boots in <= 10s) plus the replication-overhead comparison —
# the cluster-bench topology memory-only vs -store — into
# BENCH_store.json. Fails if the durable tier costs > 10% throughput.
bench-store:
	RECORDS=$(STORE_BENCH_RECORDS) STORE_BENCHTIME=$(STORE_BENCHTIME) sh scripts/store_bench.sh $(STORE_BENCH_DURATION) $(STORE_BENCH_RATE)

# Reduced-budget fuzz pass for CI.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=2s

clean:
	$(GO) clean ./...
	rm -rf zones test_output.txt bench_output.txt
