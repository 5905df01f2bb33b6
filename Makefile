# idnlab — reproduction of "A Reexamination of Internationalized Domain
# Names" (DSN 2018). Stdlib-only Go module.

GO ?= go
# Per-target budget of `make fuzz` (CI passes 2s).
FUZZTIME ?= 10s
# -benchtime of `make bench-gates`. The floors are rates, so they hold
# at any benchtime; shorter runs are noisier.
BENCHTIME ?= 1s

.PHONY: all build vet test race bench-check bench-gates fuzz smoke cover report clean

all: build vet test

build:
	$(GO) build ./...

# The smoke drills compile only under their build tag; vet them too.
# Any file gofmt would rewrite fails the target and is named.
vet:
	$(GO) vet ./...
	$(GO) vet -tags smoke ./internal/smoke/
	@unformatted=$$(gofmt -l cmd internal bench); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# Tier 1. Allocation contracts (0 allocs/op on every steady-state hot
# path) are testing.AllocsPerRun tests in here, not benchmark gates.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is a nested module (own go.mod, `replace idnlab => ../`), so
# build/vet/test above never compile it and an exported-API break there
# is silent. This vets and tests it against the root module as it is and
# runs every BENCHMARK.json workload at 1/50 size (prints `smoke ok`).
# The benchmark of record itself is `bash bench/run.sh` (bench/README.md).
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...
	$(GO) run -C bench ./e2e -smoke

# The absolute throughput floors of the micro-benchmarks. The one list
# of them (benchmark, floor, reason) is the gates table in cmd/benchgate.
bench-gates:
	$(GO) run ./cmd/benchgate $(BENCHTIME)

# A short fuzz pass over every fuzz target in the module. The list comes
# from `go test -list`, so a new target cannot be left out; -fuzz takes
# one target of one package per run, hence the loop.
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
	  for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
	    echo "fuzz $$pkg $$target"; \
	    $(GO) test -run='^$$' -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) $$pkg; \
	  done; \
	done

# End-to-end drills over the real binaries (serve, cluster, index,
# watch, stat, store): boot, request set, SIGKILL under load, warm
# restart, clean SIGTERM drains. Binaries are built once per run.
smoke:
	$(GO) test -tags smoke -count=1 ./internal/smoke/

# Statement coverage of tier-1 and the smoke drills, the binaries they
# run included: under -test.gocoverdir, internal/proctest builds the
# binaries with -cover and points their counters at the same directory.
# Prints each package's share, the total and every function no run
# reaches, and fails when the total falls below COVER_MIN: a change that
# deletes code may shrink the denominator, never the share.
COVERDIR := $(CURDIR)/.cover
COVER_MIN := 93.6
cover:
	rm -rf $(COVERDIR) && mkdir -p $(COVERDIR)/data
	$(GO) test -count=1 -cover -coverpkg=idnlab/... ./... -args -test.gocoverdir=$(COVERDIR)/data
	$(GO) test -count=1 -tags smoke -cover -coverpkg=idnlab/... ./internal/smoke/ -args -test.gocoverdir=$(COVERDIR)/data
	$(GO) tool covdata percent -i=$(COVERDIR)/data
	$(GO) tool covdata textfmt -i=$(COVERDIR)/data -o=$(COVERDIR)/cover.out
	$(GO) tool cover -func=$(COVERDIR)/cover.out | awk -v min=$(COVER_MIN) \
	  '$$NF == "0.0%" || $$1 == "total:" { print } $$1 == "total:" { total = $$NF + 0 } \
	  END { if (total < min) { printf "cover: total %.1f%% is below COVER_MIN %.1f%%\n", total, min; exit 1 } }'

# The full study: every table and figure at 1/100 of the paper's corpus.
report:
	$(GO) run ./cmd/idnreport -seed 2018 -scale 100

clean:
	$(GO) clean ./...
	rm -rf .bench_build .cover zones test_output.txt bench_output.txt
