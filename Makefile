# idnlab — reproduction of "A Reexamination of Internationalized Domain
# Names" (DSN 2018). Stdlib-only Go module.

GO ?= go
# Per-target budget of `make fuzz` (CI passes 2s).
FUZZTIME ?= 10s
# -benchtime of `make bench-gates`. The floors are rates, so they hold
# at any benchtime; shorter runs are noisier.
BENCHTIME ?= 1s

.PHONY: all build vet test race bench-check bench-gates fuzz smoke report clean

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

# The full study: every table and figure at 1/100 of the paper's corpus.
report:
	$(GO) run ./cmd/idnreport -seed 2018 -scale 100

clean:
	$(GO) clean ./...
	rm -rf .bench_build zones test_output.txt bench_output.txt
