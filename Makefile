# classfuzz-go build targets. Everything is stdlib-only and offline.

GO ?= go

.PHONY: all build test vet lint bench-tables race experiments catalog report clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis passes over the generated seed corpus (seeds must be
# clean — only mutants may lint dirty), then the determinism linter
# over every internal package: results must be a pure function of
# (seed, config), and reporting-only clock reads carry a waiver.
lint:
	$(GO) run ./cmd/classlint -gen 500 -q
	$(GO) run ./cmd/detlint $$($(GO) list -f '{{.Dir}}' ./internal/...)

test:
	$(GO) test ./...

# Short mode skips the soak and multi-repeat studies.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The repository benchmark (four fixed-work workloads, paired-run
# comparison, traced per-layer run) lives in bench/; see bench/README.md.

# The original micro/meso benchmark tables over the whole pipeline.
bench-tables:
	$(GO) test -bench=. -benchmem -run=NONE .

# Regenerate every paper table/figure (quick scale).
experiments:
	$(GO) run ./cmd/experiments

# Regenerate at the paper's scale (1,216 seeds, 21,736-class corpus).
experiments-paper:
	$(GO) run ./cmd/experiments -scale paper

catalog:
	$(GO) run ./cmd/catalog

report:
	$(GO) run ./cmd/report -seeds 100 -iters 1000

clean:
	$(GO) clean ./...
