# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make check` is the full pre-push gate.

GO ?= go

.PHONY: build test lint fmt check vet-tool loc

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

# vet-tool builds the analyzer binary once so repeated lint runs (and the
# CI steps that share it) skip the go-run rebuild.
vet-tool:
	$(GO) build -o bin/minuet-vet ./cmd/minuet-vet

# lint runs the project-specific analyzers (docs/STATIC_ANALYSIS.md) plus
# the stock toolchain checks. staticcheck and govulncheck run in CI but are
# optional locally: they are skipped with a note if not installed.
lint: fmt vet-tool
	$(GO) vet ./...
	./bin/minuet-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

check: build lint test

# loc prints the production Go line count per package directory and in
# total: non-test, non-testdata files of the root module (perfbench/ is a
# module of its own). Every CHANGES.md entry states its net delta.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
		! -path './perfbench/*' ! -path './.*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; all += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", all }' | \
		sort -k2
