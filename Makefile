GO ?= go
FUZZTIME ?= 10s
# Pinned staticcheck build for `make lint`; used via `go run` only when
# no staticcheck binary is on PATH (needs network for the first run).
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build vet test race lint verify fuzz bench clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the race detector over the whole module; the obs registry and
# the server model registry additionally have dedicated concurrent-scrape
# stress tests (see internal/obs/race_test.go, internal/server).
race:
	$(GO) test -race ./...

# lint runs staticcheck: the PATH binary when present, else the pinned
# version via `go run` (which downloads it — CI does this; offline
# machines without the binary get a skip, not a failure, which is why
# lint is a CI step and not part of the offline `make verify` gate).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "lint: staticcheck unavailable (offline?); skipping"; \
	fi

# verify is the gate for every change: vet, a full build, one race
# pass over every package (it includes every contract, end-to-end and
# cross-node trace suite), then a second race pass, run twice, over the
# packages whose tests are timing-sensitive: store recovery on fresh temp
# dirs, online republish scheduling and the GE alert path, the alert
# engine's state machines, cluster fan-out teardown, replica
# reconnect/stall, fleet scrape fan-out and profile-ring eviction,
# admission's bounded waits and reloads, and the server's NDJSON
# streams, whose flush points depend on timing between the body reader,
# the worker pool and the response writer. Last, it vets and tests the
# perfbench module: perfbench is a nested module, so the root ./...
# never compiles it, and a deleted API it calls would otherwise surface
# only when the benchmark runs. (Lint is a separate CI step — it may
# need the network to fetch staticcheck.)
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/store ./internal/online ./internal/obs/alert \
		./internal/cluster ./internal/replica ./internal/obs/fleet ./internal/obs/profile \
		./internal/admission ./internal/server
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# fuzz runs every fuzz target in the module for FUZZTIME (default 10s).
# Go allows one -fuzz pattern per invocation, hence the separate runs.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzFillRow$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzWhatIf$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzLoadRules$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzLoadStreamMiner$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzWALDecode$$' -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=$(FUZZTIME) ./internal/dataset
	$(GO) test -run='^$$' -fuzz='^FuzzCSVSource$$' -fuzztime=$(FUZZTIME) ./internal/dataset
	$(GO) test -run='^$$' -fuzz='^FuzzSymEig$$' -fuzztime=$(FUZZTIME) ./internal/eigen
	$(GO) test -run='^$$' -fuzz='^FuzzRowCodec$$' -fuzztime=$(FUZZTIME) ./internal/server

bench:
	$(GO) run ./cmd/rrbench -experiment all

clean:
	$(GO) clean ./...
