# Tier-1 verification in one command: `make check`.
GO ?= go

# Every package runs under the race detector; -count=1 defeats test result
# caching so races that depend on scheduling get a fresh chance to appear.
RACE_PKGS = ./...

# Seconds per fuzz target in the smoke pass (full sessions: `go test
# -fuzz <name> ./internal/srb` with no time limit).
FUZZTIME ?= 10s

.PHONY: check vet build test race lint lint-json fuzz-short chaos-short chaos-long bench loc

check: vet build test race lint fuzz-short chaos-short

# The gofmt gate fails on any file gofmt would change, and names it.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l . | tee /dev/stderr)"

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest-sibling) execution order so
# inter-test state leaks surface instead of hiding behind file order; the
# seed is printed on failure for reproduction with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

# The analyzer corpus line is explicit (not folded into RACE_PKGS) so a
# narrowed RACE_PKGS override still races the analysis engine, whose
# summary cache is the kind of lazily-built shared state -race exists for.
race:
	$(GO) test -race -count=1 -shuffle=on $(RACE_PKGS)
	$(GO) test -race -count=1 ./internal/analysis

# semplarvet: the project's own analyzer suite, eight rules —
# intraprocedural (lockheld, guardedfield, wireproto, errdrop, determinism)
# plus the interprocedural lifecycle/ordering set (pooluse, lockorder,
# spanbalance). Non-zero exit on any finding. Restrict with
# RULES=name1,name2 (`make lint RULES=pooluse,lockorder`); list names with
# `go run ./cmd/semplarvet -list`.
RULES ?=
lint:
	$(GO) run ./cmd/semplarvet $(if $(RULES),-rules $(RULES)) ./...

# Machine-readable findings for CI artifact upload; same exit semantics.
lint-json:
	$(GO) run ./cmd/semplarvet $(if $(RULES),-rules $(RULES)) -json ./... > lint.json

# Short fuzz smoke over the wire-protocol parsers: seeds plus $(FUZZTIME)
# of mutation per target.
fuzz-short:
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzReadRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzReadResponse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzDecodeFileInfo -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzWritevRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzDecodeWritev -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzReadvRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzDecodeReadv -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzDecodeAuth -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/srb -run=^$$ -fuzz=FuzzAuthRoundTrip -fuzztime=$(FUZZTIME)

# Seeded chaos smoke: a full workload under connection kills, partitions,
# latency spikes and a server crash/restart, with end-to-end checksum
# verification and leak checks, plus the federated variant (three shards,
# replicated placement, one shard killed mid-write) and the abusive-tenant
# scenario (one flooding tenant shed at its bucket while well-behaved
# neighbors run clean). Deterministic schedules, seconds to run.
chaos-short:
	$(GO) test ./internal/chaos -run 'TestChaosShort|TestChaosFederationShort|TestChaosTenantShort' -count=1

# The full soak (several seeds, every fault class repeatedly); not part of
# `make check`.
chaos-long:
	$(GO) test -tags chaoslong ./internal/chaos -run TestChaosLong -count=1 -v

# The benchmark (bench/README.md): ten runs of every workload, written to
# bench-<commit>.json. Compare two commits with alternating runs on one
# host: go run ./bench -compare bench-<a>.json bench-<b>.json
bench:
	$(GO) run ./bench -repeat 10 -out bench-$$(git rev-parse --short HEAD).json

# Size of the code that ships: lines of non-test Go outside bench/ and any
# testdata/, in total and per top-level package directory. "Less code" is a
# number; this regenerates it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { \
			n = split($$2, p, "/"); \
			pkg = n == 2 ? "." : (p[2] == "internal" || p[2] == "cmd" || p[2] == "examples") && n > 3 ? p[2] "/" p[3] : p[2]; \
			lines[pkg] += $$1; total += $$1 } \
		END { for (k in lines) printf "%7d  %s\n", lines[k], k | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }'
