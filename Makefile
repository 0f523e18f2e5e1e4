GO ?= go

.PHONY: build test vet fmt-check smoke-lists race chaos-smoke chaos crash-smoke crash obs-smoke obs serve-smoke serve-campaign shard-smoke repl-smoke repl failover-smoke failover mvcc-smoke seq-smoke ops-smoke examples-smoke benchmark-smoke bench ci

build:
	$(GO) build ./...

# Tier 1: must always pass.
test: build
	$(GO) test ./...

vet: fmt-check
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# `go test -run X` exits 0 when a rename leaves X matching nothing, so a
# smoke list can go silently empty: every |-separated alternative of
# every -run pattern in this file must select a test in its package,
# according to `go test -list`.
smoke-lists:
	@awk '/\$$\(GO\) test/ && / -run / { pkg = ""; for (i = 1; i < NF; i++) { if ($$i ~ /^\.\//) pkg = $$i; if ($$i == "-run") pat = $$(i+1) } gsub("\047", "", pat); print pkg, pat }' Makefile | { \
		fail=0; n=0; \
		while read -r pkg pat; do \
			for t in $$(echo "$$pat" | tr '|' ' '); do \
				n=$$((n+1)); \
				$(GO) test -list "$$t" "$$pkg" | grep -q '^Test' || { echo "smoke-lists: $$t selects no test in $$pkg"; fail=1; }; \
			done; \
		done; \
		echo "smoke-lists: $$n pattern(s) checked"; exit $$fail; }

# Fault-injection smoke: a small certified chaos campaign over every
# target (substrates, hybrid, scheduler).
chaos-smoke:
	$(GO) test ./internal/bench/ -run TestChaosSmoke -v

# The full campaign: 50 plan seeds per target, non-zero exit on any
# serializability/invariant/leak violation.
chaos:
	$(GO) run ./cmd/pushpull-check chaos

# Crash-recovery smoke: every target runs with the WAL attached and a
# scheduled process death; the durable prefix must recover and
# re-certify.
crash-smoke:
	$(GO) test ./internal/bench/ -run TestCrashSmoke -v

# The full crash campaign: 50 crash plans per target, non-zero exit on
# any recovery certification failure (prints the failing plan seed).
crash:
	$(GO) run ./cmd/pushpull-check crash

# Observability smoke: an instrumented bench run plus a certified
# chaos run with the metrics/span suite attached; fails on any leaked
# span, unbalanced timeline, or empty Prometheus exposition.
obs-smoke:
	$(GO) test ./internal/bench/ -run 'TestObsSmoke|TestObsSnapshotConsistency' -v

# The full instrumented sweep: 50 plan seeds per target, writes a
# Prometheus metrics dump and a chrome://tracing timeline under
# .bench_build/ (git-ignored), non-zero exit on any violation or
# leaked span.
obs:
	mkdir -p .bench_build
	$(GO) run ./cmd/pushpull-check chaos -metrics .bench_build/metrics.prom -trace .bench_build/timeline.json

# Server smoke: boot the durable KV server on tl2 and hybrid, run a
# short wire-protocol load campaign (one-shot + interactive) against
# it, and demand zero leaked sessions/spans, certified commit-order
# serializability, and substrate conservation on shutdown.
serve-smoke:
	$(GO) test ./internal/server/ -run TestServeSmoke -v

# The full acceptance campaign: 30s, 8 clients, tl2 + hybrid, with a
# certified crash-restart leg mid-campaign.
serve-campaign:
	PUSHPULL_SERVE_CAMPAIGN=1 $(GO) test ./internal/server/ -run TestServeCampaign -v -timeout 300s

# Sharded smoke: boot a 4-shard durable server, run a mixed load with
# 10% cross-shard transactions over the wire, crash-restart from the
# multi-log image, and demand the full sharded certificate (per-shard
# replay, merged cross-shard commit order, zero in-doubt).
shard-smoke:
	$(GO) test ./internal/server/ -run TestShardSmoke -v

# Replication smoke: the in-process three-node campaign (real TCP,
# redirect-following writes, one forced failover with a certified
# promotion), then the same shape as a live primary + 2-follower
# cluster through `pushpull-check cluster`.
repl-smoke:
	$(GO) test ./internal/server/ -run TestReplSmoke -v
	$(GO) run ./cmd/pushpull-check cluster -replicas 2 -threads 3 -ops 40 -keys 12 -seed 5

# Self-healing smoke: an in-process three-node cluster under sessioned
# load; the supervisor detects the killed primary over the wire, waits
# out its lease, certifies and auto-promotes the most-advanced
# follower, and the exactly-once ledger (dedup on blind retry, zero
# acked loss, one acking primary per lease epoch) must hold. Also pins
# the deposed-primary fence and follower redirect-loop termination.
failover-smoke:
	$(GO) test ./internal/server/ -run 'TestFailoverSmoke|TestDeposedPrimaryFenced|TestFollowerRedirectLoopTerminates' -v

# The full failover sweep: 50 seeds of coordinator death, WAL crashes,
# lossy replication links and full/asymmetric link partitions;
# lease-fenced zombie deposal, every promotion re-certified, sessioned
# retries cross-checked through the history checker, non-zero exit if
# any acknowledged transaction is lost.
failover:
	$(GO) run ./cmd/pushpull-check failover

# The replication sweep is the failover sweep (one target, one name kept
# for muscle memory).
repl: failover

# MVCC snapshot-read smoke: a replicated sharded primary + follower
# under a 90%-read-only skewed wire campaign (the read-only class must
# show zero aborts while writers churn), follower snapshot reads from
# the replica's pinned cut, the read-only write refusal on both roles,
# counter reads and the client key range, the GSN-consistent-cut
# torn-read hammer, the primary's and follower's folds agreeing on
# every substrate, and a certified shutdown.
mvcc-smoke:
	$(GO) test ./internal/server/ -run 'TestMVCCSmoke|TestReadOnlyRejectsWrites|TestCGetFromSnapshotAnyKeys|TestKeyTopBitRefused' -v
	$(GO) test ./internal/shard/ -run TestSnapshotCutNeverTorn -v
	$(GO) test ./internal/repl/ -run TestPrimaryAndFollowerFoldsAgree -v

# Deterministic ordered-commit smoke: the sequenced cross-shard path's
# own certificates — per-shard cross-commit order equals the GSN order,
# recovery idempotence over forced batch records, the epoch murder
# windows, and the wire-level campaign with a batch-crash restart.
seq-smoke:
	$(GO) test ./internal/shard/ -run 'TestSeqCrossShardDo|TestSeqHammerGSNOrder|TestSeqRecoveryIdempotentBatches|TestSeqCrashBeforeBatchForce' -v
	$(GO) test ./internal/server/ -run TestSeqSmoke -v

# Typed-operations smoke: the commutativity-aware ops surface end to
# end — the one kind enum's names, the Limits-of-boosting
# boundary table (partial ops abort, total ops commit concurrently
# with commute hits), a typed wire campaign recovered byte-identically
# from its logical-op WAL, the follower fold reaching the same bytes
# through promotion, typed vs blind GET-then-PUT abort ratios on the
# same hot counters, and the typed metrics counters under -race.
ops-smoke:
	$(GO) test ./internal/ops/ -v
	$(GO) test ./internal/stm/boost/ -run 'TestLimitsBoundary|TestTotalOpsCommitConcurrently|TestEscrowGuardSpansHolders' -v
	$(GO) test ./internal/server/ -run 'TestOpsSmoke|TestOpsFollowerFold|TestOpsTypedVsBlindRMW' -v
	$(GO) test -race ./internal/obs/metrics/ -run TestTypedCountersSnapshotConsistency -v

# Example smoke: run every program under examples/ (the §6 demos on the
# public facade, each asserting its own claim); any non-zero exit fails.
examples-smoke:
	@for d in examples/*/; do echo "== go run ./$$d"; $(GO) run ./$$d || exit 1; done

# The benchmark is a module of its own (benchmark/, replaced onto this
# one), so `go build ./... && go test ./...` never sees it: this is what
# notices a root change that breaks its build, its smoke-size runs of
# every workload, or the symbols TestAPISurface pins.
benchmark-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .

# The repo's one benchmark: four wire workloads, end-to-end and
# per-layer metrics (benchmark/README.md; `-repeat N -check` diffs
# against benchmark/baseline.json). The Go micro-benchmarks are
# `go test -bench=. -benchmem ./...`, the paper's qualitative tables
# `go run ./cmd/pushpull-bench`.
bench:
	bash benchmark/run.sh

ci: test vet smoke-lists race chaos-smoke crash-smoke obs-smoke serve-smoke shard-smoke repl-smoke failover-smoke mvcc-smoke seq-smoke ops-smoke examples-smoke benchmark-smoke
