GO ?= go

.PHONY: check build vet lint test race bench bench-smoke recover-test rebalance-test wire-test wire-smoke obs-test e2e-smoke

# The full verification gate: what CI (and every PR) must keep green.
check: build vet lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Typed-options boundary: fails on exported funcs taking map[string]string
# outside the allowlisted External Data Source API surface.
lint:
	$(GO) run ./cmd/lintoptions

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Crash-recovery smoke: the WAL/persistence units plus the kill-and-restart
# chaos suite (crash at every WAL record boundary), under the race detector.
recover-test:
	$(GO) test -race ./internal/wal/
	$(GO) test -race -run 'Persist|Marshal|Encode|ContainerCache|DrainCommitted|MoveoutContainerOrder|LoadWOS' ./internal/storage/
	$(GO) test -race -run 'AHM|CommitRequiresLog|Abort|SetNextTag' ./internal/txn/
	$(GO) test -race -run 'Durable|Checkpoint|KillAndRestart|CrashMid|ReplayProperty|AtEpoch' ./internal/vertica/

# Elastic-membership gate: the rebalance units, the cluster-lifecycle suites
# (ALTER CLUSTER, node recovery, crash sweeps over the rebalance/recovery
# state machines), the wire sentinel round-trip, and the chaos acceptance
# scenario (grow + kill + heal under live COPY and V2S) — all under the race
# detector.
rebalance-test:
	$(GO) test -race ./internal/rebalance/
	$(GO) test -race -run 'AlterCluster|NodeRecovery|RecoveringNode|AtEpochPinnedAcrossRebalance|MembershipCrashSweep|RecoveryCrashSweep' ./internal/vertica/
	$(GO) test -race -run 'SentinelRoundTrip' ./internal/server/
	$(GO) test -race -run 'ElasticClusterChaosAcceptance|V2SReplansAcrossMembershipChange' ./internal/core/

# Wire-protocol gate: the binary frame codec (property tests plus the fuzz
# seed corpora), the columnar result path's equivalence with in-process
# results, the v1/v2 handshake-downgrade matrix, pipelining order and
# concurrent-connection suites, the mid-COPY desync and client-disconnect
# regressions, the result-payload decoder's malformed-input regressions,
# the Avro reader's truncation and oversized-block regressions plus its
# fuzzer, the columnar write path's equivalence with the row-at-a-time
# oracle (hashes, placement, WAL payloads, replay, INSERT ... SELECT), and
# the resource-pool admission suites — all under the race detector.
wire-test:
	$(GO) test -race -run 'Bin|WireCode|Handshake|Pipeline|ExecuteStream|ColumnarResults|PoolSentinels|MidCopy|CopyEngineError|CopyDisconnect|FrameCodec|ReadFrameRejects|WriteFrameSingle' ./internal/server/
	$(GO) test -race -run 'Decode|FuzzSeeds|HashColumns' ./internal/storage/
	$(GO) test -race -run 'Reader|OCF|FuzzAvroReader' ./internal/avro/
	$(GO) test -race -run 'Columnar|CopyAvroTruncated' ./internal/vertica/
	$(GO) test -race -run xxx -fuzz FuzzBinRequestDecode -fuzztime 5s ./internal/server/
	$(GO) test -race -run xxx -fuzz FuzzBinDoneDecode -fuzztime 5s ./internal/server/
	$(GO) test -race -run xxx -fuzz FuzzBinErrorDecode -fuzztime 5s ./internal/server/
	$(GO) test -race -run xxx -fuzz FuzzDecodeColumns -fuzztime 5s ./internal/storage/
	$(GO) test -race -run xxx -fuzz FuzzAvroReader -fuzztime 5s ./internal/avro/
	$(GO) test -race ./internal/pool/
	$(GO) test -race -run 'ResourcePool|SetResourcePool|Admission|PoolDDL' ./internal/vertica/

# Closed-loop wire benchmark at smoke scale: diffs binary-v2 against
# JSON-v1 result sets cell by cell and checks admission control bounds
# engine concurrency with queue waits visible in the histogram and
# v_monitor.resource_queue_events. Shape gates only; timings at this scale
# are noise. Full runs (`go run ./cmd/wireload`) write BENCH_wire.json.
wire-smoke:
	$(GO) run ./cmd/wireload -smoke -out BENCH_wire.json

# Observability gate: the data-collector spool units (framing, rotation,
# retention, crash-tail truncation), the engine-level dc suites (history
# surviving a simulated kill, retention via SET_DATA_COLLECTOR_POLICY,
# seeded query events), the /metrics + /healthz endpoint suites, and the
# Chrome-trace exporter — all under the race detector — then the scanbench
# overhead gate asserting dc spooling costs at most 5% on the selective
# scan (500k rows: large enough that the fixed ~45µs/query spool cost is
# measured against a realistic query, small enough for CI).
obs-test:
	$(GO) test -race ./internal/dc/
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'DC|QueryEvents|Metrics|Healthz|Counters|Profile|ChromeTrace' ./internal/vertica/
	$(GO) run ./cmd/scanbench -rows 500000 -iters 5 -obs -gate -out BENCH_scan_obs.json

# End-to-end smoke of the fabric round-trip benchmark: perfbench's own tests
# (a module of its own, which the root `go test ./...` skips), then a
# 2-second run of every workload through real TCP servers. Each run exits
# non-zero on a wrong or failed job or a leaked session, transaction, temp
# table or pool grant; that exit status is the whole gate. Timings at this
# length are noise and are not checked.
e2e-smoke:
	cd perfbench && $(GO) test ./...
	bash perfbench/run.sh --workload v2s-bulk --seconds 2 --trace 0
	bash perfbench/run.sh --workload s2v-bulk --seconds 2 --trace 0
	bash perfbench/run.sh --workload short-jobs --seconds 2 --trace 0

# Microbenchmarks plus the throughput gates: BENCH_scan.json,
# BENCH_agg.json, and BENCH_join.json record ns/op and rows/s for the
# vectorized pipeline vs the row-at-a-time reference (machine-readable,
# tracked by CI).
bench:
	$(GO) test -bench=. -benchmem ./internal/bench/
	$(GO) test -run xxx -bench 'BenchmarkScan|BenchmarkCount' -benchtime 5x ./internal/vertica/
	$(GO) run ./cmd/scanbench -out BENCH_scan.json
	$(GO) run ./cmd/aggbench -out-agg BENCH_agg.json -out-join BENCH_join.json

# Small-scale aggregation/join bench that diffs the vectorized results
# against the row-at-a-time reference cell by cell and exits non-zero on any
# shape drift (row counts, values, NULLs) or empty result. Timings at this
# scale are noise; the diff is the CI gate.
bench-smoke:
	$(GO) run ./cmd/aggbench -smoke -out-agg BENCH_agg.json -out-join BENCH_join.json
