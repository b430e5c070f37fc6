# Development targets. `make verify` is the repo's tier-1 check: build, vet,
# the full test suite, and the race detector over the packages whose hot path
# shares pooled state across goroutines (the dense scoring kernel under
# concurrent index swaps).

GO ?= go

.PHONY: verify build vet test race bench kernel-bench index-bench cache-bench slo-bench quality-bench http-bench fuzz-replay

verify: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# One race pass over every package that shares state across goroutines: the
# kernel and its pooled recommenders, serving (cache, index swap, pooled
# scratch), the SLO engine and quality loop (obs/...) with their rolling
# windows (metrics), the proxy and pool (cluster), the session store, the
# client, and the click-model harness (loadgen). The allocation budgets run
# without -race, which instruments allocations.
race:
	$(GO) test -race ./internal/core ./internal/serving ./internal/obs/... ./internal/metrics ./internal/cluster ./internal/kvstore ./internal/loadgen ./client
	$(GO) test -run 'TestHTTPAllocBudgets' ./internal/serving

# All microbenchmarks, quick.
bench:
	$(GO) test -bench=. -benchmem .

# Hot-path scoring kernel vs the retained map-based reference.
kernel-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRecommend|BenchmarkNeighborSessions' -benchmem ./internal/core

# Index load cost: v1 streaming decode vs v2 mmap zero-copy (EXPERIMENTS E13).
index-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkLoadFile|BenchmarkBuild' -benchmem ./internal/index ./internal/core

# The result-cache hot path (hit, miss) against the uncached request path,
# committed as the versioned BENCH_cache.json artifact.
cache-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRecommendCache|BenchmarkRecommendNoCache' -benchmem \
		./internal/serving | $(GO) run ./tools/benchjson > BENCH_cache.json
	@echo wrote BENCH_cache.json

# Burn-rate-vs-RPS trajectory from the load harness, committed as the
# versioned BENCH_slo.json artifact (the BENCHJSON line carries the rows).
slo-bench:
	$(GO) run ./cmd/serenade-loadtest -quick -slo-sweep -slo-latency-p99 5ms \
		-rates 200,400 -per-rate 2s | $(GO) run ./tools/benchjson > BENCH_slo.json
	@echo wrote BENCH_slo.json

# Online-vs-offline quality loop from the click-model harness plus the
# quality record-path microbenchmarks, committed as the versioned
# BENCH_quality.json artifact (the BENCHJSON line carries the MRR table).
quality-bench:
	{ $(GO) run ./cmd/serenade-loadtest -quick -seed 99 -click-model \
		-click-seed 17 -click-rounds 12 -click-skew 'b=0.7'; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRecordExposure$$|BenchmarkAttribute' -benchmem ./internal/obs/quality; } \
		| $(GO) run ./tools/benchjson > BENCH_quality.json
	@echo wrote BENCH_quality.json

# Full-stack HTTP edge benchmarks (recommend POST/GET, cache hit, idempotent
# replay, track) with allocation counts, committed as the versioned
# BENCH_http.json artifact — the zero-allocation edge's regression baseline.
http-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkHTTP' -benchmem \
		./internal/serving | $(GO) run ./tools/benchjson > BENCH_http.json
	@echo wrote BENCH_http.json

# Replay the fuzz seed corpora without fuzzing: the index loader's on-disk
# formats, the fastjson scanner differential, and the serving codec's
# schema-level differential against encoding/json.
fuzz-replay:
	$(GO) test -run 'Fuzz' ./internal/index ./internal/fastjson ./internal/serving
