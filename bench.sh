#!/bin/sh
# bench.sh — run the hot-path benchmarks with allocation stats and append
# the results to the per-area trajectory files: the decode path goes to
# BENCH_decode.json, the Monte-Carlo simulation path (batched realization
# kernel + full evaluation) to BENCH_sim.json, the end-to-end GA solve
# path (paper-scale ε-constraint run, cache on/off) to BENCH_ga.json, the
# observability overhead lane (solve and Monte-Carlo with telemetry on
# vs off, plus the no-op instrument microbenchmarks) to BENCH_obs.json.
# The multi-process scatter/gather lane (Monte-Carlo evaluation at 1/2/4/8
# worker processes and an islands-GA solve sharded across workers, each
# against its in-process twin) goes to
# BENCH_dist.json; worker-side parallelism is pinned to 1 there, so the
# shard speedup reflects the processes (expect ~min(shards, cores)× on a
# multi-core box and pure overhead on one core). The same file carries the
# loopback-TCP lanes (the socket tax vs subprocess pipes — acceptance is
# within ~10%) and the pipeline latency matrix (injected 0/1/5/20ms RTT,
# strict depth-1 dispatch vs the RTT-derived credit window — pipelined
# must hold ≥2× depth-1 at 5ms). The scenario matrix (paper-scale
# Monte-Carlo evaluation for every workload family × duration model —
# workflow shapes and the general sampling path priced next to the
# random-uniform lane BENCH_sim tracks) goes to BENCH_scenarios.json.
# Run from the repo root; pass extra `go test` flags (e.g. -benchtime 10x)
# as arguments. Re-running on the same commit replaces that commit's entry
# in each trajectory instead of appending a duplicate.
set -eu
cd "$(dirname "$0")"

go test -run '^$' \
    -bench 'BenchmarkDecode$|BenchmarkFromOrder$|BenchmarkEvaluatePopulation|BenchmarkSolveEpsilonConstraint$' \
    -benchmem "$@" ./internal/schedule ./internal/robust . \
  | tee /dev/stderr \
  | go run ./cmd/benchjson -o BENCH_decode.json

go test -run '^$' \
    -bench 'BenchmarkEvaluateAll$|BenchmarkRealizeBatch$|BenchmarkRealizeScalar$' \
    -benchmem "$@" ./internal/sim ./internal/schedule \
  | tee /dev/stderr \
  | go run ./cmd/benchjson -o BENCH_sim.json

go test -run '^$' \
    -bench 'BenchmarkSolvePaper' \
    -benchmem "$@" . \
  | tee /dev/stderr \
  | go run ./cmd/benchjson -o BENCH_ga.json

go test -run '^$' \
    -bench 'BenchmarkSolveObs|BenchmarkEvaluateAllObs|BenchmarkDisabledCounter|BenchmarkEnabledCounter|BenchmarkEnabledHistogram|BenchmarkTracerEvent' \
    -benchmem "$@" . ./internal/sim ./internal/obs \
  | tee /dev/stderr \
  | go run ./cmd/benchjson -o BENCH_obs.json

go test -run '^$' \
    -bench 'BenchmarkDistEvaluateAll|BenchmarkDistEvaluateAllTCP|BenchmarkDistPipelineRTT|BenchmarkDistSolveIslands' \
    -benchmem "$@" ./internal/dist \
  | tee /dev/stderr \
  | go run ./cmd/benchjson -o BENCH_dist.json -note "$(nproc) cores"

go test -run '^$' \
    -bench 'BenchmarkScenarioEvaluateAll' \
    -benchmem "$@" ./internal/scenario \
  | tee /dev/stderr \
  | go run ./cmd/benchjson -o BENCH_scenarios.json
