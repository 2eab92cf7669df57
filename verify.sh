#!/bin/sh
# Tier-1 verification gate: everything must be gofmt-clean, build, vet
# clean, and pass the full test suite under the race detector, plus a
# double-run chaos pass over the fault-injection and noisy-oracle suites.
# CI and pre-merge checks run this exact script; keep it dependency-free
# (sh + the go toolchain).
set -eux

test -z "$(gofmt -l .)"
go build ./...
go vet ./...
# The GEMM and SELU kernels have AVX2 assembly paths on amd64 (vet's asmdecl
# check covers them above) and generic Go loops everywhere else: vetting for
# arm64 builds every package with the generic kernels only, so the fallback
# keeps compiling.
GOARCH=arm64 go vet ./...
go test -race ./...
go test -race -run 'Fault|Noisy|Chaos|Recover|Journal|Proxy|Client|Repl|Failover|Scrub|Repair' -count=2 ./...

# Determinism pins at several GOMAXPROCS values: seeded samples, skylines,
# sessions and training runs are pinned bit for bit, and must not depend on
# how many cores the scheduler has.
go test -count=1 -run 'Golden|IndependentOfCores' -cpu 1,2,4 ./internal/...

# The SELU kernel reproduces the FMA branch of Go's amd64 math.Exp, so it may
# run only where math.Exp takes that branch. With FMA switched off for the
# runtime, math.Exp takes its SSE2 branch: the start-up probes must keep the
# kernel off, and batched SELU must still give math.Exp's bits.
GODEBUG=cpu.fma=off go test -count=1 -run 'SELU|Exp|BitIdentical' ./internal/vec ./internal/nn

# Benchmark smoke: run every internal benchmark once, so a benchmark that
# no longer works fails here rather than only compiling under go vet. The
# root package's experiment benchmarks (about 100 s) are left out.
go test -count=1 -run '^$' -bench . -benchtime 1x ./internal/...

# Fuzz smoke: the WAL frame parser must survive a short fuzzing burst (the
# seed corpus plus a few seconds of mutation) — it guards both the on-disk
# journal and the replication wire. The model loader gets the same burst: a
# malformed model file must be rejected, never panic a serving session. Its
# seeds are whole model files of ~10 KiB, which the default 60 s input
# minimization would spend the entire burst shrinking, so minimization is
# capped and the burst goes to mutation. The top-1 candidate index gets a
# burst too: on small tie-heavy grid datasets its indexed scan must return
# the full scan's row, bit for bit.
go test -fuzz '^FuzzReadFrame$' -fuzztime=5s -run '^FuzzReadFrame$' ./internal/wal/
go test -fuzz '^FuzzTopIndex$' -fuzztime=5s -run '^FuzzTopIndex$' ./internal/dataset/
go test -fuzz '^FuzzUnmarshalAgent$' -fuzztime=5s -fuzzminimizetime=1s -run '^FuzzUnmarshalAgent$' ./internal/rl/

# End-to-end benchmark harness (its own module): vet it and run its smoke
# test under the race detector — it drives isrl-serve over HTTP, loading a
# model per session, the way the benchmark does.
go -C e2ebench vet .
go -C e2ebench test -race .

# Benchmark smoke + regression gate: the hot-path harness must run end to
# end, emit well-formed JSON (checked with grep to stay dependency-free),
# and not regress against the committed baseline — speedups the baseline
# reports as real wins (>=1.1x) must not flip into slowdowns, and
# fixed-workload allocation counts must stay within 25% + 2 allocs of the
# baseline. The allocation floors gate on every host; only the speedup
# checks skip when the baseline was recorded on different hardware. The
# trace_disabled_span row doubles as the tracing-overhead gate — the
# harness itself fails if the disabled path costs any allocations.
go run ./cmd/isrl-bench -hotpaths -quick -out /tmp/isrl_hotpaths_smoke.json -compare BENCH_hotpaths.json
grep -q '"speedup"' /tmp/isrl_hotpaths_smoke.json
grep -q '"dqn_candidate_scoring"' /tmp/isrl_hotpaths_smoke.json
grep -q '"dqn_score_ea_d4_loaded"' /tmp/isrl_hotpaths_smoke.json
grep -q '"dqn_train_step_aa_d20"' /tmp/isrl_hotpaths_smoke.json
grep -q '"dense_forward_aa_d20_generic"' /tmp/isrl_hotpaths_smoke.json
grep -q '"dense_forward_aa_d20"' /tmp/isrl_hotpaths_smoke.json
grep -q '"selu_forward_aa_d20_generic"' /tmp/isrl_hotpaths_smoke.json
grep -q '"selu_forward_aa_d20"' /tmp/isrl_hotpaths_smoke.json
grep -q '"selu_forward_simd"' /tmp/isrl_hotpaths_smoke.json
grep -q '"dqn_train_step_ea_d4"' /tmp/isrl_hotpaths_smoke.json
grep -q '"simd"' /tmp/isrl_hotpaths_smoke.json
grep -q '"trace_disabled_span"' /tmp/isrl_hotpaths_smoke.json
grep -q '"round_geometry_incremental"' /tmp/isrl_hotpaths_smoke.json
grep -q '"rounds_per_sec"' /tmp/isrl_hotpaths_smoke.json
grep -q '"aa_session_d20_incremental"' /tmp/isrl_hotpaths_smoke.json
rm -f /tmp/isrl_hotpaths_smoke.json
