#!/usr/bin/env bash
# bench.sh — run the hot-path micro-benchmarks and the serial figure-suite
# benchmark, recording ns/op, B/op and allocs/op into BENCH_hotpath.json so
# every PR leaves a perf trajectory to regress against. Every row runs five
# times (-count 5): ns_op, b_op and allocs_op are the medians of the
# samples, ns_op_min and ns_op_max their range, and samples their number,
# since one unrepeated sample can spread wider than the 20% rule below.
#
# Usage:  scripts/bench.sh [output.json]     (default: BENCH_hotpath.json)
#
# The micro-benchmarks (BenchmarkEventLoop, BenchmarkMaxMinRates,
# BenchmarkPacketForwarding, BenchmarkFluid1000Flows) measure the three hot
# layers in isolation; BenchmarkPacketForwarding's fifo and sjf rows keep 8
# packets in flight, so about two transmit-completes in three have a packet
# waiting and are queued, and its idle row keeps one, so every
# transmit-complete finds the port empty and is only reserved;
# BenchmarkFluidFabric is a whole fluid run in the
# sim-fluid regime (~900 flows of seeded churn on the 500-client /
# 200-server fabric); BenchmarkChurn tracks the incremental max-min
# solver's per-event repair against the full re-solve baseline at 10k
# flows (the "incremental" rows must stay well under the "full" row) and
# its scaling at 100k; BenchmarkServiceSubmitCached is the scda-serve
# cache hot path (HTTP submit of an already-cached spec, no simulation),
# BenchmarkServiceGroupSubmitCached its job-group counterpart (a sweep
# expanded server-side, every variant a cache hit),
# BenchmarkServiceSearchCached the adaptive-search replay (a full search
# converging purely from cached evaluations), and
# BenchmarkServiceSubmitShed the admission-control rejection fast path (a
# server pinned into overload answering 429 before reading the body);
# BenchmarkComputeRouting builds the route tables of the fig. 6 tree and of
# the 500-client / 200-server fabric, whose allocation counts must match
# (hosts own no table);
# BenchmarkTickTreeTopology times one control interval on the fig. 6
# tree with 200 flows registered and idle, with none (every link quiet);
# BenchmarkHierarchyUpdate times the fig. 2 aggregation when one link's
# rate moved before it (changed) and when nothing did (unchanged, the
# skip);
# BenchmarkBulkTransfer (internal/tcp) times one 1 MB Reno transfer, from
# building its two-host network (100 Mb/s, 1 ms) and mux to the last ACK,
# and BenchmarkSCDATransfer (internal/scdatp) one 1 MB SCDA transfer over
# a two-link 100 Mb/s chain with the allocator ticking every τ, so both
# rows are the whole transport path: sender policy, the shared receiver
# and mux, and netsim forwarding;
# BenchmarkLintSelf tracks the static-analysis suite's cost per package
# (parse + type-check + all five analyzers over internal/lint itself), so
# the CI lint step's budget stays visible;
# BenchmarkAllFiguresSerial is the end-to-end figure suite at bench scale.
# Compare a fresh run against the committed JSON with
#
#   scripts/bench.sh /tmp/fresh.json
#   go run ./scripts/benchdiff BENCH_hotpath.json /tmp/fresh.json
#
# which prints both medians, both ranges and their ratio per row, and
# flags (exit 1) a median more than 20% slower whose range does not overlap
# the old one, and any B/op growth on a 0-alloc row: each deserves a look
# before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_hotpath.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' \
    -bench 'BenchmarkEventLoop|BenchmarkMaxMinRates|BenchmarkChurn|BenchmarkPacketForwarding|BenchmarkFluid1000Flows|BenchmarkFluidFabric|BenchmarkServiceSubmitCached|BenchmarkServiceGroupSubmitCached|BenchmarkServiceSearchCached|BenchmarkServiceSubmitShed|BenchmarkComputeRouting|BenchmarkTickTreeTopology|BenchmarkHierarchyUpdate|BenchmarkBulkTransfer|BenchmarkSCDATransfer|BenchmarkLintSelf' \
    -benchmem -count 5 ./internal/sim ./internal/flowsim ./internal/netsim ./internal/service ./internal/topology ./internal/ratealloc ./internal/tcp ./internal/scdatp ./internal/lint | tee "$tmp"
go test -run '^$' -bench 'BenchmarkAllFiguresSerial' -benchtime=1x -benchmem -count 5 . | tee -a "$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v goversion="$(go env GOVERSION)" '
# sorted copies field f of the samples of name into v[1..cnt], ascending.
function sorted(f, name, cnt, v,    i, j, t) {
    for (i = 1; i <= cnt; i++) {
        t = val[name, i, f]
        for (j = i - 1; j >= 1 && v[j] + 0 > t + 0; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
}
function median(f, name, cnt,    v) {
    sorted(f, name, cnt, v)
    if (v[1] == "null") return "null"
    if (cnt % 2) return v[(cnt + 1) / 2]
    return (v[cnt / 2] + v[cnt / 2 + 1]) / 2
}
/^Benchmark/ && / ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in count)) order[++names] = name
    k = ++count[name]
    val[name, k, "iters"] = $2; val[name, k, "ns"] = $3
    val[name, k, "b"] = "null"; val[name, k, "allocs"] = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")      val[name, k, "b"] = $(i - 1)
        if ($i == "allocs/op") val[name, k, "allocs"] = $(i - 1)
    }
}
END {
    printf "{\n  \"generated\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", date, goversion
    for (r = 1; r <= names; r++) {
        name = order[r]; cnt = count[name]
        split("", ns); sorted("ns", name, cnt, ns)
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_op\": %s, \"ns_op_min\": %s, \"ns_op_max\": %s, \"samples\": %d, \"b_op\": %s, \"allocs_op\": %s}%s\n", \
            name, median("iters", name, cnt), median("ns", name, cnt), ns[1], ns[cnt], cnt, \
            median("b", name, cnt), median("allocs", name, cnt), (r < names ? "," : "")
    }
    printf "  ]\n}\n"
}
' "$tmp" > "$out"

echo "wrote $out"
