#!/usr/bin/env bash
# chaos-smoke.sh — end-to-end robustness smoke for scda-serve: fault
# injection, overload shedding, and crash recovery against a real server
# process. Three legs:
#
#   panic    — a server with -chaos panic=1 must fail every job with the
#              recovered panic (stack in the job error, panic counter
#              bumped) while /healthz keeps answering.
#   abuse    — a server under probabilistic chaos (handler latency, disk
#              cache faults, dropped streams) plus a tight -slo takes a
#              no-retry burst (every response a 2xx or an honest 429 with
#              Retry-After) and then a retrying-client hammer (every
#              accepted job settles); whatever landed in the disk cache
#              must be complete entries, no half-written debris.
#   crash    — a server with -journal-dir is killed -9 under a backlog of
#              accepted jobs; a restart on the same directories must
#              resubmit the journaled work (scda_jobs_recovered_total),
#              finish all of it, and serve the recovered spec's CSVs
#              byte-identical to a scda-sim CLI run of the same spec.
#
# CI runs this as the chaos-smoke job; it needs only curl, grep and diff
# beyond the go toolchain. The load driver is scripts/chaosload.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

addr=127.0.0.1:18081
base="http://$addr"

wait_up() {
    for _ in $(seq 50); do
        curl -fsS "$base/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "server never came up"; exit 1
}

echo "== building"
go build -o "$tmp/scda-serve" ./cmd/scda-serve
go build -o "$tmp/scda-sim" ./cmd/scda-sim
go build -o "$tmp/chaosload" ./scripts/chaosload

# ---------------------------------------------------------------- panic leg
echo "== panic leg: -chaos panic=1"
"$tmp/scda-serve" -addr "$addr" -jobs 1 -chaos "seed=1,panic=1" &
pid=$!
wait_up

spec="$tmp/panic-spec.json"
cat > "$spec" <<'EOF'
{
  "version": 1,
  "name": "chaos-panic",
  "seed": 2,
  "duration": 6,
  "topology": {"kind": "fig6", "x": 5e7, "k": 3},
  "workload": [{"generator": "dc", "params": {"ArrivalRate": 3}}]
}
EOF
resp="$(curl -fsS -X POST --data-binary @"$spec" "$base/v1/jobs?wait=true")"
printf '%s' "$resp" | grep -q '"state": *"failed"' \
    || { echo "panicking job did not fail: $resp"; exit 1; }
printf '%s' "$resp" | grep -q 'task panic' \
    || { echo "job error lacks the recovered panic: $resp"; exit 1; }
curl -fsS "$base/healthz" >/dev/null \
    || { echo "server died with the job"; exit 1; }
curl -fsS "$base/metrics" | grep -E '^scda_job_panics_total [1-9]' >/dev/null \
    || { echo "metrics did not count the panic"; exit 1; }
kill "$pid"; wait "$pid" 2>/dev/null || true; pid=""

# ---------------------------------------------------------------- abuse leg
echo "== abuse leg: latency + disk faults + stream drops under a 150ms SLO"
"$tmp/scda-serve" -addr "$addr" -jobs 1 -cache-dir "$tmp/abuse-cache" \
    -slo 150ms -chaos "seed=7,latency=0.3,maxlatency=30ms,diskerr=0.3,drop=0.5" &
pid=$!
wait_up

echo "   prime: one completed compute seeds the admission cost estimate"
"$tmp/chaosload" -base "$base" -mode hammer -n 1 -distinct 1 -duration 30 -conc 1
echo "   burst: raw no-retry submissions past capacity"
"$tmp/chaosload" -base "$base" -mode burst -n 40 -distinct 40 -duration 30 -conc 16 \
    | tee "$tmp/burst.out"
grep -q ' 429=' "$tmp/burst.out" \
    || { echo "overload burst was never shed"; exit 1; }
echo "   hammer: retrying client"
"$tmp/chaosload" -base "$base" -mode hammer -n 12 -distinct 3 -duration 6 -conc 6
echo "   cache entries are complete"
# Each entry is one file: the magic line, "<name> <length>" lines, an
# empty line, then exactly the listed bytes, result.json among them.
if [ -d "$tmp/abuse-cache" ]; then
    for f in "$tmp/abuse-cache"/* "$tmp/abuse-cache"/.tmp-*; do
        [ -e "$f" ] || continue
        case "$(basename "$f")" in .tmp-*) echo "tmp debris left: $f"; exit 1 ;; esac
        [ -f "$f" ] || { echo "cache entry is not a file: $f"; exit 1; }
        [ "$(head -n 1 "$f")" = "scda-cache-entry 1" ] \
            || { echo "cache entry lacks the magic line: $f"; exit 1; }
        header="$(sed '/^$/q' "$f")"
        grep -Eq '^result\.json [1-9][0-9]*$' <<<"$header" \
            || { echo "cache entry lists no non-empty result.json: $f"; exit 1; }
        listed="$(awk 'NR > 1 && NF == 2 { n += $2 } END { print n + 0 }' <<<"$header")"
        body=$(( $(wc -c < "$f") - $(sed '/^$/q' "$f" | wc -c) ))
        [ "$listed" -eq "$body" ] \
            || { echo "incomplete cache entry: $f lists $listed bytes, holds $body"; exit 1; }
    done
fi
kill "$pid"; wait "$pid" 2>/dev/null || true; pid=""

# ---------------------------------------------------------------- crash leg
echo "== crash leg: kill -9 under backlog, recover from the journal"
jdir="$tmp/journal"; cdir="$tmp/crash-cache"
"$tmp/scda-serve" -addr "$addr" -jobs 1 -journal-dir "$jdir" -cache-dir "$cdir" &
pid=$!
wait_up

"$tmp/chaosload" -base "$base" -mode backlog -n 6 -distinct 6 -duration 60
kill -9 "$pid"; wait "$pid" 2>/dev/null || true; pid=""
ls "$jdir"/j*.json >/dev/null 2>&1 \
    || { echo "journal is empty after the crash"; exit 1; }
echo "   journal carries $(ls "$jdir"/j*.json | wc -l) jobs across the crash"

"$tmp/scda-serve" -addr "$addr" -jobs 2 -journal-dir "$jdir" -cache-dir "$cdir" &
pid=$!
wait_up
curl -fsS "$base/metrics" | grep -E '^scda_jobs_recovered_total [1-9]' >/dev/null \
    || { echo "restart recovered nothing"; exit 1; }
echo "   waiting for recovered jobs to settle"
"$tmp/chaosload" -base "$base" -mode waitall -timeout 3m

echo "   recovered results match the CLI byte for byte"
# The same spec chaosload submits as its first backlog job (v=0: name
# chaosload-0, seed 1 — keep in sync with scripts/chaosload/main.go).
rspec="$tmp/recovered-spec.json"
cat > "$rspec" <<'EOF'
{
  "version": 1,
  "name": "chaosload-0",
  "seed": 1,
  "duration": 60,
  "topology": {"kind": "fig6", "x": 5e7, "k": 3},
  "workload": [{"generator": "dc", "params": {"ArrivalRate": 3}}],
  "outputs": {"series": ["throughput"]}
}
EOF
"$tmp/scda-sim" -scenario "$rspec" -out "$tmp/cli" >/dev/null
resp="$(curl -fsS -X POST --data-binary @"$rspec" "$base/v1/jobs?wait=true")"
printf '%s' "$resp" | grep -q '"cacheHit": *true' \
    || { echo "recovered spec was recomputed: $resp"; exit 1; }
rid="$(printf '%s' "$resp" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
for kind in summary throughput; do
    curl -fsS "$base/v1/jobs/$rid/result?csv=$kind" > "$tmp/srv-$kind.csv"
    diff "$tmp/cli/chaosload-0-$kind.csv" "$tmp/srv-$kind.csv" \
        || { echo "MISMATCH: recovered $kind differs from the CLI"; exit 1; }
done
kill "$pid"; wait "$pid" 2>/dev/null || true; pid=""

echo "chaos smoke OK"
