#!/usr/bin/env bash
# uncovered.sh — the executed-code gate behind `make uncovered`.
#
# Builds every program with coverage (-cover -coverpkg=repro/...; with
# repro/internal/... alone the binaries write no counters) and runs each into
# one GOCOVERDIR in a temporary directory:
#   - cmd/experiments -short, the examples and the benchmark ledger -smoke at
#     -trace 0 and 1;
#   - cmd/colserver: -dump, then -load with -fuzzy 2 on a loopback port,
#     driven through /resolve, /stats and /healthz;
#   - cmd/curate -step all on 300 records against that colserver;
#   - cmd/fnjvweb on curate's directory against that colserver: every HTML
#     route and every /api/v1 route, the not-found and bad-request answers,
#     an asynchronous and a synchronous detect, a curator verdict, then
#     SIGTERM;
#   - cmd/orchestrator on the same directory, then SIGTERM;
#   - SIGTERM to colserver.
# A server that does not exit with status 0 fails the run. Then it prints
# each internal/ function that ran none of its statements (per
# `go tool covdata func`) and fails on any that scripts/uncovered.allow does
# not match, or on an entry of that list that matches none.
#
# Usage: bash scripts/uncovered.sh   (GO overrides the go command)
#
# No pipefail: `curl | grep -q` and `sed | head -1` close their pipes early.
# An empty answer fails the check that reads it.
set -eu

GO=${GO:-go}
repo=$(cd "$(dirname "$0")/.." && pwd)
allow="$repo/scripts/uncovered.allow"
dir=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
	rm -rf "$dir"
}
trap cleanup EXIT
fail() { echo "uncovered: $*" >&2; exit 1; }

mkdir -p "$dir/bin" "$dir/cov" "$dir/out"
cover=(-cover -coverpkg=repro/...)
cd "$repo"
for cmd in experiments colserver curate fnjvweb orchestrator; do
	"$GO" build "${cover[@]}" -o "$dir/bin/$cmd" "./cmd/$cmd"
done
for ex in examples/*/; do
	"$GO" build "${cover[@]}" -o "$dir/bin/example-$(basename "$ex")" "./$ex"
done
(cd benchmark && "$GO" build "${cover[@]}" -o "$dir/bin/ledger" .)

cd "$dir"
export GOCOVERDIR="$dir/cov"
bin/experiments -short > /dev/null
for ex in bin/example-*; do "$ex" > /dev/null; done
bin/ledger -smoke -trace 0 -out out > /dev/null
bin/ledger -smoke -trace 1 -out out > /dev/null

# start LOG PATTERN CMD...: runs CMD in the background, logging to LOG, and
# waits until a log line matches PATTERN; the last process started is $pid.
start() {
	local log=$1 pattern=$2
	shift 2
	"$@" > "$log" 2>&1 &
	pid=$!
	pids+=("$pid")
	for _ in $(seq 600); do
		grep -q "$pattern" "$log" && return 0
		kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; fail "$1 exited before it was ready"; }
		sleep 0.1
	done
	fail "$1 not ready after 60s"
}
# listening LOG: the address a server logged it listens on.
listening() { sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$1" | head -1; }
# stop PID NAME: SIGTERM, then the process must exit with status 0.
stop() {
	kill -TERM "$1"
	local status=0
	wait "$1" || status=$?
	[ "$status" = 0 ] || fail "$2 exited with status $status after SIGTERM"
}
# want CODE URL [CURL ARGS...]: the request must answer HTTP CODE.
want() {
	local code=$1 got
	shift
	got=$(curl -s -o /dev/null -w '%{http_code}' "$@")
	[ "$got" = "$code" ] || fail "$* answered $got, want $code"
}

# The taxonomic authority.
bin/colserver -species 100 -dump checklist.json 2> /dev/null
start colserver.log 'listening on' bin/colserver -addr 127.0.0.1:0 -load checklist.json -fuzzy 2
colserver=$pid
col=http://$(listening colserver.log)
field() { sed -n "s/.*\"$1\": \"\([^\"]*\)\".*/\1/p" checklist.json | head -1; }
name="$(field genus)+$(field epithet)"
want 200 "$col/resolve?name=$name"
want 200 "$col/stats"
want 200 "$col/healthz"

bin/curate -data data -records 300 -species 100 -authority "$col" -step all -report-md report.md > /dev/null 2>&1 ||
	fail "curate -step all failed"

# The web environment, on curate's collection.
start fnjvweb.log 'listening on' bin/fnjvweb -addr 127.0.0.1:0 -data data -records 300 -species 100 -authority "$col"
fnjvweb=$pid
web=http://$(listening fnjvweb.log)
want 404 "$web/api/v1/quality"
want 200 "$web/detect"
# Asynchronous: 202 and the run URL, polled until the run completes.
loc=$(curl -s -D - -o /dev/null -X POST "$web/api/v1/detect" | sed -n 's/^Location: *\([^[:space:]]*\).*/\1/p')
[ -n "$loc" ] || fail "asynchronous detect answered no Location"
for _ in $(seq 600); do
	curl -s "$web$loc" | grep -q '"status": "completed"' && break
	sleep 0.1
done
curl -s "$web$loc" | grep -q '"status": "completed"' || fail "run $loc did not complete"
# Synchronous.
run=$(curl -s -X POST "$web/api/v1/detect?wait=true" | sed -n 's/.*"run_id": "\([^"]*\)".*/\1/p')
[ -n "$run" ] || fail "synchronous detect answered no run"
rec=$(curl -s "$web/api/v1/records?limit=1" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1)
update=$(curl -s "$web/review" | sed -n 's/.*name="id" value="\([^"]*\)".*/\1/p' | head -1)
[ -n "$rec" ] && [ -n "$update" ] || fail "no record ($rec) or pending update ($update) to act on"

for path in / /detect "/detect?run=1" "/records?species=$name&state=S%C3%A3o+Paulo&taxon=Anura" \
	"/record/$rec" /quality /review /health "/provenance/$run" "/provenance/$run/edges" /metrics \
	/export/ntriples /healthz; do
	want 200 "$web$path"
done
want 404 "$web/archive"
want 404 "$web/record/no-such-record"
want 303 -X POST -d "id=$update&verdict=approved" "$web/review/act"
for path in "/api/v1/records?species=%C3%A9lachistocleis+ovalis" "/api/v1/records?state=S%C3%A3o+Paulo" \
	"/api/v1/records/$rec" /api/v1/runs "/api/v1/runs/$run" "/api/v1/runs/$run/trace" "/api/v1/runs/$run/spans" \
	"/api/v1/runs/$run/nodes" "/api/v1/runs/$run/edges" "/api/v1/runs/$run/graph" /api/v1/quality \
	/api/v1/metrics /api/v1/cluster /api/v1/cluster/queues; do
	want 200 "$web$path"
done
want 400 "$web/api/v1/records?limit=0"
want 404 "$web/api/v1/runs/run-999999"
want 404 "$web/api/v1/archive"
want 405 -X POST "$web/api/v1/runs"
stop "$fnjvweb" fnjvweb
grep -q "closed data" fnjvweb.log || fail "fnjvweb did not close its database"

start orchestrator.log 'started' bin/orchestrator -data data -species 100 -authority "$col"
stop "$pid" orchestrator
stop "$colserver" colserver

# The gate.
"$GO" tool covdata func -i cov | awk '$1 ~ /^repro\/internal\// && $NF == "0.0%"' > zero.txt
# Each function as "<package>.<function>", the form the list's patterns match.
awk '{ pkg = $1; sub(/^repro\/internal\//, "", pkg); sub(/\/[^\/]*$/, "", pkg); print pkg "." $2 }' zero.txt > names.txt
grep -v '^#' "$allow" | grep -v '^[[:space:]]*$' > entries.txt || true
[ "$(wc -l < entries.txt)" -le 15 ] || fail "$allow has more than 15 entries"
awk 'NF < 2 { print "uncovered: entry without a reason: " $0; bad = 1 } END { exit bad }' entries.txt >&2 ||
	fail "every entry of $allow needs a reason"
cut -d' ' -f1 entries.txt > patterns.txt
cat zero.txt
echo "$(wc -l < zero.txt) internal/ functions at 0%"
status=0
if grep -Evf patterns.txt names.txt > unlisted.txt; then
	echo "uncovered: no program executes these, and $allow does not list them:" >&2
	sed 's/^/  /' unlisted.txt >&2
	status=1
fi
while read -r pattern; do
	grep -Eq "$pattern" names.txt || { echo "uncovered: $allow entry $pattern matches no function at 0%" >&2; status=1; }
done < patterns.txt
exit $status
