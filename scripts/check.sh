#!/bin/sh
# Tier-1 gate for sedna-go: formatting, vet, build, full tests, and race
# tests on the concurrency-sensitive packages. CI and pre-commit both run
# exactly this script; a clean exit is the definition of "tier-1 green".
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== surface (each count may only go down) =="
# Options fields, sednad flags, wire verbs (client to server) and ...ForTesting
# functions in program code. Lower a maximum when a change removes one.
surface() {
    printf '%-24s %3d (max %d)\n' "$1" "$2" "$3"
    if [ "$2" -gt "$3" ]; then
        echo "$1: $2, above the recorded $3" >&2
        exit 1
    fi
}
surface "Options fields" "$(awk '/^type Options struct/ {s = 1; next} s && /^}/ {s = 0} s && /^\t[A-Z][A-Za-z0-9]* / {n++} END {print n + 0}' sedna.go)" 8
surface "sednad flags" "$(grep -cE 'flag\.[A-Z][A-Za-z0-9]*\("' cmd/sednad/main.go)" 9
surface "wire verbs" "$(awk '/^\tMsg[A-Za-z]+ *= *[0-9]+/ {split($0, a, "="); if (a[2] + 0 < 64) n++} END {print n + 0}' internal/wire/wire.go)" 13
surface "ForTesting functions" "$(grep -rhE '^func (\([^)]*\) )?[A-Za-z]+ForTesting\(' --include='*.go' --exclude='*_test.go' . | wc -l)" 3

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# go test ./internal/query carries the optimizer's gates that were E23's:
# TestOptimizerAgainstForcedPlans (page views optimized against forced, an
# index probe per selective statement, identical answers) and
# TestPlansAreDeterministic (one EXPLAIN text per statement).
echo "== go test =="
go test ./...

echo "== go test -race (concurrency-sensitive packages) =="
go test -race ./internal/metrics ./internal/trace ./internal/buffer ./internal/wal \
    ./internal/txn ./internal/core ./internal/lock ./internal/server ./internal/query \
    ./internal/repl ./internal/opt

echo "== fuzz (10 s each: the text escaper against encoding/xml, the response decoder, in-place comparisons against the general path, opening a damaged segmented log, the list-position search against the walk) =="
go test -run '^$' -fuzz='^FuzzEscapeText$' -fuzztime=10s ./internal/core
go test -run '^$' -fuzz='^FuzzReadResponse$' -fuzztime=10s ./internal/wire
go test -run '^$' -fuzz='^FuzzValueCompare$' -fuzztime=10s ./internal/query
go test -run '^$' -fuzz='^FuzzOpenLog$' -fuzztime=10s ./internal/wal
go test -run '^$' -fuzz='^FuzzListPosition$' -fuzztime=10s ./internal/storage

echo "== repository benchmark module (benchmark/: vet + smoke-scale tests) =="
go -C benchmark vet ./...
go -C benchmark test ./...

# The E-series of EXPERIMENTS.md, one run. The KILL, SESSIONS and Prometheus
# checks that E21 made are go test's: TestSessionsVisibility and
# TestSessionsHTTP in internal/server.
echo "== E-series (every experiment of cmd/sedna-bench once; exits 1 on any failed gate. E9: virtual and deep-copy constructors serialize identically; E10: every snapshot statement completes under a held exclusive document lock, lock.waits = 0; E12: versions_live equals the chains' versions, 0 after 300 commits with no snapshot, > 0 under three pinned snapshots, 0 again when they end; E20: replicas seed, stream, survive a writer storm and converge, answers equal on every node; E24: node-at-a-time >=8x the bulk loader's WAL bytes and >=1.6x its flushed pages, byte-identity, crash leg; E25: writer + reader, probe/list search on vs off, page views per replace/delete <=184 and per insert <=247, each mechanism cuts its own >=5x; E26: value predicates on 500/2000/8000-person documents, page views and allocations per context node grow <1.5x, <=0.9 views and <=2.8 allocations per node, answers equal encoding/xml's; times printed, not gated) =="
go run ./cmd/sedna-bench

echo "check.sh: all green"
