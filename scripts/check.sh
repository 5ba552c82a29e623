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
    printf '%-36s %3d (max %d)\n' "$1" "$2" "$3"
    if [ "$2" -gt "$3" ]; then
        echo "$1: $2, above the recorded $3" >&2
        exit 1
    fi
}
surface "Options fields" "$(awk '/^type Options struct/ {s = 1; next} s && /^}/ {s = 0} s && /^\t[A-Z][A-Za-z0-9]* / {n++} END {print n + 0}' sedna.go)" 8
surface "sednad flags" "$(grep -cE 'flag\.[A-Z][A-Za-z0-9]*\("' cmd/sednad/main.go)" 9
surface "wire verbs" "$(awk '/^\tMsg[A-Za-z]+ *= *[0-9]+/ {split($0, a, "="); if (a[2] + 0 < 64) n++} END {print n + 0}' internal/wire/wire.go)" 13
surface "ForTesting functions" "$(grep -rhE '^func (\([^)]*\) )?[A-Za-z]+ForTesting\(' --include='*.go' --exclude='*_test.go' . | wc -l)" 1
# Page-sized allocations in the buffer pool's program code: the zero page, a
# fault's frame, a writer's copy and the snapshot-area save.
surface "page allocations in internal/buffer" "$(grep -hF 'make([]byte, sas.PageSize)' --exclude='*_test.go' internal/buffer/*.go | wc -l)" 4

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# go test carries the engine's counter gates, each in the package that owns
# its counter:
#   internal/query: TestOptimizerAgainstForcedPlans (page views optimized
#     against forced, an index probe per selective statement, the range
#     predicate keeps the scan, identical answers), TestPlansAreDeterministic
#     (one EXPLAIN text per statement), TestUpdatePagesOnHotDocument (page
#     views per keyed update, on the fresh document and after its splits),
#     TestUpdateTargetProbe (the probe's cut of a keyed target's page views,
#     and the probe chosen with and without fresh statistics) and
#     TestValuePredicateScalesLinearly (page views and allocations per context
#     node, answers equal encoding/xml's);
#   internal/core: TestSnapshotStatementsIgnoreHeldLock (lock.waits = 0 under
#     a held exclusive lock), TestVersionsDieAtCommit (buffer.versions_live),
#     TestBulkLoadWritesLess (WAL bytes and pages against node-at-a-time
#     loading) and TestBulkLoadAllocations (bytes allocated per flushed page
#     and pagefile.reads of one bulk load);
#   internal/txn: TestEvictionFlushesOnlyThePagesRecords (wal.fsyncs of an
#     eviction: none for a committed page, one for a stolen one);
#   internal/storage: TestListPositionProperty (the search's cut of page
#     views per insert);
#   internal/repl: TestReplicaSeedAndStreamConverges (two replicas converge).
echo "== go test =="
go test ./...

echo "== go test -race (concurrency-sensitive packages) =="
go test -race ./internal/metrics ./internal/trace ./internal/buffer ./internal/wal \
    ./internal/txn ./internal/core ./internal/lock ./internal/server ./internal/query \
    ./internal/repl ./internal/opt

echo "== fuzz (10 s each: the XML scanner against encoding/xml, the text escaper against encoding/xml, the response decoder, in-place comparisons against the general path, opening a damaged segmented log, the list-position search against the walk) =="
go test -run '^$' -fuzz='^FuzzScanXML$' -fuzztime=10s ./internal/xmlscan
go test -run '^$' -fuzz='^FuzzEscapeText$' -fuzztime=10s ./internal/core
go test -run '^$' -fuzz='^FuzzReadResponse$' -fuzztime=10s ./internal/wire
go test -run '^$' -fuzz='^FuzzValueCompare$' -fuzztime=10s ./internal/query
go test -run '^$' -fuzz='^FuzzOpenLog$' -fuzztime=10s ./internal/wal
go test -run '^$' -fuzz='^FuzzListPosition$' -fuzztime=10s ./internal/storage

echo "== repository benchmark module (benchmark/: vet + smoke-scale tests) =="
go -C benchmark vet ./...
go -C benchmark test ./...

# The E-series of EXPERIMENTS.md, one run: the paper-claim tables. The KILL,
# SESSIONS and Prometheus checks that E21 made are go test's:
# TestSessionsVisibility and TestSessionsHTTP in internal/server.
echo "== E-series (every experiment of cmd/sedna-bench once; times printed, not gated; exits 1 if an experiment fails, or if E9's virtual and deep-copy constructors serialize differently) =="
go run ./cmd/sedna-bench

echo "check.sh: all green"
