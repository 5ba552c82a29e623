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
surface "wire verbs" "$(awk '/^\tMsg[A-Za-z]+ *= *[0-9]+/ {split($0, a, "="); if (a[2] + 0 < 64) n++} END {print n + 0}' internal/wire/wire.go)" 9
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
#     TestFirstInsertsIntoPackedBlocks (page views of the worst of the first
#     keyed inserts into a fresh document, and log records per insert),
#     TestUpdateTargetProbe (a keyed target's page views probed: tens, at
#     most a quarter of the scan's, which compares its candidates where they
#     lie and decodes only the one that passes; and the probe chosen with and
#     without fresh statistics),
#     TestValuePredicateScalesLinearly (page views and allocations per context
#     node, predicatePagesPerNode 0.1 and predicateAllocsPerNode 0.74,
#     answers equal encoding/xml's) and
#     TestOperatorAllocations (allocations per node of each batch operator,
#     a value predicate and a where clause among them);
#   internal/core: TestSnapshotStatementsIgnoreHeldLock (lock.waits = 0 under
#     a held exclusive lock), TestVersionsDieAtCommit (buffer.versions_live),
#     TestBulkLoadWritesLess (WAL bytes and pages against node-at-a-time
#     loading), TestBulkLoadAllocations (bytes allocated per flushed page
#     and pagefile.reads of one bulk load) and
#     TestOpenRecountsOnlyWhatRedoWrote (pagefile.reads of a reopen after a
#     crash, the same beside 1 and 8 untouched documents and at most
#     recoverReads; none on a clean reopen);
#   internal/txn: TestEvictionFlushesOnlyThePagesRecords (wal.fsyncs of an
#     eviction: none for a committed page, one for a stolen one);
#   internal/storage: TestListPositionProperty (the search's cut of page
#     views per insert), TestSplitMovesBoundedTail (descriptors a split
#     moves, blocks 500 inserts at one position allocate) and
#     TestValueWalkViews (page views of a 256-start value walk);
#   internal/repl: TestReplicaSeedAndStreamConverges (two replicas converge)
#     and TestReplicaCountersAfterRestart (a replica's counters verify
#     after a restart as a replica, a plain open and a promotion);
#   internal/server: TestPointReadTemplates (query.template_misses: 8 for
#     1000 statements of the 8 point_read shapes on one session) and
#     TestSessionStatementAllocations (allocations per statement of a keyed
#     lookup, a positional navigation and a FLWOR with a constructor on a
#     session that holds their templates).
echo "== go test =="
go test ./...

echo "== go test -race (concurrency-sensitive packages) =="
go test -race ./internal/metrics ./internal/trace ./internal/buffer ./internal/wal \
    ./internal/txn ./internal/core ./internal/lock ./internal/server ./internal/query \
    ./internal/repl ./internal/opt

echo "== fuzz (10 s each: the XML scanner against encoding/xml, the text escaper against encoding/xml, the response decoder, in-place comparisons against the general path in predicates and where clauses, counted and kept (@k serialized) over the lists of two parents, behind a positional predicate and on a child step, opening a damaged segmented log, the list-position search against the walk, statements rebound from a session's templates against the same texts parsed) =="
go test -run '^$' -fuzz='^FuzzScanXML$' -fuzztime=10s ./internal/xmlscan
go test -run '^$' -fuzz='^FuzzEscapeText$' -fuzztime=10s ./internal/core
go test -run '^$' -fuzz='^FuzzReadResponse$' -fuzztime=10s ./internal/wire
go test -run '^$' -fuzz='^FuzzValueCompare$' -fuzztime=10s ./internal/query
go test -run '^$' -fuzz='^FuzzOpenLog$' -fuzztime=10s ./internal/wal
go test -run '^$' -fuzz='^FuzzListPosition$' -fuzztime=10s ./internal/storage
go test -run '^$' -fuzz='^FuzzTemplateRebind$' -fuzztime=10s ./internal/query

echo "== repository benchmark module (benchmark/: vet + smoke-scale tests) =="
go -C benchmark vet ./...
go -C benchmark test ./...

# The E-series of EXPERIMENTS.md, one run: the paper-claim tables. The KILL,
# doc("$sessions") and Prometheus checks that E21 made are go test's:
# TestSessionsVisibility and TestSessionsHTTP in internal/server.
echo "== E-series (every experiment of cmd/sedna-bench once; times printed, not gated; exits 1 if an experiment fails, or if E9's virtual and deep-copy constructors serialize differently) =="
go run ./cmd/sedna-bench

echo "check.sh: all green"
