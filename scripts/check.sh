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

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (concurrency-sensitive packages) =="
go test -race ./internal/metrics ./internal/trace ./internal/buffer ./internal/wal \
    ./internal/txn ./internal/core ./internal/lock ./internal/server ./internal/query \
    ./internal/repl ./internal/resident ./internal/opt

echo "== bench smoke (compile + one iteration of every benchmark) =="
go test -bench=. -benchtime=1x -run '^$' .

echo "== repository benchmark module (benchmark/: vet + smoke-scale tests) =="
go -C benchmark vet ./...
go -C benchmark test ./...

echo "== replication smoke (E20: seed, stream, storm, converge) =="
go run ./cmd/sedna-bench -run E20

echo "== introspection smoke (E21: sessions, KILL of a long query, Prometheus round-trip) =="
go run ./cmd/sedna-bench -run E21

echo "== snapshot-reader smoke (E10: every snapshot statement completes under a held exclusive document lock, readers' lock.waits = 0) =="
go run ./cmd/sedna-bench -run E10

echo "== version-retention smoke (E12: versions_live 0 after 300 commits with no snapshot, > 0 under three pinned snapshots, 0 again when they end) =="
go run ./cmd/sedna-bench -run E12

echo "== resident-mode smoke (E22: resident vs paged on the scan suite and the point-read mix, byte-identity incl. update-invalidate-rebuild, one build per open, 0 fallbacks; ratios printed, not gated) =="
go run ./cmd/sedna-bench -run E22

echo "== optimizer smoke (E23: costed plans vs hand-forced, <=1.1x regression, >=2x selective speedup) =="
go run ./cmd/sedna-bench -run E23

echo "== bulk-load smoke (E24: streaming loader vs node-at-a-time, byte-identity, >=3x speedup, crash leg) =="
go run ./cmd/sedna-bench -run E24

echo "== hot-document smoke (E25: writer + reader, gate/probe/skip on vs off, reader p50 < 5ms, <=2 builds, >=5x stmts/s) =="
go run ./cmd/sedna-bench -run E25

echo "== paged-step smoke (E26: value predicates on 500/2000/8000-person documents; page views and allocations per context node grow <1.5x, <=4 views and <=2.8 allocations per node, answers equal resident; time growth printed, not gated) =="
go run ./cmd/sedna-bench -run E26

echo "check.sh: all green"
