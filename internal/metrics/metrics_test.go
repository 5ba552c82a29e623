package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("t.count") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("t.level")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t.x")
	defer func() {
		if recover() == nil {
			t.Fatal("Gauge on a counter name did not panic")
		}
	}()
	r.Gauge("t.x")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t.lat_ns")
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond) // bucket 0 (≤1µs)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	v := h.value()
	if v.Count != 100 {
		t.Fatalf("count = %d, want 100", v.Count)
	}
	wantSum := int64(90*time.Microsecond + 10*100*time.Millisecond)
	if v.SumNs != wantSum {
		t.Fatalf("sum = %d, want %d", v.SumNs, wantSum)
	}
	if v.P50Ns != 1000 {
		t.Fatalf("p50 = %d, want 1000", v.P50Ns)
	}
	// 100ms lands in the bucket bounded by 2^17 µs = 134.217728ms.
	if v.P99Ns < int64(100*time.Millisecond) || v.P99Ns > int64(300*time.Millisecond) {
		t.Fatalf("p99 = %d, want ~134ms bucket bound", v.P99Ns)
	}
	// Negative observations clamp to zero instead of corrupting the sum.
	h.ObserveNs(-5)
	if h.value().SumNs != wantSum {
		t.Fatal("negative observation changed the sum")
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, ns := range []int64{0, 1, 999, 1000, 1001, 1 << 20, 1 << 40, 1 << 62} {
		i := bucketIndex(ns)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d", ns)
		}
		prev = i
	}
	if bucketIndex(1<<62) != histBuckets {
		t.Fatal("huge value did not land in the overflow bucket")
	}
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("buffer.hits").Add(3)
	r.Gauge("server.sessions_active").Set(2)
	r.Histogram("wal.fsync_ns").Observe(time.Millisecond)
	r.RecordProfile(QueryProfile{Kind: "query", ExecNs: 42, NodesYielded: 7})

	s := r.Snapshot()
	if s.Counters["buffer.hits"] != 3 {
		t.Fatalf("snapshot counter = %d", s.Counters["buffer.hits"])
	}
	if s.Gauges["server.sessions_active"] != 2 {
		t.Fatalf("snapshot gauge = %d", s.Gauges["server.sessions_active"])
	}
	if s.Histograms["wal.fsync_ns"].Count != 1 {
		t.Fatalf("snapshot histogram count = %d", s.Histograms["wal.fsync_ns"].Count)
	}
	text := textOf(r)
	for _, want := range []string{
		"buffer.hits 3",
		"server.sessions_active 2",
		"wal.fsync_ns count=1",
		"query kind=query",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, text)
		}
	}
	// Deterministic ordering.
	if text != textOf(r) {
		t.Fatal("two renderings of the same state differ")
	}
}

func TestRecentProfilesRing(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < profileRing+5; i++ {
		r.RecordProfile(QueryProfile{Kind: "query", NodesYielded: i})
	}
	ps := r.RecentProfiles()
	if len(ps) != profileRing {
		t.Fatalf("got %d profiles, want %d", len(ps), profileRing)
	}
	if ps[0].NodesYielded != profileRing+4 {
		t.Fatalf("newest profile = %d, want %d", ps[0].NodesYielded, profileRing+4)
	}
}

// TestConcurrentHammer exercises creation, increments, observations and
// snapshotting from many goroutines at once; run with -race.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshot readers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				var sb strings.Builder
				if err := s.WriteText(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			c := r.Counter("hammer.count")
			ga := r.Gauge("hammer.level")
			h := r.Histogram("hammer.lat_ns")
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Inc()
				h.ObserveNs(int64(i))
				r.Counter("hammer.count").Add(1) // re-lookup path
				if i%100 == 0 {
					r.RecordProfile(QueryProfile{Kind: "query", NodesYielded: i})
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if got := r.Counter("hammer.count").Value(); got != goroutines*perG*2 {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG*2)
	}
	if got := r.Gauge("hammer.level").Value(); got != goroutines*perG {
		t.Fatalf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("hammer.lat_ns").Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestOrNew(t *testing.T) {
	if OrNew(nil) == nil {
		t.Fatal("OrNew(nil) returned nil")
	}
	r := NewRegistry()
	if OrNew(r) != r {
		t.Fatal("OrNew did not pass through a non-nil registry")
	}
}

// BenchmarkCounterInc is the registry hot-path overhead gate: the ISSUE
// acceptance bound is < 20 ns/op.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.count")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.lat_ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveNs(int64(i & 0xfffff))
	}
}

// TestDerivedRatios checks the ratio line the text form derives at render
// time: buffer.hit_ratio from hits/faults, present only when its inputs are.
func TestDerivedRatios(t *testing.T) {
	r := NewRegistry()
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "hit_ratio") {
		t.Fatalf("empty registry rendered a ratio line:\n%s", sb.String())
	}
	r.Counter("buffer.hits").Add(3)
	r.Counter("buffer.faults").Add(1)
	sb.Reset()
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "buffer.hit_ratio 0.7500") {
		t.Fatalf("missing buffer.hit_ratio 0.7500 in:\n%s", out)
	}
}

// textOf renders the registry's current snapshot as plain text.
func textOf(r *Registry) string {
	var sb strings.Builder
	_ = r.Snapshot().WriteText(&sb)
	return sb.String()
}
