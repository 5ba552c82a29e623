package resident

import (
	"sync"
	"testing"
	"time"

	"sedna/internal/metrics"
)

func mkRep(name string, version, snap uint64, bytes uint64) *Rep {
	return &Rep{DocName: name, CommitTS: version, SnapTS: snap, Bytes: bytes}
}

// manualClock is the injected clock of the gate tests: time moves only when
// a test (or a build function, to model a slow build) advances it.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (m *manualClock) now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

func (m *manualClock) advance(d time.Duration) {
	m.mu.Lock()
	m.t = m.t.Add(d)
	m.mu.Unlock()
}

// newTestCache returns a cache on a manual clock. Builds that do not advance
// the clock take no time, so the admission gate stays open for the tests
// that are not about it.
func newTestCache(budget int64, reg *metrics.Registry) (*Cache, *manualClock) {
	c := NewCache(budget, reg)
	clk := &manualClock{t: time.Unix(1_000_000, 0)}
	c.SetClockForTesting(clk.now)
	return c, clk
}

func acquire(c *Cache, name string, version, snap uint64, bytes uint64, calls *int) *Rep {
	rep, _ := c.Acquire(name, version, snap, func() (*Rep, error) {
		*calls++
		return mkRep(name, version, snap, bytes), nil
	})
	return rep
}

// slowAcquire is acquire with a build that takes took on the manual clock;
// it also reports whether the cache deferred the build.
func slowAcquire(c *Cache, clk *manualClock, name string, version uint64, took time.Duration, calls *int) (*Rep, bool) {
	return c.Acquire(name, version, version, func() (*Rep, error) {
		*calls++
		clk.advance(took)
		return mkRep(name, version, version, 40), nil
	})
}

func TestCacheHitAndVersionValidation(t *testing.T) {
	c, _ := newTestCache(1<<20, nil)
	calls := 0
	r1 := acquire(c, "a", 10, 10, 100, &calls)
	if r1 == nil || calls != 1 {
		t.Fatalf("first acquire: rep=%v calls=%d", r1, calls)
	}
	r2 := acquire(c, "a", 10, 15, 100, &calls)
	if r2 != r1 || calls != 1 {
		t.Fatalf("same-version acquire should hit: calls=%d", calls)
	}
	// A newer committed version must rebuild, never serve the stale Rep.
	r3 := acquire(c, "a", 20, 25, 100, &calls)
	if r3 == r1 || calls != 2 {
		t.Fatalf("new-version acquire should rebuild: calls=%d", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestCacheOlderBuildKeepsNewer pins that a build serving a reader on an
// older snapshot does not evict a newer cached version (regression: it used
// to overwrite unconditionally, causing rebuild thrash when old-snapshot and
// current readers interleave).
func TestCacheOlderBuildKeepsNewer(t *testing.T) {
	c, _ := newTestCache(1<<20, nil)
	calls := 0
	newer := acquire(c, "a", 20, 20, 100, &calls)
	older := acquire(c, "a", 10, 10, 100, &calls)
	if older == nil || older == newer || calls != 2 {
		t.Fatalf("older-snapshot acquire: rep=%v calls=%d", older, calls)
	}
	if r := acquire(c, "a", 20, 21, 100, &calls); r != newer || calls != 2 {
		t.Fatalf("newer rep should still be cached after older build: calls=%d", calls)
	}
	if c.Len() != 1 || c.TotalBytes() != 100 {
		t.Fatalf("Len=%d TotalBytes=%d, want 1/100", c.Len(), c.TotalBytes())
	}
}

func TestCacheTooBigMemo(t *testing.T) {
	c, _ := newTestCache(100, nil)
	calls := 0
	if rep := acquire(c, "big", 5, 5, 500, &calls); rep != nil {
		t.Fatal("over-budget rep should fall back to paged")
	}
	if rep := acquire(c, "big", 5, 6, 500, &calls); rep != nil || calls != 1 {
		t.Fatalf("tooBig memo should skip rebuild: calls=%d", calls)
	}
	// A new version may have shrunk: the memo is per version.
	if rep := acquire(c, "big", 7, 8, 50, &calls); rep == nil || calls != 2 {
		t.Fatalf("new version should rebuild: calls=%d", calls)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := newTestCache(100, nil)
	calls := 0
	acquire(c, "a", 1, 1, 40, &calls)
	acquire(c, "b", 1, 1, 40, &calls)
	acquire(c, "a", 1, 2, 40, &calls) // touch a: b becomes LRU
	acquire(c, "c", 1, 3, 40, &calls)
	if c.Contains("b") {
		t.Fatal("b should have been evicted as LRU")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Fatal("a and c should survive eviction")
	}
	if c.TotalBytes() != 80 {
		t.Fatalf("TotalBytes = %d, want 80", c.TotalBytes())
	}
}

func TestCacheInvalidate(t *testing.T) {
	c, _ := newTestCache(1<<20, nil)
	calls := 0
	acquire(c, "a", 1, 1, 40, &calls)
	c.Invalidate("a")
	if c.Contains("a") || c.TotalBytes() != 0 {
		t.Fatal("invalidate should drop the entry and its bytes")
	}
	acquire(c, "a", 2, 2, 40, &calls)
	if calls != 2 {
		t.Fatalf("acquire after invalidate should rebuild: calls=%d", calls)
	}
}

func TestCacheBarrier(t *testing.T) {
	c, _ := newTestCache(1<<20, nil)
	calls := 0
	acquire(c, "a", 1, 1, 40, &calls)
	c.Barrier(50)
	if c.Len() != 0 {
		t.Fatal("barrier should flush the cache")
	}
	if rep := acquire(c, "a", 1, 40, 40, &calls); rep != nil || calls != 1 {
		t.Fatalf("pre-barrier snapshot must be served paged: calls=%d", calls)
	}
	if rep := acquire(c, "a", 60, 60, 40, &calls); rep == nil || calls != 2 {
		t.Fatalf("post-barrier snapshot should build: calls=%d", calls)
	}
	// A build whose snapshot raced below a new barrier is returned to its
	// reader but not cached.
	c.Barrier(100)
	rep, _ := c.Acquire("b", 70, 120, func() (*Rep, error) {
		return mkRep("b", 70, 90, 40), nil
	})
	if rep == nil {
		t.Fatal("racing build should still serve its reader")
	}
	if c.Contains("b") {
		t.Fatal("racing build must not be cached across the barrier")
	}
}

// TestCacheSingleflight: an acquirer that finds another's build in flight is
// sent to paged service at once — it neither waits nor builds a duplicate.
func TestCacheSingleflight(t *testing.T) {
	reg := metrics.NewRegistry()
	c, _ := newTestCache(1<<20, reg)
	calls := 0
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan *Rep)
	go func() {
		rep, _ := c.Acquire("a", 1, 1, func() (*Rep, error) {
			calls++
			close(started)
			<-release
			return mkRep("a", 1, 1, 40), nil
		})
		done <- rep
	}()
	<-started
	// The first build is blocked until release: a waiting implementation
	// would deadlock here instead of returning.
	rep, deferred := c.Acquire("a", 1, 1, func() (*Rep, error) {
		t.Error("second acquirer ran its own build")
		return nil, nil
	})
	if rep != nil || !deferred {
		t.Fatalf("acquire during an in-flight build = (%v, deferred=%v), want (nil, true)", rep, deferred)
	}
	close(release)
	if builder := <-done; builder == nil {
		t.Fatal("builder did not receive its rep")
	}
	if got := acquire(c, "a", 1, 2, 40, &calls); got == nil || calls != 1 {
		t.Fatalf("after the build the rep should be shared: rep=%v calls=%d", got, calls)
	}
	m := reg.Snapshot().Counters
	if m["resident.deferred"] != 1 || m["resident.fallbacks"] != 0 || m["resident.builds"] != 1 {
		t.Fatalf("deferred=%d fallbacks=%d builds=%d, want 1/0/1",
			m["resident.deferred"], m["resident.fallbacks"], m["resident.builds"])
	}
}

// TestCacheGate pins the ski-rental admission rule: while commits arrive
// faster than the last build took, no build is admitted; once the document
// has been quiet for a build time, the next reader builds.
func TestCacheGate(t *testing.T) {
	reg := metrics.NewRegistry()
	c, clk := newTestCache(1<<20, reg)
	const buildTime = 100 * time.Millisecond
	calls := 0
	// The first build is admitted unconditionally, even right after a
	// commit.
	c.Invalidate("a")
	if rep, _ := slowAcquire(c, clk, "a", 1, buildTime, &calls); rep == nil || calls != 1 {
		t.Fatalf("first build not admitted: rep=%v calls=%d", rep, calls)
	}
	// Commits every 30 ms: every read in between is deferred, none builds.
	version := uint64(1)
	for i := 0; i < 10; i++ {
		version++
		c.Invalidate("a")
		clk.advance(30 * time.Millisecond)
		rep, deferred := slowAcquire(c, clk, "a", version, buildTime, &calls)
		if rep != nil || !deferred {
			t.Fatalf("commit %d: read during churn = (%v, deferred=%v), want (nil, true)", i, rep, deferred)
		}
	}
	if calls != 1 {
		t.Fatalf("builds during churn: %d, want none beyond the first", calls-1)
	}
	// Quiet for just under a build time: still closed. Then past it: open.
	clk.advance(buildTime - 30*time.Millisecond - time.Nanosecond)
	if rep, deferred := slowAcquire(c, clk, "a", version, buildTime, &calls); rep != nil || !deferred {
		t.Fatalf("gate opened early: (%v, deferred=%v)", rep, deferred)
	}
	clk.advance(time.Nanosecond)
	if rep, deferred := slowAcquire(c, clk, "a", version, buildTime, &calls); rep == nil || deferred || calls != 2 {
		t.Fatalf("gate did not open after a quiet build time: rep=%v deferred=%v calls=%d", rep, deferred, calls)
	}
	// The gate is per document: b's first build is unaffected by a's churn.
	c.Invalidate("a")
	if rep, _ := slowAcquire(c, clk, "b", 1, buildTime, &calls); rep == nil {
		t.Fatal("another document's first build was gated")
	}
	m := reg.Snapshot().Counters
	if m["resident.deferred"] != 11 || m["resident.fallbacks"] != 0 {
		t.Fatalf("deferred=%d fallbacks=%d, want 11/0", m["resident.deferred"], m["resident.fallbacks"])
	}
}

// TestCacheGateAdaptsToBuildTime: the quiet period required is the measured
// time of the last build, not a constant.
func TestCacheGateAdaptsToBuildTime(t *testing.T) {
	c, clk := newTestCache(1<<20, nil)
	calls := 0
	slowAcquire(c, clk, "a", 1, 100*time.Millisecond, &calls)
	c.Invalidate("a")
	clk.advance(100 * time.Millisecond)
	// This build is quick, so the next quiet period is short.
	if rep, _ := slowAcquire(c, clk, "a", 2, time.Millisecond, &calls); rep == nil {
		t.Fatal("build after a quiet period not admitted")
	}
	c.Invalidate("a")
	clk.advance(2 * time.Millisecond)
	if rep, _ := slowAcquire(c, clk, "a", 3, time.Millisecond, &calls); rep == nil || calls != 3 {
		t.Fatalf("gate still uses the old build time: rep=%v calls=%d", rep, calls)
	}
}

// TestCacheBarrierStampsChurn: a replicated apply may have modified any
// document, so the barrier restarts every built document's quiet period.
func TestCacheBarrierStampsChurn(t *testing.T) {
	c, clk := newTestCache(1<<20, nil)
	const buildTime = 100 * time.Millisecond
	calls := 0
	slowAcquire(c, clk, "a", 1, buildTime, &calls)
	slowAcquire(c, clk, "b", 1, buildTime, &calls)
	clk.advance(time.Hour)
	c.Barrier(50)
	clk.advance(buildTime / 2)
	for _, name := range []string{"a", "b"} {
		if rep, deferred := slowAcquire(c, clk, name, 60, buildTime, &calls); rep != nil || !deferred {
			t.Fatalf("%s right after a barrier = (%v, deferred=%v), want (nil, true)", name, rep, deferred)
		}
	}
	clk.advance(buildTime / 2)
	for _, name := range []string{"a", "b"} {
		if rep, _ := slowAcquire(c, clk, name, 60, buildTime, &calls); rep == nil {
			t.Fatalf("%s not rebuilt a build time after the barrier", name)
		}
	}
	if calls != 4 {
		t.Fatalf("builds = %d, want 4", calls)
	}
}

// TestCacheConcurrentChurn drives concurrent acquires, invalidations and
// eviction under a tight budget; the race detector checks the locking.
func TestCacheConcurrentChurn(t *testing.T) {
	c := NewCache(100, nil)
	names := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := names[(w+i)%len(names)]
				ver := uint64(i % 3)
				rep, _ := c.Acquire(name, ver, ver, func() (*Rep, error) {
					return mkRep(name, ver, ver, 40), nil
				})
				if rep != nil && rep.DocName != name {
					t.Errorf("got rep for %q, want %q", rep.DocName, name)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.Invalidate(names[i%len(names)])
		}
	}()
	wg.Wait()
	if c.TotalBytes() > c.Budget() {
		t.Fatalf("total %d exceeds budget %d", c.TotalBytes(), c.Budget())
	}
}
