package resident

import (
	"sync"
	"time"

	"sedna/internal/metrics"
)

// Cache holds resident representations across documents under a byte-size
// budget with LRU eviction. Entries validate by commit timestamp: a reader
// shares a cached Rep iff its snapshot resolves the document to the same
// metadata version the Rep was built against. Invalidation just drops the
// cache reference — Reps are immutable, so in-flight readers keep theirs.
//
// The barrier guards replicas: physical page applies from a primary do not
// touch document metadata, so after an apply commit every cached Rep is
// flushed and readers whose snapshot predates the barrier fall back to
// paged access rather than share a Rep across the apply.
//
// Building is a costed decision (ski rental): a build is worth its time only
// if the document then stays unmodified long enough to be read from it. The
// cache measures how long each document's last build took and admits the
// next one only once the document has been quiet at least that long; until
// then, and while another reader's build is in flight, readers are served
// paged at once (counted in resident.deferred). A document written faster
// than it can be built is thus never rebuilt per commit, and goes resident
// again one build-time after the writes stop.
type Cache struct {
	mu      sync.Mutex
	budget  uint64
	entries map[string]*entry
	// inflight names the documents some reader is building right now.
	inflight map[string]struct{}
	// tooBig remembers versions whose Rep exceeds the whole budget, so each
	// statement does not rebuild them just to throw them away.
	tooBig map[string]uint64
	// churn is the admission gate's per-document state; barrierAt is the
	// last replicated apply, which modifies every document at once.
	churn     map[string]*churn
	barrierAt time.Time
	now       func() time.Time
	barrier   uint64
	total     uint64
	tick      uint64

	hits, builds, fallbacks, deferred, invalidations, evictions *metrics.Counter
	bytes                                                       *metrics.Gauge
}

// churn is what the admission gate knows about one document, from the start
// of its first build on: when a commit last modified it and how long its
// last build took.
type churn struct {
	modified  time.Time
	buildTook time.Duration
}

type entry struct {
	rep     *Rep
	lastUse uint64
}

// DefaultBudget is the resident byte budget when none is configured
// (256 MiB).
const DefaultBudget = 256 << 20

// NewCache creates a cache with the given byte budget (<= 0 uses
// DefaultBudget), reporting into reg.
func NewCache(budget int64, reg *metrics.Registry) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	reg = metrics.OrNew(reg)
	return &Cache{
		budget:        uint64(budget),
		entries:       make(map[string]*entry),
		inflight:      make(map[string]struct{}),
		tooBig:        make(map[string]uint64),
		churn:         make(map[string]*churn),
		now:           time.Now,
		hits:          reg.Counter("resident.hits"),
		builds:        reg.Counter("resident.builds"),
		fallbacks:     reg.Counter("resident.fallbacks"),
		deferred:      reg.Counter("resident.deferred"),
		invalidations: reg.Counter("resident.invalidations"),
		evictions:     reg.Counter("resident.evictions"),
		bytes:         reg.Gauge("resident.bytes"),
	}
}

// Budget returns the configured byte budget.
func (c *Cache) Budget() uint64 { return c.budget }

// SetClockForTesting replaces the clock behind the admission gate, so tests
// and experiments can open or close the gate without sleeping.
func (c *Cache) SetClockForTesting(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

// gateClosedLocked reports whether the named document was modified more
// recently than its last build took.
func (c *Cache) gateClosedLocked(name string) bool {
	ch := c.churn[name]
	if ch == nil {
		return false // never built: the first build is always admitted
	}
	since := ch.modified
	if c.barrierAt.After(since) {
		since = c.barrierAt
	}
	return c.now().Sub(since) < ch.buildTook
}

// Acquire returns the resident representation of the named document at the
// given metadata version, building it via build on a miss. It never waits:
// nil means the document must be served paged, and deferred tells why.
// deferred=true (counted in resident.deferred) — the admission gate is
// closed or another acquirer's build is in flight, so a later statement may
// well be served resident; deferred=false (counted in resident.fallbacks) —
// the build failed, the Rep alone exceeds the budget, or the reader's
// snapshot predates the replication barrier.
func (c *Cache) Acquire(name string, version, snapTS uint64, build func() (*Rep, error)) (rep *Rep, deferred bool) {
	c.mu.Lock()
	if snapTS < c.barrier {
		c.mu.Unlock()
		c.fallbacks.Inc()
		return nil, false
	}
	if ent := c.entries[name]; ent != nil && ent.rep.CommitTS == version {
		c.tick++
		ent.lastUse = c.tick
		c.mu.Unlock()
		c.hits.Inc()
		return ent.rep, false
	}
	if v, ok := c.tooBig[name]; ok && v == version {
		c.mu.Unlock()
		c.fallbacks.Inc()
		return nil, false
	}
	if _, busy := c.inflight[name]; busy || c.gateClosedLocked(name) {
		c.mu.Unlock()
		c.deferred.Inc()
		return nil, true
	}
	c.inflight[name] = struct{}{}
	ch := c.churn[name]
	if ch == nil {
		// Registered before the build starts, so a commit landing during the
		// first build is stamped too.
		ch = &churn{}
		c.churn[name] = ch
	}
	start := c.now()
	c.mu.Unlock()

	rep, err := build()

	c.mu.Lock()
	delete(c.inflight, name)
	ch.buildTook = c.now().Sub(start)
	if err != nil || rep == nil {
		c.mu.Unlock()
		c.fallbacks.Inc()
		return nil, false
	}
	c.builds.Inc()
	if rep.Bytes > c.budget {
		c.tooBig[name] = version
		c.mu.Unlock()
		c.fallbacks.Inc()
		return nil, false
	}
	if rep.SnapTS < c.barrier {
		// Built under a snapshot older than a replicated apply that landed
		// mid-build: correct for this reader, but not cacheable.
		c.mu.Unlock()
		return rep, false
	}
	if old := c.entries[name]; old != nil {
		if old.rep.CommitTS > rep.CommitTS {
			// A newer version is already cached (this build served a reader
			// on an older snapshot): keep it, hand the fresh Rep to the
			// caller only.
			c.mu.Unlock()
			return rep, false
		}
		c.total -= old.rep.Bytes
	}
	c.tick++
	c.entries[name] = &entry{rep: rep, lastUse: c.tick}
	c.total += rep.Bytes
	c.evictLocked(name)
	c.bytes.Set(int64(c.total))
	c.mu.Unlock()
	return rep, false
}

// evictLocked drops least-recently-used entries (never keep) until the
// total fits the budget.
func (c *Cache) evictLocked(keep string) {
	for c.total > c.budget {
		var victim string
		var oldest uint64
		for name, ent := range c.entries {
			if name == keep {
				continue
			}
			if victim == "" || ent.lastUse < oldest {
				victim, oldest = name, ent.lastUse
			}
		}
		if victim == "" {
			return
		}
		c.total -= c.entries[victim].rep.Bytes
		delete(c.entries, victim)
		c.evictions.Inc()
	}
}

// Invalidate drops the named document's cached representation (commit of a
// change or a drop) and restarts the document's quiet period, cached or not.
// In-flight readers holding the Rep are unaffected.
func (c *Cache) Invalidate(name string) {
	c.mu.Lock()
	if ch := c.churn[name]; ch != nil {
		// Never-built documents need no stamp: their first build is always
		// admitted, and the map stays bounded by the documents ever built.
		ch.modified = c.now()
	}
	delete(c.tooBig, name)
	ent := c.entries[name]
	if ent != nil {
		c.total -= ent.rep.Bytes
		delete(c.entries, name)
		c.invalidations.Inc()
		c.bytes.Set(int64(c.total))
	}
	c.mu.Unlock()
}

// Barrier flushes the whole cache and refuses resident service to readers
// whose snapshot predates ts — called after a replicated apply commits,
// whose physical page writes change content without touching document
// metadata versions. The apply may have modified any document, so it
// restarts every document's quiet period.
func (c *Cache) Barrier(ts uint64) {
	c.mu.Lock()
	if ts > c.barrier {
		c.barrier = ts
	}
	c.barrierAt = c.now()
	c.flushLocked()
	c.mu.Unlock()
}

// Flush drops every cached representation (resident mode switched off).
func (c *Cache) Flush() {
	c.mu.Lock()
	c.flushLocked()
	c.mu.Unlock()
}

func (c *Cache) flushLocked() {
	for name := range c.entries {
		delete(c.entries, name)
		c.invalidations.Inc()
	}
	c.tooBig = make(map[string]uint64)
	c.total = 0
	c.bytes.Set(0)
}

// Len returns the number of cached documents.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// TotalBytes returns the cached byte total.
func (c *Cache) TotalBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Contains reports whether the named document is currently resident (any
// version).
func (c *Cache) Contains(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[name]
	return ok
}
