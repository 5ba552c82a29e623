package buffer

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sedna/internal/sas"
)

// hammerPool runs readers, snapshot readers, writers (alternating PinWrite
// and InstallPage) and a janitor over a shared pool and verifies the last
// committed byte of every written page afterwards. Run under -race it exercises the stripe read-lock deref fast
// path, clock-sweep eviction, pin/unpin atomics, version chains and commit
// against each other.
func hammerPool(t *testing.T, capacity, pages, readers, writers, iters int) {
	t.Helper()
	m, pf, _ := newTestManager(t, capacity)
	ids := make([]sas.PageID, pages)
	for i := range ids {
		ids[i] = alloc(pf)
	}
	// Live (non-snapshot) reads model a reader transaction holding its own
	// document lock, so they target reader-owned pages: document-granularity
	// 2PL above this layer excludes live read/write overlap on one
	// document's pages. Snapshot reads are lock-free by design and hammer
	// every page, including the writers'.
	roIDs := make([]sas.PageID, 4)
	for i := range roIDs {
		roIDs[i] = alloc(pf)
	}
	var cts atomic.Uint64
	m.SetActiveSnapshots(func() []uint64 { return []uint64{cts.Load()} })

	var wg sync.WaitGroup
	var busy atomic.Uint64
	errc := make(chan error, readers+writers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				id := ids[rng.Intn(len(ids))]
				if i%4 == 0 {
					page, pin, _, err := m.ViewSnapshot(id, cts.Load())
					if errors.Is(err, ErrBusy) {
						busy.Add(1)
						continue
					}
					if err != nil {
						errc <- err
						return
					}
					_ = page[0]
					if pin != nil {
						m.Unpin(pin)
					}
					continue
				}
				f, err := m.Deref(roIDs[rng.Intn(len(roIDs))].Ptr())
				if err != nil {
					if errors.Is(err, ErrBusy) {
						busy.Add(1)
						continue
					}
					errc <- err
					return
				}
				_ = f.Data()[0]
				m.Unpin(f)
			}
		}(int64(r))
	}

	// Each writer owns a disjoint partition of pages, mirroring the
	// document-granularity 2PL above the buffer layer.
	want := make([][]byte, writers) // last committed byte per partition slot
	for w := 0; w < writers; w++ {
		want[w] = make([]byte, pages)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			part := ids[w*pages/writers : (w+1)*pages/writers]
			for i := 0; i < iters; i++ {
				txn := uint64(1 + w + writers*(i+1))
				slot := rng.Intn(len(part))
				id := part[slot]
				v := byte(1 + (i % 250))
				// Every other write hands a whole page over. The pages hold
				// committed content and a snapshot is always active, so a
				// page that is not resident is read and versioned.
				var err error
				if i%2 == 1 {
					page := make([]byte, sas.PageSize)
					page[0] = v
					err = m.InstallPage(id, txn, page, 0, false)
				} else {
					var f *Frame
					if f, err = m.PinWrite(id, txn, 0); err == nil {
						f.Data()[0] = v
						m.Unpin(f)
					}
				}
				if err != nil {
					if errors.Is(err, ErrBusy) {
						busy.Add(1)
						continue
					}
					errc <- err
					return
				}
				if i%7 == 3 {
					if err := m.RollbackTxn(txn); err != nil {
						errc <- err
						return
					}
					continue
				}
				m.CommitTxn(txn, cts.Add(1))
				want[w][w*pages/writers+slot] = v
			}
		}(w)
	}

	// Janitor: version purge and counter reads race the workers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			m.PurgeAllVersions()
			_ = m.VersionCount()
			_ = m.DirtyCount()
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if n := busy.Load(); n > uint64(iters) {
		t.Fatalf("excessive ErrBusy under pin retry: %d", n)
	}

	// Every partition slot must hold its last committed byte, both live and
	// through a current-timestamp snapshot read.
	now := cts.Load()
	for w := 0; w < writers; w++ {
		for slot, v := range want[w] {
			if v == 0 {
				continue
			}
			f, err := m.Pin(ids[slot])
			if err != nil {
				t.Fatal(err)
			}
			if got := f.Data()[0]; got != v {
				t.Fatalf("page %v live byte = %d, want %d", ids[slot], got, v)
			}
			m.Unpin(f)
			if got := snapByte(t, m, ids[slot], now); got != v {
				t.Fatalf("page %v snapshot byte = %d, want %d", ids[slot], got, v)
			}
		}
	}
}

// TestStressTinyPool hammers a capacity-4 pool (a single stripe), so every
// operation contends for the same mutex and eviction churns constantly.
func TestStressTinyPool(t *testing.T) {
	hammerPool(t, 4, 16, 2, 2, 300)
}

// TestStressStripedPool hammers a pool large enough to shard into the full
// stripe fan-out, with more pages than frames so the clock sweep runs under
// concurrent pinning.
func TestStressStripedPool(t *testing.T) {
	capacity := maxStripes * minStripeFrames // 1024: full fan-out
	m, _, _ := newTestManager(t, capacity)
	if m.Stripes() != maxStripes {
		t.Fatalf("stripes = %d, want %d", m.Stripes(), maxStripes)
	}
	hammerPool(t, capacity, capacity+capacity/2, 4, 2, 250)
}

func TestDoubleUnpinPanics(t *testing.T) {
	m, pf, _ := newTestManager(t, 8)
	f, err := m.Pin(alloc(pf))
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double Unpin must panic")
		}
	}()
	m.Unpin(f)
}

// TestPinWaitRecovers pins every frame, releases one from another goroutine
// shortly after, and expects the blocked Pin to succeed within the bounded
// wait instead of surfacing ErrBusy.
func TestPinWaitRecovers(t *testing.T) {
	m, pf, _ := newTestManager(t, 2)
	p1, p2, p3 := alloc(pf), alloc(pf), alloc(pf)
	f1, err := m.Pin(p1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := m.Pin(p2)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		m.Unpin(f2)
	}()
	f3, err := m.Pin(p3)
	if err != nil {
		t.Fatalf("Pin did not recover from transient pin pressure: %v", err)
	}
	m.Unpin(f3)
	m.Unpin(f1)
	if got := m.Metrics().Snapshot().Counters["buffer.pin_waits"]; got == 0 {
		t.Fatal("buffer.pin_waits not incremented")
	}
}

// TestHeldViewsNeverChange is the guard on "committed bytes are immutable":
// readers hold a snapshot view across a yield and compare it before and
// after, while writers first-touch, overwrite, commit and roll back the same
// pages and an 8-frame pool evicts them (16 pages, uncommitted ones
// included). A held view must not change by one byte, and every view must be
// exactly the content committed at its snapshot — the registered snapshots
// are all that keeps those versions alive now that commit purges. Run under
// -race: a view that aliased a writer's buffer is a data race before it is a
// wrong byte.
func TestHeldViewsNeverChange(t *testing.T) {
	const pages, readers, writers, rounds = 16, 3, 2, 400
	m, pf, _ := newTestManager(t, 8)
	ids := make([]sas.PageID, pages)
	for i := range ids {
		ids[i] = alloc(pf)
	}

	// pub and snapMu play the transaction manager: under pub a commit takes
	// its timestamp and stamps its pages in one step for a beginning
	// snapshot, as txn.Manager's commit does. pub also guards cts and
	// history: history[i] is the list of (commit timestamp, fill byte) of
	// page i.
	type committed struct {
		ts   uint64
		fill byte
	}
	var pub, snapMu sync.Mutex
	var cts uint64
	active := map[uint64]int{}
	history := make([][]committed, pages)
	m.SetActiveSnapshots(func() []uint64 {
		snapMu.Lock()
		defer snapMu.Unlock()
		out := make([]uint64, 0, len(active))
		for ts := range active {
			out = append(out, ts)
		}
		return out
	})
	wantAt := func(i int, ts uint64) byte {
		pub.Lock()
		defer pub.Unlock()
		var fill byte // never written: zeros
		for _, c := range history[i] {
			if c.ts <= ts {
				fill = c.fill
			}
		}
		return fill
	}
	uniform := func(page []byte) (byte, bool) {
		for _, b := range page {
			if b != page[0] {
				return 0, false
			}
		}
		return page[0], true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				txn := uint64(n*writers + w + 1)
				i := w + writers*rng.Intn(pages/writers) // disjoint partitions
				fill := byte(1 + rng.Intn(255))
				// Two passes: the first touch re-points the frame, the second
				// write finds the page already owned.
				for pass := 0; pass < 2; pass++ {
					f, err := m.PinWrite(ids[i], txn, 0)
					if err != nil {
						t.Error(err)
						return
					}
					data := f.Data()
					for j := pass; j < len(data); j += 2 {
						data[j] = fill
					}
					m.Unpin(f)
					runtime.Gosched()
				}
				if n%5 == 0 {
					if err := m.RollbackTxn(txn); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				pub.Lock()
				cts++
				m.CommitTxn(txn, cts)
				history[i] = append(history[i], committed{cts, fill})
				pub.Unlock()
			}
		}(w)
	}

	var readersWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for n := 0; n < rounds; n++ {
				pub.Lock()
				ts := cts
				snapMu.Lock()
				active[ts]++
				snapMu.Unlock()
				pub.Unlock()
				for k := 0; k < 4; k++ {
					i := rng.Intn(pages)
					page, pin, _, err := m.ViewSnapshot(ids[i], ts)
					if err != nil {
						t.Error(err)
						return
					}
					before, ok := uniform(page)
					runtime.Gosched()
					after, ok2 := uniform(page)
					if pin != nil {
						m.Unpin(pin)
					}
					if !ok || !ok2 || before != after {
						t.Errorf("page %d at snapshot %d: held view changed (%d → %d, uniform %v/%v)", i, ts, before, after, ok, ok2)
						return
					}
					if want := wantAt(i, ts); before != want {
						t.Errorf("page %d at snapshot %d reads fill %d, committed then was %d", i, ts, before, want)
						return
					}
				}
				snapMu.Lock()
				if active[ts]--; active[ts] == 0 {
					delete(active, ts)
				}
				snapMu.Unlock()
				m.PurgeAllVersions()
			}
		}(r)
	}
	readersWG.Wait()
	close(stop)
	wg.Wait()
	m.PurgeAllVersions() // as the next snapshot to end would
	if m.Stats().Evictions == 0 {
		t.Fatal("the pool never evicted: the test did not exercise reloads")
	}
	if n := m.VersionCount(); n != 0 {
		t.Fatalf("%d versions alive with no snapshot and no writer left", n)
	}
}
