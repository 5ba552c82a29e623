package main

import (
	"io/fs"
	"math"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place; an empty slice gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b with 0 for an empty base, so a metric whose layer did no work
// on a workload reads 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// memSampler tracks the peak of the Go runtime's mapped-and-not-released
// memory (MemStats.Sys − HeapReleased), read through runtime/metrics every
// 10 ms so sampling never stops the world under the measured statements.
//
// A run is a sequence of phases (each set-up, the timed window). Where the
// heap stands when a burst of allocation begins depends on when the
// collector last ran, so the peak of one phase flips between two levels from
// run to run; the run's peak_mem_mb is therefore the largest *typical* phase
// peak: repeated phases contribute their median (see peakOf).
type memSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		s := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			m.mu.Lock()
			if v := s[0].Value.Uint64() - s[1].Value.Uint64(); v > m.peak {
				m.peak = v
			}
			m.mu.Unlock()
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// mark ends a phase: it returns the peak in MiB since the previous mark.
func (m *memSampler) mark() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peak
	m.peak = 0
	return float64(p) / (1 << 20)
}

func (m *memSampler) close() {
	close(m.stop)
	m.done.Wait()
}

// peakOf is the largest of the median peaks of the given groups of phases.
func peakOf(groups ...[]float64) float64 {
	var peak float64
	for _, g := range groups {
		peak = math.Max(peak, median(g))
	}
	return peak
}

// heapAllocBytes is the cumulative bytes allocated on the Go heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// settle collects garbage and returns freed memory to the operating system,
// so that each phase of a run starts from the same heap and the memory peak
// depends on what the phase needs, not on when the collector last ran.
func settle() { debug.FreeOSMemory() }
