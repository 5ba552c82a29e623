package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"sedna/client"
)

// sample is one statement a client completed.
type sample struct {
	class string
	write bool
	// eligible: see stmt.eligible.
	eligible bool
	start    time.Time
	lat      time.Duration
	ok       bool
}

// tally counts every operation the harness checked against the oracle.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// note records one checked operation; the first few failures are printed.
func (t *tally) note(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintln(os.Stderr, "FAILED:", err)
	}
	return false
}

// verify checks a response against the statement's oracle answer.
func verify(s stmt, data string, updated int, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", s.src, err)
	case s.write && updated != s.wantUpd:
		return fmt.Errorf("%s: updated %d node(s), oracle says %d", s.src, updated, s.wantUpd)
	case !s.write && data != s.want:
		return fmt.Errorf("%s: got %q, oracle says %q", s.src, clip(data), clip(s.want))
	}
	return nil
}

// executor runs one statement and returns the response fields the oracle
// checks. The three traced passes and the closed-loop clients differ only in
// their executor.
type executor func(src string) (data string, updated int, err error)

func connExecutor(c *client.Conn) executor {
	return func(src string) (string, int, error) {
		res, err := c.Execute(src)
		if err != nil {
			return "", 0, err
		}
		return res.Data, res.Updated, nil
	}
}

// runStmt executes and verifies one statement, applies an acknowledged
// write to the oracle and returns the sample.
func runStmt(exec executor, s stmt, t *tally) sample {
	start := time.Now()
	data, upd, err := exec(s.src)
	lat := time.Since(start)
	ok := t.note(verify(s, data, upd, err))
	if ok && s.apply != nil {
		s.apply()
	}
	return sample{class: s.class, write: s.write, eligible: s.eligible, start: start, lat: lat, ok: ok}
}

// prime addresses every ANALYZEd document primeAccesses times (see
// primeStmt).
func prime(exec executor, docs []docSpec, t *tally) {
	for i := 0; i < primeAccesses; i++ {
		for _, d := range docs {
			if d.analyze {
				runStmt(exec, primeStmt(d.name), t)
			}
		}
	}
}

// window is the timed part of a closed-loop run.
type window struct {
	start, end time.Time
	perClient  [][]sample // completed inside [start, end]
}

// samples pools the clients' samples.
func (w window) samples() []sample {
	var all []sample
	for _, ss := range w.perClient {
		all = append(all, ss...)
	}
	return all
}

// clientPercentile is the mean over the clients of each client's own
// p-quantile latency, in ms. Pooling would let the client that completes
// more statements decide the percentile: in update_mix the writer completes
// twenty times as many as the reader, and a pooled p95 lands on the edge
// between the writer's tail and the reader's statements, where it jumps
// from run to run.
func (w window) clientPercentile(p float64) float64 {
	var sum float64
	for _, ss := range w.perClient {
		sum += percentile(latencies(ss, nil), p)
	}
	return sum / float64(len(w.perClient))
}

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// driveClients runs one closed-loop client per generator against addr: each
// sends its next statement only when the previous one has been answered.
// After warm, statements that start and complete within the next dur count
// as the window; clients stop issuing at its end.
func driveClients(addr string, gens []generator, warm, dur time.Duration, t *tally) (window, error) {
	conns := make([]*client.Conn, len(gens))
	for i := range gens {
		c, err := client.Connect(addr)
		if err != nil {
			return window{}, err
		}
		defer c.Close()
		conns[i] = c
	}
	w := window{start: time.Now().Add(warm)}
	w.end = w.start.Add(dur)
	w.perClient = make([][]sample, len(gens))
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			exec := connExecutor(conns[i])
			for time.Now().Before(w.end) {
				s := runStmt(exec, gens[i](), t)
				if !s.start.Before(w.start) && !s.start.Add(s.lat).After(w.end) {
					w.perClient[i] = append(w.perClient[i], s)
				}
			}
		}(i)
	}
	wg.Wait()
	return w, nil
}

// latencies returns the latencies in ms of the correct samples keep accepts
// (nil: all of them).
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && (keep == nil || keep(s)) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// countOps counts the statements, the writes among them and the reads the
// optimizer could answer with an index probe.
func countOps(samples []sample) (ops, updates, eligible float64) {
	for _, s := range samples {
		ops++
		if s.write {
			updates++
		}
		if s.eligible {
			eligible++
		}
	}
	return
}
