package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/bench"
	"sedna/internal/core"
	"sedna/internal/repl"
	"sedna/internal/server"
)

// waitReplicaConverged polls until the replica answers q with want.
func waitReplicaConverged(rep *repl.Replica, q, want string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		got, _, err := bench.Query(rep.DB(), q, nil)
		if err == nil && got == want {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("replica did not converge on %q (state %q, last error %q)",
		q, rep.Status().State, rep.Status().LastError)
}

// runE20 measures what replication buys and costs: aggregate read
// throughput as read replicas are added (0, 1, 2 — each new node seeds
// itself over the wire from a hot backup, then streams the log), and
// replication lag under a single-writer storm on the primary. Readers
// round-robin over all live nodes; results are checked identical on every
// node before each level is measured. The lag section samples the
// primary's per-replica lag (durable LSN minus acknowledged LSN) while the
// storm runs, then times how long the replicas take to drain back to a
// converged state once the writer stops.
func runE20(s *session) error {
	dir, cleanup, err := bench.TempDir("sedna-e20-*")
	if err != nil {
		return err
	}
	defer cleanup()

	pdb, err := bench.OpenDB(dir)
	if err != nil {
		return err
	}
	defer pdb.Close()
	if err := bench.LoadSections(pdb, 6, 400*s.scale); err != nil {
		return err
	}
	srv, err := server.Listen(pdb.Internal(), "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()

	q := `count(doc("cat")//item)`
	want, _, err := bench.Query(pdb.Internal(), q, nil)
	if err != nil {
		return err
	}

	var replicas []*repl.Replica
	defer func() {
		for _, r := range replicas {
			r.Stop()
			r.DB().Close()
		}
	}()

	const readers = 8
	window := 500 * time.Millisecond

	var rows [][]string
	var baseQPS float64
	for _, nrep := range []int{0, 1, 2} {
		for len(replicas) < nrep {
			rdir, rcleanup, err := bench.TempDir("sedna-e20-replica-*")
			if err != nil {
				return err
			}
			defer rcleanup()
			rep, err := repl.Start(rdir, srv.Addr(), core.Options{NoSync: true, BufferPages: 8192})
			if err != nil {
				return err
			}
			replicas = append(replicas, rep)
			if err := waitReplicaConverged(rep, q, want); err != nil {
				return err
			}
		}
		nodes := []*core.Database{pdb.Internal()}
		for _, r := range replicas {
			nodes = append(nodes, r.DB())
		}

		var done int64
		var firstErr atomic.Value
		stop := time.Now().Add(window)
		var wg sync.WaitGroup
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; time.Now().Before(stop); i++ {
					got, _, err := bench.Query(nodes[i%len(nodes)], q, nil)
					if err != nil || got != want {
						firstErr.CompareAndSwap(nil, fmt.Errorf("reader on node %d: got %q err %v", i%len(nodes), got, err))
						return
					}
					atomic.AddInt64(&done, 1)
				}
			}(w)
		}
		wg.Wait()
		if err, _ := firstErr.Load().(error); err != nil {
			return err
		}
		qps := float64(done) / window.Seconds()
		if nrep == 0 {
			baseQPS = qps
		}
		rows = append(rows, []string{
			fmt.Sprint(nrep), fmt.Sprint(nrep + 1), fmt.Sprint(readers),
			fmt.Sprintf("%.0f", qps), fmt.Sprintf("%.2fx", qps/baseQPS),
		})
	}
	table(
		[]string{"replicas", "nodes", "readers", "reads/s", "scaling"},
		rows,
	)

	// Writer storm: hammer the primary with single-statement transactions
	// and watch replica lag rise and drain. Lag is the primary's view:
	// durable LSN minus the slowest replica's acknowledged LSN.
	if _, err := pdb.Execute(`CREATE DOCUMENT "storm"`); err != nil {
		return err
	}
	if _, err := pdb.Execute(`UPDATE insert <r/> into doc("storm")`); err != nil {
		return err
	}
	primary := srv.Governor().Primary()
	stormStmts := 200 * s.scale
	var maxLag uint64
	sampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-sampler:
				return
			case <-time.After(5 * time.Millisecond):
				for _, st := range primary.Status() {
					if st.LagLSNs > maxLag {
						maxLag = st.LagLSNs
					}
				}
			}
		}
	}()
	stormStart := time.Now()
	for i := 0; i < stormStmts; i++ {
		if _, err := pdb.Execute(fmt.Sprintf(`UPDATE insert <s>%d</s> into doc("storm")/r`, i)); err != nil {
			close(sampler)
			samplerWG.Wait()
			return err
		}
	}
	stormDur := time.Since(stormStart)
	close(sampler)
	samplerWG.Wait()

	countQ := `count(doc("storm")/r/s)`
	wantCount, _, err := bench.Query(pdb.Internal(), countQ, nil)
	if err != nil {
		return err
	}
	drainStart := time.Now()
	for _, r := range replicas {
		if err := waitReplicaConverged(r, countQ, wantCount); err != nil {
			return err
		}
	}
	drain := time.Since(drainStart)
	shipped := pdb.Metrics().Counter("repl.records_shipped").Value()
	var applied uint64 // each replica counts applies in its own registry
	for _, r := range replicas {
		applied += r.DB().Metrics().Counter("repl.txns_applied").Value()
	}
	fmt.Printf("writer storm: %d txns in %s (%.0f txn/s), peak lag %d log bytes, drained to converged in %s; shipped %d records, applied %d txns across %d replicas\n",
		stormStmts, stormDur.Round(time.Millisecond),
		float64(stormStmts)/stormDur.Seconds(), maxLag, drain.Round(time.Millisecond),
		shipped, applied, len(replicas))
	fmt.Println("expected shape: on one host every node shares the same cores, so aggregate reads/s stays roughly flat as replicas are added — the scaling column is measuring distribution overhead (apply work stealing reader CPU), which should stay small; on separate hosts the same topology scales reads near-linearly; peak lag stays bounded during the storm and drains to converged within tens of milliseconds once the writer stops; every node answers identically at every level")
	return nil
}
