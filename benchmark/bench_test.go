package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
)

func smokeOptions(t *testing.T, workload string, trace bool) options {
	dir := t.TempDir()
	return options{workload: workload, seed: 7, seconds: 1, trace: trace, sc: smokeScale, workdir: dir, outdir: dir}
}

// Every workload, untraced and traced, at smoke scale: every defined metric
// is emitted exactly once with a finite value and no operation fails.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		for _, name := range workloadNames {
			rep, err := run(smokeOptions(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d defined", name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", name, trace, d.name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(rep.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", name, err)
				}
			}
		}
	}
}

// A deliberately corrupted expected answer, or a wrong update count, or an
// error, is caught and counted as failed.
func TestOracleCatchesCorruptedAnswer(t *testing.T) {
	m, err := parseAuction(docSpec{kind: "auction", a: 20, b: 20, c: 2}.generate(1))
	if err != nil {
		t.Fatal(err)
	}
	good := pointReads(m, streamRNG(1, 0), zipfKeys(streamRNG(1, 1), 20), zipfKeys(streamRNG(1, 2), 20))()
	answer := func(data string, upd int, err error) executor {
		return func(string) (string, int, error) { return data, upd, err }
	}
	tl := new(tally)
	if s := runStmt(answer(good.want, 0, nil), good, tl); !s.ok || tl.failed != 0 {
		t.Fatalf("correct answer rejected: %+v", s)
	}
	bad := good
	bad.want += "x"
	runStmt(answer(good.want, 0, nil), bad, tl)
	runStmt(answer("", 0, errors.New("boom")), good, tl)
	applied := false
	write := stmt{src: "UPDATE …", write: true, wantUpd: 1, apply: func() { applied = true }}
	runStmt(answer("", 0, nil), write, tl)
	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 3", tl.attempted, tl.failed)
	}
	if applied {
		t.Fatal("an unacknowledged write reached the oracle model")
	}
}

// streamOf returns the first n statement texts of each client of a wire
// workload, applying every write to the oracle as the driver would.
func streamOf(t *testing.T, w wireWorkload, seed int64, n int) []string {
	xml := make([]string, len(w.docs))
	for i, d := range w.docs {
		xml[i] = d.generate(seed*1000 + int64(i))
	}
	tr, err := w.traffic(xml, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, gen := range tr.clients {
		for i := 0; i < n; i++ {
			s := gen()
			if s.apply != nil {
				s.apply()
			}
			out = append(out, s.src, s.want)
		}
	}
	return out
}

// The same seed gives byte-identical statement streams and answers, another
// seed gives other streams.
func TestStreamsFollowTheSeed(t *testing.T) {
	equal := func(a, b []string) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) == len(b)
	}
	for _, w := range wireWorkloads(smokeScale) {
		a, b, c := streamOf(t, w, 3, 200), streamOf(t, w, 3, 200), streamOf(t, w, 4, 200)
		if !equal(a, b) {
			t.Errorf("%s: same seed, different streams", w.name)
		}
		if equal(a, c) {
			t.Errorf("%s: different seeds, same stream", w.name)
		}
	}
}

// The span-wrapped mirror answers byte for byte what Session.Execute
// answers, on every wire workload.
func TestMirrorMatchesSession(t *testing.T) {
	for _, w := range wireWorkloads(smokeScale) {
		opt := smokeOptions(t, w.name, true)
		tl := new(tally)
		sess, err := runPass(w, opt, passSession, new(recorder), tl)
		if err != nil {
			t.Fatal(err)
		}
		rec := new(recorder)
		mir, err := runPass(w, opt, passMirror, rec, tl)
		if err != nil {
			t.Fatal(err)
		}
		if tl.failed != 0 {
			t.Errorf("%s: %d statements failed", w.name, tl.failed)
		}
		if len(sess.digests) != smokeScale.traceStmts[w.name] || len(mir.digests) != len(sess.digests) {
			t.Fatalf("%s: %d session answers, %d mirror answers", w.name, len(sess.digests), len(mir.digests))
		}
		for i := range sess.digests {
			if sess.digests[i] != mir.digests[i] {
				t.Fatalf("%s: statement %d answered differently by the mirror", w.name, i)
			}
		}
		if roots := len(rec.durations(func(s *span) bool { return s.Parent < 0 })); roots != len(mir.digests) {
			t.Errorf("%s: %d root spans for %d statements", w.name, roots, len(mir.digests))
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics this package emits.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, metricsdef.go %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
}
