// Command sedna-bench runs the experiment suite of DESIGN.md (E1–E16) and
// prints one comparison table per experiment — the reproduction of every
// performance claim the paper makes in prose, each against the baseline the
// paper positions itself against. Absolute numbers depend on the host; the
// shapes (who wins, by roughly what factor) are the reproduction target
// recorded in EXPERIMENTS.md.
//
//	sedna-bench            # run everything
//	sedna-bench -run E3    # one experiment
//	sedna-bench -scale 2   # larger corpora
//	sedna-bench -json out.json   # also write machine-readable results
//
// With -json, the result file carries one record per experiment plus a full
// metrics-registry snapshot, so BENCH_*.json files record the internals
// trajectory (buffer faults, WAL fsyncs, lock waits, ...) of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sedna/internal/metrics"
)

type experiment struct {
	id   string
	name string
	run  func(s *session) error
}

type session struct {
	scale int
	// parallel is the maximum reader fan-out used by the concurrency
	// experiment (E17); levels run at 1, 2, 4, ... up to this value.
	parallel int
	out      *tableWriter
	// reg accumulates internals metrics across every database the
	// experiments open; it is embedded in the -json result.
	reg *metrics.Registry
}

// expResult is one experiment's outcome in the -json report.
type expResult struct {
	ID      string  `json:"id"`
	Name    string  `json:"name"`
	OK      bool    `json:"ok"`
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`
}

// benchReport is the -json file layout.
type benchReport struct {
	Scale       int              `json:"scale"`
	Experiments []expResult      `json:"experiments"`
	Metrics     metrics.Snapshot `json:"metrics"`
}

var experiments []experiment

func main() {
	runFilter := flag.String("run", "", "run only experiments whose id contains this string")
	scale := flag.Int("scale", 1, "corpus scale factor")
	parallel := flag.Int("parallel", 8, "maximum reader fan-out for the concurrency experiment (E17)")
	jsonOut := flag.String("json", "", "write machine-readable results (experiments + metrics snapshot) to this file")
	flag.Parse()
	if *parallel < 1 {
		*parallel = 1
	}

	s := &session{scale: *scale, parallel: *parallel, out: &tableWriter{}, reg: metrics.NewRegistry()}
	var results []expResult
	failed := 0
	for _, e := range experiments {
		if *runFilter != "" && !strings.Contains(e.id, *runFilter) {
			continue
		}
		fmt.Printf("\n=== %s — %s ===\n", e.id, e.name)
		start := time.Now()
		err := e.run(s)
		elapsed := time.Since(start)
		r := expResult{ID: e.id, Name: e.name, OK: err == nil, Seconds: elapsed.Seconds()}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			r.Error = err.Error()
			failed++
		} else {
			fmt.Printf("(%s)\n", elapsed.Round(time.Millisecond))
		}
		results = append(results, r)
	}
	if *jsonOut != "" {
		report := benchReport{Scale: *scale, Experiments: results, Metrics: s.reg.Snapshot()}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sedna-bench: encode json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sedna-bench: write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *jsonOut)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// tableWriter prints aligned rows.
type tableWriter struct{}

func (t *tableWriter) table(headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			fmt.Fprintf(&sb, "  %-*s", widths[i], c)
		}
		fmt.Println(sb.String())
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

func dur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// timeIt runs fn `reps` times and returns the average duration.
func timeIt(reps int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(reps), nil
}
