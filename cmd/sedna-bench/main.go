// Command sedna-bench runs the E-series of EXPERIMENTS.md and prints one
// comparison table per experiment: each prose performance claim of the
// paper against the baseline the paper positions itself against. Absolute
// numbers depend on the host; the shapes (who wins, by roughly what factor)
// are the reproduction target. The engine's counter guards are go tests in
// the packages that own the counters.
//
//	sedna-bench               # run every experiment
//	sedna-bench -run E3,E12   # the experiments with these ids
//	sedna-bench -scale 2      # larger corpora
//
// Every database an experiment opens reports into a metrics registry of its
// own, so a counter an experiment reads counts that experiment's work alone.
// The run exits 1 if any experiment fails; E9 also fails when its two
// constructors serialize differently.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

type experiment struct {
	id   string
	name string
	run  func(s *session) error
}

type session struct {
	scale int
}

var experiments = []experiment{
	{"E1", "schema-driven vs subtree-based clustering (§2, §4.1)", runE1},
	{"E2", "relabel-free numbering vs XISS intervals (§4.1.1)", runE2},
	{"E3", "layer-mapped dereference vs pointer swizzling (§4.2)", runE3},
	{"E4", "indirect parent pointers: move cost vs fan-out (§4.1)", runE4},
	{"E5", "DDO elimination (§5.1.1)", runE5},
	{"E6", "descendant-or-self combining (§5.1.2)", runE6},
	{"E7", "lazy invariant for-clauses (§5.1.3)", runE7},
	{"E8", "structural-path extraction (§5.1.4)", runE8},
	{"E9", "virtual vs deep-copy constructors (§5.2.1)", runE9},
	{"E10", "snapshot readers vs S2PL readers under an updater (§6.3)", runE10},
	{"E11", "snapshot creation cost (§6.1/§6.3)", runE11},
	{"E12", "version retention cost under active snapshots (§6.1)", runE12},
	{"E13", "two-step recovery time vs redo-log length (§6.4)", runE13},
	{"E14", "full vs incremental hot backup (§6.5)", runE14},
	{"E15", "descriptive-schema conciseness (§4.1)", runE15},
	{"E16", "delayed per-block descriptor widening (§4.1)", runE16},
	{"E17", "concurrent-read scaling + group commit (§4.2, §6.3, §6.4)", runE17},
}

func main() {
	runList := flag.String("run", "", "comma-separated experiment ids to run (default: all)")
	scale := flag.Int("scale", 1, "corpus scale factor")
	flag.Parse()

	selected := experiments
	if *runList != "" {
		selected = nil
	next:
		for _, id := range strings.Split(*runList, ",") {
			for _, e := range experiments {
				if e.id == strings.TrimSpace(id) {
					selected = append(selected, e)
					continue next
				}
			}
			fmt.Fprintf(os.Stderr, "sedna-bench: no experiment %q\n", id)
			os.Exit(2)
		}
	}

	s := &session{scale: *scale}
	failed := 0
	for _, e := range selected {
		fmt.Printf("\n=== %s — %s ===\n", e.id, e.name)
		start := time.Now()
		if err := e.run(s); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			failed++
			continue
		}
		fmt.Printf("(%s)\n", time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// table prints aligned rows under headers.
func table(headers []string, rows [][]string) {
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
