// Command benchmark is the repository's regression benchmark: four
// statement-level workloads against a default-configured database, three
// through the wire server and one through the embedded API, each checked
// against an oracle computed from the generated XML. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"sedna/client"
	"sedna/internal/metrics"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sc       scale
	workdir  string // databases live here; removed when the run ends
	outdir   string // reports and trace-<workload>.jsonl
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type classStat struct {
	N     int     `json:"n"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
}

type selfCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// report is the JSON file a run leaves in the output directory.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Engine   string `json:"engine"`
	result
	// Samples is the number of observations behind each metric.
	Samples map[string]int       `json:"samples"`
	Classes map[string]classStat `json:"classes,omitempty"`
	// Layers holds, for an untraced run, the registry-derived per-layer
	// numbers of the two-client timed window. They are informational: the
	// per-layer metrics proper come from the single-client traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
	Checks []selfCheck        `json:"self_checks"`
	// TraceFile is the span file of a traced run.
	TraceFile string `json:"trace_file,omitempty"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim any `json:"claim"`
}

const engineConfig = "default sedna.Options: 2048 buffer pages (32 MiB), fsync per commit with group commit, " +
	"resident switch off / advisor on, QueryWorkers 0, PrefetchDepth 0, BulkLoadAuto; 2 closed-loop client.Conn connections"

func newReport(opt options) *report {
	return &report{Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.trace,
		Engine: engineConfig, Samples: map[string]int{}, result: result{Metrics: map[string]metricValue{}}}
}

// set stores a metric with the unit its definition gives it.
func (r *report) set(defs []metricDef, name string, v float64, samples int) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			r.Samples[name] = samples
			return
		}
	}
	panic("benchmark: undefined metric " + name)
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, selfCheck{name, ok, fmt.Sprintf(format, args...)})
}

// setEndToEnd stores the eight end-to-end metrics: medians over the run's
// set-ups (or cycles), and the timed window's ops correct operations in
// seconds with the given latency percentiles.
func (r *report) setEndToEnd(setups, ingest, recovery, disk []float64, ops int, seconds, p50, p95, peakMB float64) {
	r.set(endToEnd, "setup_s", median(setups), len(setups))
	r.set(endToEnd, "throughput_ops_s", float64(ops)/seconds, ops)
	r.set(endToEnd, "latency_p50_ms", p50, ops)
	r.set(endToEnd, "latency_p95_ms", p95, ops)
	r.set(endToEnd, "peak_mem_mb", peakMB, 1)
	r.set(endToEnd, "ingest_mb_s", median(ingest), len(ingest))
	r.set(endToEnd, "recovery_s", median(recovery), len(recovery))
	r.set(endToEnd, "disk_bytes_per_xml_byte", median(disk), len(disk))
}

// finish settles correctness: no failed operation, and every defined metric
// present with a finite value.
func (r *report) finish(defs []metricDef, t *tally) {
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.failed == 0 && t.attempted > 0
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "FAILED: metric %s missing or not finite\n", d.name)
			r.Correct = false
		}
	}
}

func (r *report) setClasses(samples []sample) {
	by := map[string][]float64{}
	for _, s := range samples {
		if s.ok {
			by[s.class] = append(by[s.class], ms(s.lat))
		}
	}
	r.Classes = map[string]classStat{}
	for c, xs := range by {
		r.Classes[c] = classStat{N: len(xs), P50Ms: median(xs), P95Ms: percentile(xs, 0.95)}
	}
}

// print writes the human-readable summary to standard error.
func (r *report) print(defs []metricDef) {
	w := os.Stderr
	mode := "untraced, end-to-end"
	if r.Traced {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  (%s) ==\n", r.Workload, r.Seed, mode)
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", d.name, m.Value, m.Unit, r.Samples[d.name])
	}
	if len(r.Classes) > 0 {
		names := make([]string, 0, len(r.Classes))
		for c := range r.Classes {
			names = append(names, c)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "  statement classes:")
		for _, c := range names {
			s := r.Classes[c]
			fmt.Fprintf(w, "    %-18s n=%-6d p50=%9.3f ms  p95=%9.3f ms\n", c, s.N, s.P50Ms, s.P95Ms)
		}
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  self-check %s %s: %s\n", verdict, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
}

func (r *report) write(outdir string) error {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	name := "report-" + r.Workload + ".json"
	if r.Traced {
		name = "report-" + r.Workload + "-trace.json"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outdir, name), append(data, '\n'), 0o644)
}

func run(opt options) (*report, error) {
	opt.workdir = filepath.Join(opt.workdir, fmt.Sprintf("%s-%d", opt.workload, os.Getpid()))
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(opt.workdir)
	if opt.workload == "ingest_recover" {
		if opt.trace {
			return traceIngest(opt)
		}
		return runIngest(opt)
	}
	w, ok := findWire(opt.sc, opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames)
	}
	if opt.trace {
		return traceWire(w, opt)
	}
	return runWire(w, opt)
}

// runWire is the untraced run of a wire workload: set up (several times, for
// the set-up median), prime, then two closed-loop clients for the warm-up
// and the timed window, then the end-state checks.
func runWire(w wireWorkload, opt options) (*report, error) {
	mem := startMemSampler()
	defer mem.close()
	rep := newReport(opt)
	var setups, ingest, recovery, disk, setupPeaks []float64
	var in *instance
	var xml []string
	for i := 0; i < opt.sc.setups; i++ {
		if in != nil {
			if _, err := in.tearDown(); err != nil {
				return nil, err
			}
		}
		settle()
		var err error
		if in, xml, err = setUp(w, filepath.Join(opt.workdir, "db"+strconv.Itoa(i)), opt.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, in.setup.Seconds())
		ingest = append(ingest, float64(in.xmlBytes)/1e6/in.load.Seconds())
		recovery = append(recovery, in.recover.Seconds())
		disk = append(disk, float64(in.diskBytes)/float64(in.xmlBytes))
		setupPeaks = append(setupPeaks, mem.mark())
	}
	tr, err := w.traffic(xml, opt.seed)
	if err != nil {
		return nil, err
	}
	xml = nil // the oracle models are built; let settle free the corpus text
	settle()

	t := new(tally)
	pc, err := client.Connect(in.srv.Addr())
	if err != nil {
		return nil, err
	}
	prime(connExecutor(pc), w.docs, t)
	pc.Close()

	atStart := make(chan metrics.Snapshot, 1)
	time.AfterFunc(opt.sc.warmup, func() { atStart <- in.reg.Snapshot() })
	win, err := driveClients(in.srv.Addr(), tr.clients, opt.sc.warmup, time.Duration(opt.seconds)*time.Second, t)
	if err != nil {
		return nil, err
	}
	d := diff(<-atStart, in.reg.Snapshot())
	for _, s := range tr.final() {
		t.note(expect(in.db, s))
	}
	if _, err := in.tearDown(); err != nil {
		return nil, err
	}

	samples := win.samples()
	rep.setEndToEnd(setups, ingest, recovery, disk, len(latencies(samples, nil)), win.seconds(),
		win.clientPercentile(0.5), win.clientPercentile(0.95), peakOf(setupPeaks, []float64{mem.mark()}))
	rep.setClasses(samples)
	ops, updates, eligible := countOps(samples)
	rep.Layers = d.layerCounts(ops, updates, eligible)
	w.selfChecks(rep, int(ops))
	rep.finish(endToEnd, t)
	return rep, nil
}

// runAll runs every workload in a process of its own, so that one
// workload's memory and caches never reach the next.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadNames {
		cmd := exec.Command(self, append([]string{"--workload", name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
	}
	return nil
}

func main() {
	var opt options
	var trace int
	var smoke bool
	flag.StringVar(&opt.workload, "workload", "", "point_read | scan_analytic | update_mix | ingest_recover (default: each in turn)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated corpus and statement streams")
	flag.IntVar(&opt.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics")
	flag.BoolVar(&smoke, "smoke", false, "tiny corpora (what the tests run)")
	flag.StringVar(&opt.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for the databases")
	flag.StringVar(&opt.outdir, "outdir", filepath.Join("benchmark", "out"), "directory for reports and trace files")
	flag.Parse()
	opt.trace = trace != 0
	opt.sc = fullScale
	if smoke {
		opt.sc = smokeScale
	}
	if opt.workload == "" {
		var pass []string
		flag.Visit(func(f *flag.Flag) { pass = append(pass, "--"+f.Name+"="+f.Value.String()) })
		if err := runAll(pass); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	rep.print(defs)
	if err := rep.write(opt.outdir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
