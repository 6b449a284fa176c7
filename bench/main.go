// Command bench is the repository benchmark: four workloads that load
// different layers of the system, each checked against an independent
// reference, reporting the end-to-end metrics listed in BENCHMARK.json (or,
// with -trace 1, its per-layer metrics from a separate traced run).
//
// Run it from the repository root through bench/run.sh, which builds it
// into .bench_build/:
//
//	bash bench/run.sh -workload all -seed 1 -json runs.json
//	bash bench/run.sh -workload compile -seed 2 -seconds 20 -trace 1
//	bash bench/run.sh -smoke
//	bash bench/run.sh -compare a1.json a2.json -- b1.json b2.json
//
// A single-workload run prints a human table and, as its last line, one
// JSON object with the keys correct, attempted, failed and metrics. It
// exits 1 when any output was wrong. -workload all runs each workload in a
// child process (so peak RSS is per workload) and prints every report.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one workload run's settings.
type runConfig struct {
	seed    int64
	seconds float64
	smoke   bool
	traced  bool
	tr      *tracer // non-nil exactly when traced
}

// duration is frac of the measured time.
func (c runConfig) duration(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// setupReps is how many times a run sets up: several for a steady
// setup_s median, once where setup_s is not reported.
func (c runConfig) setupReps() int {
	if c.smoke || c.traced {
		return 1
	}
	return 5
}

type workload struct {
	name string
	run  func(cfg runConfig, r *result) error
}

var workloads = []workload{
	{"compile", runCompile},
	{"stream", runStream},
	{"serve-open", runServeOpen},
	{"serve-http", runServeHTTP},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupMedian runs setup reps times, tearing down every instance but the
// last, and reports the median wall time as setup_s.
func setupMedian[T any](r *result, reps int, setup func() (T, error), teardown func(T)) (T, error) {
	var st T
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(st)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
		st = s
	}
	r.set("setup_s", "s", median(ds))
	r.Samples["setup"] = reps
	return st, nil
}

// opLog records a closed loop's operations: each one's latency and when
// it completed.
type opLog struct {
	start time.Time
	lat   []float64       // ms
	done  []time.Duration // completion, from start
}

func newOpLog() *opLog { return &opLog{start: time.Now()} }

// add records an operation that began at began and has just completed.
func (l *opLog) add(began time.Time) {
	now := time.Now()
	l.lat = append(l.lat, ms(now.Sub(began)))
	l.done = append(l.done, now.Sub(l.start))
}

// merge adds o's operations, keeping the log in completion order.
func (l *opLog) merge(o *opLog) {
	for i, d := range o.done {
		l.lat = append(l.lat, o.lat[i])
		l.done = append(l.done, d+o.start.Sub(l.start))
	}
	idx := make([]int, len(l.lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return l.done[idx[a]] < l.done[idx[b]] })
	lat, done := make([]float64, len(idx)), make([]time.Duration, len(idx))
	for i, j := range idx {
		lat[i], done[i] = l.lat[j], l.done[j]
	}
	l.lat, l.done = lat, done
}

// opMetrics records the per-operation end-to-end metrics of a closed loop:
// latency percentiles and throughput, each the median over consecutive
// chunks of the run aligned to group (see percentiles), and heap
// allocation per operation.
func (r *result) opMetrics(l *opLog, allocs uint64, relaxed bool, group int, qs ...float64) error {
	n := len(l.lat)
	if n == 0 {
		return errors.New("no operations completed")
	}
	k := numChunks(n, 0.5, group)
	b := chunkBounds(n, k, group)
	rates := make([]float64, k)
	for c := range rates {
		from := time.Duration(0)
		if b[c] > 0 {
			from = l.done[b[c]-1]
		}
		rates[c] = float64(b[c+1]-b[c]) / (l.done[b[c+1]-1] - from).Seconds()
	}
	r.set("throughput_per_s", "1/s", median(rates))
	r.Samples["throughput_chunks"] = k
	r.set("alloc_bytes_per_op", "B", float64(allocs)/float64(n))
	return r.percentiles("op_ms", "ms", l.lat, relaxed, group, qs...)
}

// traceOverhead reports how much slower the traced operations ran than
// the untraced baseline of the same run, at the median.
func (r *result) traceOverhead(base, traced []float64) {
	b, t := median(base), median(traced)
	r.set("trace_overhead_pct", "%", 100*(t-b)/b)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: compile, stream, serve-open, serve-http or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (0 = run_seconds from the spec)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, span table and a Chrome trace file")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>.json)")
	jsonOut := fs.String("json", "", "also write the full results to this file")
	smoke := fs.Bool("smoke", false, "run at tiny size, to check the benchmark works end to end")
	compare := fs.Bool("compare", false, "compare two sets of -json files: bench -compare a.json... -- b.json...")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark spec with the metric lists, units and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		return runCompare(s, fs.Args(), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(s.RunSeconds)
	}
	if *smoke {
		*seconds = 0.2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke, traced: *trace == 1}

	if *name == "all" {
		return runAll(s, cfg, args, *jsonOut, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if cfg.traced {
		cfg.tr = newTracer()
	}
	r := newResult(w.name, cfg)
	if err := w.run(cfg, r); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	r.set("peak_rss_mb", "MB", rss)
	if cfg.traced {
		spans := cfg.tr.snapshot()
		r.Layers = layerTable(spans)
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		if err := writeChrome(path, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "bench: wrote %d spans to %s\n", len(spans), path)
	}
	line, err := r.specMetrics(s)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, r); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	r.writeTable(stdout, s)
	out, err := json.Marshal(resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: line})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !r.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

// runAll runs every workload in a child process of this binary, relays
// each report, and merges the children's results into jsonOut.
func runAll(s *spec, cfg runConfig, args []string, jsonOut string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Dir(self), "runs-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	var results []*result
	status := 0
	for _, w := range workloads {
		part := filepath.Join(dir, w.name+".json")
		childArgs := append(withoutFlag(args, "workload", "json", "trace-out"), "-workload", w.name, "-json", part)
		cmd := exec.Command(self, childArgs...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		// Relay the child's table; its last line is its own result line.
		fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
		data, rerr := os.ReadFile(part)
		if rerr != nil {
			status = 1
			continue
		}
		r := &result{}
		if err := json.Unmarshal(data, r); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		results = append(results, r)
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	writeSummary(stdout, s, results, cfg.traced)
	return status
}

// withoutFlag drops the named flags (and their values) from args.
func withoutFlag(args []string, names ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		key, _, hasValue := strings.Cut(a, "=")
		drop := false
		for _, n := range names {
			if key == n && strings.HasPrefix(args[i], "-") {
				drop = true
			}
		}
		if drop {
			if !hasValue {
				i++
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// writeSummary prints one row per spec metric and one column per workload.
func writeSummary(w io.Writer, s *spec, results []*result, traced bool) {
	list := s.EndToEnd
	if traced {
		list = s.PerLayer
	}
	fmt.Fprintf(w, "%-26s %-8s", "metric", "unit")
	for _, r := range results {
		fmt.Fprintf(w, " %14s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, m := range list {
		fmt.Fprintf(w, "%-26s %-8s", m.Name, m.Unit)
		for _, r := range results {
			fmt.Fprintf(w, " %14.6g", r.Metrics[m.Name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-26s %-8s", "correct", "")
	for _, r := range results {
		fmt.Fprintf(w, " %14v", r.Correct && r.Failed == 0)
	}
	fmt.Fprintln(w)
}
