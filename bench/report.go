package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark reads: the metric lists
// a run reports, with their units and bounds. The file is the single
// source of names, units and bounds; the code only computes values.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end or per_layer metrics", path)
	}
	return &s, nil
}

// metric lookup by name across both lists.
func (s *spec) metric(name string) (specMetric, bool) {
	for _, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run measured. Metrics holds every
// number the run computed, spec metrics and workload-specific extras
// alike; the result line selects the spec's list from it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Samples   map[string]int    `json:"samples"`
	Metrics   map[string]metric `json:"metrics"`
	Errors    []string          `json:"errors,omitempty"`
	// Layers is the traced run's per-span-name table (empty untraced).
	Layers []layerRow `json:"layers,omitempty"`
}

func newResult(name string, cfg runConfig) *result {
	r := &result{
		Workload: name,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Traced:   cfg.traced,
		Correct:  true,
		Samples:  map[string]int{},
		Metrics:  map[string]metric{},
	}
	if cfg.traced {
		for _, c := range layerCounters {
			r.set(c.name, c.unit, 0)
		}
	}
	return r
}

// set records a metric. A value that is not a finite number (a median of
// no samples, a ratio over zero) is left out: a spec metric left out fails
// the run by name, an extra one is simply not reported.
func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed operation with its reason.
func (r *result) fail(err error) { r.failures(1, []error{err}) }

// failures adds n failed operations counted elsewhere, with some reasons.
func (r *result) failures(n int64, errs []error) {
	if n == 0 {
		return
	}
	r.Failed += n
	for _, err := range errs {
		r.invariant(err)
	}
	r.Correct = false
}

// invariant records a broken whole-run property (not an operation). The
// first few reasons are kept for the report.
func (r *result) invariant(err error) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// layerCounters are per-layer counters of layers only some workloads
// reach. A traced run starts them at 0, so a workload that never reaches
// the layer reports that it did no work there.
var layerCounters = []struct{ name, unit string }{
	{"coalesce.fill_ratio", "ratio"},
	{"coalesce.timer_flush_share", "ratio"},
	{"registry.hit_ratio", "ratio"},
	{"registry.evictions", "count"},
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted xs and how many
// samples lie beyond it.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// maxChunks bounds how many consecutive chunks a run's samples split into.
const maxChunks = 10

// numChunks is how many chunks of whole groups (operations that only make
// sense together, such as one round of the compile workload's three
// kernels) n samples split into while each chunk keeps its q-quantile
// minBeyond samples deep; at least one.
func numChunks(n int, q float64, group int) int {
	per := int(math.Ceil(float64(minBeyond)/(1-q) - 1e-9))
	perGroups := (per + group - 1) / group
	return max(1, min(maxChunks, n/group/perGroups))
}

// chunkBounds splits n samples into k consecutive chunks of whole groups;
// the last chunk also takes any incomplete group.
func chunkBounds(n, k, group int) []int {
	b := make([]int, k+1)
	for c := 1; c < k; c++ {
		b[c] = c * (n / group) / k * group
	}
	b[k] = n
	return b
}

// percentiles reports the given quantiles of xs (samples in the order they
// were taken) under names prefix+"_p50" etc. For each quantile the samples
// split into numChunks consecutive chunks (aligned to group) and the
// reported value is the median over chunks of the chunk's quantile, so a
// slow spell of a shared host that covers a few chunks does not move it;
// with one chunk it is the plain quantile. A quantile with fewer than
// minBeyond samples beyond it in a chunk is refused unless relaxed.
func (r *result) percentiles(prefix, unit string, xs []float64, relaxed bool, group int, qs ...float64) error {
	n := len(xs)
	r.Samples[prefix] = n
	for _, q := range qs {
		name := fmt.Sprintf("%s_p%s", prefix, strconv.FormatFloat(q*100, 'f', -1, 64))
		k := numChunks(n, q, group)
		b := chunkBounds(n, k, group)
		vals := make([]float64, k)
		for c := range vals {
			chunk := slices.Clone(xs[b[c]:b[c+1]])
			sort.Float64s(chunk)
			v, beyond := quantile(chunk, q)
			if beyond < minBeyond && !relaxed {
				return fmt.Errorf("%s: p%g has %d samples beyond it (of %d), need %d: run longer",
					prefix, q*100, beyond, len(chunk), minBeyond)
			}
			vals[c] = v
		}
		r.set(name, unit, median(vals))
		r.Samples[name+"_chunks"] = k
	}
	return nil
}

// median of xs (sorted in place); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) in its default
// exclusive method — the spread definition the benchmark's bounds refer to.
// xs must hold at least two values; it is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resultLine is the last line a run prints, for tools that read it: exactly
// these four keys, metrics restricted to the spec's list for the run mode.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// specMetrics selects the spec's metrics from r, checking that the run
// produced each one in the unit the spec declares.
func (r *result) specMetrics(s *spec) (map[string]metric, error) {
	list := s.EndToEnd
	if r.Traced {
		list = s.PerLayer
	}
	out := make(map[string]metric, len(list))
	for _, sm := range list {
		m, ok := r.Metrics[sm.Name]
		if !ok {
			return nil, fmt.Errorf("%s: run produced no %q metric", r.Workload, sm.Name)
		}
		if m.Unit != sm.Unit {
			return nil, fmt.Errorf("%s: metric %q measured in %q, spec says %q", r.Workload, sm.Name, m.Unit, sm.Unit)
		}
		out[sm.Name] = m
	}
	return out, nil
}

// writeTable prints the human report: every metric with its unit, spec
// metrics first, then the traced run's per-layer table.
func (r *result) writeTable(w io.Writer, s *spec) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %gs, %s) attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		_, ci := s.metric(names[i])
		_, cj := s.metric(names[j])
		if ci != cj {
			return ci
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := r.Metrics[name]
		tag := "extra"
		if _, ok := s.metric(name); ok {
			tag = "spec"
		}
		fmt.Fprintf(w, "   %-5s %-32s %16.6g %s\n", tag, name, m.Value, m.Unit)
	}
	sampleNames := make([]string, 0, len(r.Samples))
	for name := range r.Samples {
		sampleNames = append(sampleNames, name)
	}
	sort.Strings(sampleNames)
	for _, name := range sampleNames {
		fmt.Fprintf(w, "   samples %-30s %d\n", name, r.Samples[name])
	}
	if len(r.Layers) > 0 {
		writeLayers(w, r.Layers)
	}
}
