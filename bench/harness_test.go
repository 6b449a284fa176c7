package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {0.001, 1, 99}} {
		v, beyond := quantile(xs, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(1..100, %g) = %g with %d beyond, want %g with %d", c.q, v, beyond, c.v, c.beyond)
		}
	}
}

func TestPercentilesGuardSamplesBeyond(t *testing.T) {
	r := newResult("w", runConfig{})
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if err := r.percentiles("op_ms", "ms", xs, false, 1, 0.5, 0.9); err != nil {
		t.Fatalf("p90 of 100 samples has 10 beyond, want accepted: %v", err)
	}
	if got := r.Metrics["op_ms_p90"]; got.Value != 90 || got.Unit != "ms" {
		t.Errorf("op_ms_p90 = %+v, want 90 ms", got)
	}
	if r.Samples["op_ms"] != 100 {
		t.Errorf("sample count %d, want 100", r.Samples["op_ms"])
	}
	err := r.percentiles("op_ms", "ms", xs[:99], false, 1, 0.9)
	if err == nil || !strings.Contains(err.Error(), "9 samples beyond") {
		t.Errorf("p90 of 99 samples: err = %v, want a refusal naming 9 samples beyond", err)
	}
	if err := r.percentiles("op_ms", "ms", xs[:3], true, 1, 0.9); err != nil {
		t.Errorf("relaxed (smoke) percentiles refused: %v", err)
	}
}

func TestChunkedPercentilesIgnoreASlowSpell(t *testing.T) {
	// 1000 operations of 1 ms, except a contiguous 15% slowed to 5 ms by
	// the host: pooled, p90 would read 5 ms; the median over ten chunks of
	// the chunk p90 reads the machine's normal 1 ms.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
		if i >= 400 && i < 550 {
			xs[i] = 5
		}
	}
	r := newResult("w", runConfig{})
	if err := r.percentiles("op_ms", "ms", xs, false, 1, 0.5, 0.9); err != nil {
		t.Fatal(err)
	}
	if r.Samples["op_ms_p90_chunks"] != 10 || r.Metrics["op_ms_p90"].Value != 1 || r.Metrics["op_ms_p50"].Value != 1 {
		t.Errorf("chunks %d, p50 %g, p90 %g: want 10 chunks reading 1 ms",
			r.Samples["op_ms_p90_chunks"], r.Metrics["op_ms_p50"].Value, r.Metrics["op_ms_p90"].Value)
	}
	if b := chunkBounds(150, 7, 3); b[1] != 21 || b[2] != 42 || b[3] != 63 || b[7] != 150 {
		t.Errorf("chunk bounds of 150 in 7 aligned to 3: %v", b)
	}
	if k := numChunks(999, 0.99, 1); k != 1 {
		t.Errorf("999 samples at p99: %d chunks, want 1", k)
	}
	// 150 compile operations in rounds of 3: chunks of at least 7 whole
	// rounds (21 operations) keep p50 ten samples deep.
	if k := numChunks(150, 0.5, 3); k != 7 {
		t.Errorf("150 samples at p50 in groups of 3: %d chunks, want 7", k)
	}
	r = newResult("w", runConfig{})
	ys := make([]float64, 150)
	for i := range ys {
		ys[i] = float64(i % 3)
	}
	if err := r.percentiles("op_ms", "ms", ys, false, 3, 0.5); err != nil {
		t.Errorf("grouped chunks too shallow: %v", err)
	}
}

func TestOpLogThroughputAndMerge(t *testing.T) {
	// Two clients each completing an operation every 10 ms for 10 s; one
	// client stalls for 3 s midway (no completions), which the chunk
	// median of the completion rate does not see.
	mk := func(offset time.Duration, stall bool) *opLog {
		l := &opLog{start: time.Unix(0, 0)}
		for t := offset; t < 10*time.Second; t += 10 * time.Millisecond {
			if stall && t >= 4*time.Second && t < 7*time.Second {
				continue
			}
			l.lat = append(l.lat, 10)
			l.done = append(l.done, t)
		}
		return l
	}
	all := mk(5*time.Millisecond, false)
	all.merge(mk(10*time.Millisecond, true))
	for i := 1; i < len(all.done); i++ {
		if all.done[i] < all.done[i-1] {
			t.Fatalf("merged log out of completion order at %d", i)
		}
	}
	r := newResult("w", runConfig{})
	if err := r.opMetrics(all, 0, true, 1, 0.5, 0.9); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["throughput_per_s"].Value; math.Abs(got-200) > 10 {
		t.Errorf("throughput %g/s, want about 200 (two clients at 100/s each)", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestPoissonScheduleDeterministicPerSeed(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 10000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 10000, time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 10000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 9500 || n > 10500 {
		t.Errorf("%d arrivals in 1 s at 10000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d at %v after %v: not increasing within the step", i, a[i], a[i-1])
		}
	}
}

func TestStepLatencyCountsFromDueTime(t *testing.T) {
	// 100 requests due every 1 ms, each served in 0.1 ms after it is sent.
	// The generator stalls 3 ms on request 50, so requests 50..52 go out
	// together at 53 ms: their latency must include the wait since due.
	n := 100
	st := stepTimes{due: make([]time.Duration, n), sent: make([]time.Duration, n), done: make([]time.Duration, n)}
	for i := range st.due {
		st.due[i] = time.Duration(i) * time.Millisecond
		st.sent[i] = st.due[i]
		if i >= 50 && i <= 52 {
			st.sent[i] = 53 * time.Millisecond
		}
		st.done[i] = st.sent[i] + 100*time.Microsecond
	}
	s := summarizeStep(st, 100*time.Millisecond, 5)
	if s.P50MS != 0.1 {
		t.Errorf("p50 = %g ms, want 0.1", s.P50MS)
	}
	if math.Abs(s.P99MS-2.1) > 1e-9 {
		t.Errorf("p99 = %g ms, want 2.1 (the stalled requests timed from due)", s.P99MS)
	}
	if s.LateP99MS != 2 || s.LateP50MS != 0 {
		t.Errorf("lateness p50/p99 = %g/%g ms, want 0/2", s.LateP50MS, s.LateP99MS)
	}
	if s.Completed != 1 || s.GeneratorBound || !s.Pass {
		t.Errorf("step %+v: want completed, not generator-bound, passing", s)
	}

	// The same stall at 4 ms exceeds half the 5 ms limit: generator-bound.
	for i := 50; i <= 52; i++ {
		st.sent[i] = 54 * time.Millisecond
		st.done[i] = st.sent[i] + 100*time.Microsecond
	}
	if s := summarizeStep(st, 100*time.Millisecond, 5); !s.GeneratorBound || s.Pass {
		t.Errorf("lateness p99 %g ms against a 5 ms limit: want generator-bound, not passing", s.LateP99MS)
	}

	// Requests finishing after the step plus its grace are backlog.
	for i := 90; i < n; i++ {
		st.done[i] = 100*time.Millisecond + drainGrace + time.Millisecond
	}
	if s := summarizeStep(st, 100*time.Millisecond, 1000); s.Completed != 0.9 || s.Pass {
		t.Errorf("completed %g, pass %v: want 0.9, failing", s.Completed, s.Pass)
	}
}

func TestClimbLadderStopRule(t *testing.T) {
	var offered []float64
	step := func(limit float64, boundAt float64) func(rate float64) stepSummary {
		offered = nil
		return func(rate float64) stepSummary {
			offered = append(offered, rate)
			s := stepSummary{Pass: rate <= limit}
			if rate >= boundAt {
				s.GeneratorBound, s.Pass = true, false
			}
			return s
		}
	}
	best, steps := climbLadder(100, 2, 10, step(500, math.Inf(1)))
	if best != 400 || len(steps) != 4 || !reflect.DeepEqual(offered, []float64{100, 200, 400, 800}) {
		t.Errorf("limit 500: best %g after %v, want 400 after 100 200 400 800", best, offered)
	}
	best, _ = climbLadder(100, 2, 10, step(1e9, 400))
	if best != 200 || !reflect.DeepEqual(offered, []float64{100, 200, 400}) {
		t.Errorf("generator-bound at 400: best %g after %v, want 200 after 100 200 400", best, offered)
	}
	best, steps = climbLadder(100, 2, 3, step(1e9, math.Inf(1)))
	if best != 400 || len(steps) != 3 {
		t.Errorf("max 3 steps: best %g after %d steps, want 400 after 3", best, len(steps))
	}
	if best, _ = climbLadder(100, 2, 10, step(50, math.Inf(1))); best != 0 {
		t.Errorf("first step failing: best %g, want 0", best)
	}
}

func TestSelfTimeNestedAndSiblingSpans(t *testing.T) {
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(4)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(3), End: ms(6)},    // overlaps sibling a
		{ID: 4, Parent: 1, Name: "c", Start: ms(8), End: ms(12)},   // sticks out of op
		{ID: 5, Parent: 2, Name: "a1", Start: ms(2), End: ms(3)},   // nested in a
		{ID: 6, Parent: 2, Name: "a2", Start: ms(2.5), End: ms(3)}, // inside sibling a1
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: ms(3), 2: ms(2), 3: ms(3), 4: ms(4), 5: ms(1), 6: ms(0.5)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	rows := layerTable(spans)
	if len(rows) != 6 || rows[0].Name != "a" || rows[0].SelfMS != 2 || rows[0].TotalMS != 3 {
		t.Errorf("layer table %+v", rows)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	s := &spec{
		EndToEnd: []specMetric{{Name: "op_ms_p50", Unit: "ms", Better: "lower"}, {Name: "setup_s", Unit: "s", Better: "lower"}},
		PerLayer: []specMetric{{Name: "mapping.map_ms", Unit: "ms", Better: "lower"}},
	}
	r := newResult("compile", runConfig{seed: 3, seconds: 2})
	r.Attempted = 12
	r.set("op_ms_p50", "ms", 1.2034567891234567)
	r.set("setup_s", "s", 0.8127)
	r.set("extra_metric", "count", 7)
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeJSON(path, r); err != nil {
		t.Fatal(err)
	}
	runs, err := loadRuns([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || !reflect.DeepEqual(runs[0].Metrics, r.Metrics) || runs[0].Seed != 3 {
		t.Fatalf("round trip changed the result: %+v", runs)
	}

	line, err := r.specMetrics(s)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: line})
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 || back["correct"] == nil || back["attempted"] == nil || back["failed"] == nil || back["metrics"] == nil {
		t.Errorf("result line keys: %s", data)
	}
	if !strings.Contains(string(data), `"op_ms_p50":{"value":1.2034567891234567,"unit":"ms"}`) || strings.Contains(string(data), "extra_metric") {
		t.Errorf("result line must carry exactly the spec metrics at full precision: %s", data)
	}

	r.set("setup_s", "ms", 812.7)
	if _, err := r.specMetrics(s); err == nil {
		t.Error("unit mismatch against the spec accepted")
	}
	delete(r.Metrics, "setup_s")
	if _, err := r.specMetrics(s); err == nil {
		t.Error("missing spec metric accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		cand   []float64
		higher bool
		want   verdict
	}{
		{"same", scale(1), false, verdictWithin},
		{"slower beyond bound", scale(1.2), false, verdictWorse},
		{"slower within bound", scale(1.05), false, verdictWithin},
		{"faster in every pair", scale(0.8), false, verdictBetter},
		{"throughput up", scale(1.2), true, verdictBetter},
		{"noisy", []float64{50, 150, 60, 140, 100, 100, 70, 130, 80, 120}, false, verdictUnresolved},
	} {
		if got := compareMetric(base, c.cand, c.higher, 0.1).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
