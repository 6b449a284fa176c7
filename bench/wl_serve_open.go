package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sherlock/internal/dfg"
	"sherlock/internal/serve"
	"sherlock/internal/workloads/bitweaving"
)

// The serve-open workload: independent users in an open loop, arriving on
// a seeded Poisson schedule at an in-process serve.Service (CIM backend,
// default coalescer: 200 µs window, 256-lane passes). Traffic spreads over
// four BitWeaving 8-bit kernels compiled during setup; 511 of every 512
// requests carry 32 packed vectors and go through the batch window, every
// 512th is a 16,384-vector bulk request that takes the coalescer's
// streaming branch. Steps: a low rate where passes never fill (timer
// flushes), the reference rate where they do (size flushes), a saturation
// probe, and a capacity ladder. No compile is in the timed path.

const (
	openLowRate   = 2000
	openRefRate   = 50000
	openSLOMS     = 5.0 // p99 latency limit of the capacity ladder, from due time
	openLanes     = 32
	openBulkLanes = 16384
	openBulkEvery = 512
	// openCallers is the saturation probe's concurrency: enough 32-lane
	// callers to fill 256-lane passes on all four kernels at once.
	openCallers    = 64
	poolPerKernel  = 64 // requests per kernel in a serving request pool
	checkEvery     = 64 // one response in checkEvery is checked
	ladderFactor   = 1.25
	ladderMaxSteps = 3
	satProbes      = 5 // saturation sub-probes; their median is reported
)

// bwRequest is one packed request with the outputs the BitWeaving golden
// model gives for it.
type bwRequest struct {
	entry *serve.Entry
	in    []uint64
	lanes int
	want  []uint64
}

// packBW builds a request of lanes vectors for a BitWeaving kernel with
// random per-vector values and one random [c1, c2] band, in the entry's
// slot order, with the reference outputs in its output order.
func packBW(rng *rand.Rand, e *serve.Entry, bits, segments, lanes int) (bwRequest, error) {
	W := (lanes + 63) / 64
	mask := uint64(1)<<uint(bits) - 1
	c1, c2 := rng.Uint64()&mask, rng.Uint64()&mask
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	values := make([][]uint64, segments)
	for s := range values {
		values[s] = make([]uint64, lanes)
		for l := range values[s] {
			values[s][l] = rng.Uint64() & mask
		}
	}
	// bitOf gives the named input's value for lane l.
	bitOf := map[string]func(l int) bool{}
	for b := 0; b < bits; b++ {
		bitOf[bitweaving.C1Name(b)] = func(int) bool { return c1>>uint(b)&1 == 1 }
		bitOf[bitweaving.C2Name(b)] = func(int) bool { return c2>>uint(b)&1 == 1 }
		for s := 0; s < segments; s++ {
			bitOf[bitweaving.XName(s, b)] = func(l int) bool { return values[s][l]>>uint(b)&1 == 1 }
		}
	}
	req := bwRequest{entry: e, lanes: lanes, in: make([]uint64, len(e.InputNames)*W), want: make([]uint64, len(e.OutputNames)*W)}
	for slot, name := range e.InputNames {
		f, ok := bitOf[name]
		if !ok {
			return req, fmt.Errorf("unexpected kernel input %q", name)
		}
		for l := 0; l < lanes; l++ {
			if f(l) {
				req.in[slot*W+l/64] |= 1 << uint(l%64)
			}
		}
	}
	for o, name := range e.OutputNames {
		seg := -1
		for s := 0; s < segments; s++ {
			if name == bitweaving.OutName(s) {
				seg = s
			}
		}
		if seg < 0 {
			return req, fmt.Errorf("unexpected kernel output %q", name)
		}
		// Dead lanes of the last word stay zero, as the service returns them.
		for l := 0; l < lanes; l++ {
			if bitweaving.Reference(values[seg][l], c1, c2, bits) {
				req.want[o*W+l/64] |= 1 << uint(l%64)
			}
		}
	}
	return req, nil
}

func (q bwRequest) check(out []uint64) error {
	if len(out) < len(q.want) {
		return fmt.Errorf("response of %d words, want %d", len(out), len(q.want))
	}
	for i, w := range q.want {
		if out[i] != w {
			return fmt.Errorf("output word %d = %#x, reference %#x", i, out[i], w)
		}
	}
	return nil
}

type openState struct {
	svc       *serve.Service
	fronts    []namedFront
	reqs      []bwRequest // poolPerKernel small requests per kernel, then one bulk per kernel
	small     int         // len of the small part of reqs
	bulkLanes int
	quality   *quality
}

func setupServeOpen(seed int64, smoke bool) (*openState, error) {
	st := &openState{
		svc:       serve.NewService(serve.Config{Backend: serve.BackendCIM}),
		bulkLanes: openBulkLanes,
		quality:   &quality{},
	}
	rng := rand.New(rand.NewSource(seed))
	const bits = 8
	if smoke {
		st.bulkLanes = serve.DefaultStreamMinLanes
	}
	var bulk []bwRequest
	for _, segments := range []int{2, 3, 4, 5} {
		cfg := bitweaving.Config{Bits: bits, Segments: segments}
		front := func() (*dfg.Graph, error) { return bitweaving.Build(cfg) }
		st.fronts = append(st.fronts, namedFront{fmt.Sprintf("bitweaving8x%d", segments), front})
		g, err := front()
		if err != nil {
			return nil, err
		}
		e, err := st.svc.CompileGraph(g, benchOptions())
		if err != nil {
			return nil, err
		}
		if err := st.quality.addCompiled(e.Compiled); err != nil {
			return nil, err
		}
		for i := 0; i < poolPerKernel; i++ {
			req, err := packBW(rng, e, bits, segments, openLanes)
			if err != nil {
				return nil, err
			}
			st.reqs = append(st.reqs, req)
		}
		req, err := packBW(rng, e, bits, segments, st.bulkLanes)
		if err != nil {
			return nil, err
		}
		bulk = append(bulk, req)
	}
	st.small = len(st.reqs)
	st.reqs = append(st.reqs, bulk...)
	// Warm-up: every small request once, concurrently, and each bulk
	// request, so coalescers, streamers and pools exist before timing.
	var wg sync.WaitGroup
	errs := make([]error, len(st.reqs))
	for i := range st.reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = st.do(i, nil)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		st.svc.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// do serves request i of the pool and checks its response when keep is
// nil; otherwise it stores the response in *keep for a later check.
func (st *openState) do(i int, keep *[]uint64) error {
	q := st.reqs[i]
	out, _, err := st.svc.RunWords(q.entry, q.in, q.lanes, nil, serve.BackendAuto)
	if err != nil {
		return err
	}
	if keep != nil {
		*keep = out
		return nil
	}
	return q.check(out)
}

// picks draws n pool indices: uniformly over the small requests, with
// every openBulkEvery-th a bulk request.
func (st *openState) picks(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	bulk := len(st.reqs) - st.small
	for i := range p {
		if i%openBulkEvery == openBulkEvery-1 {
			p[i] = int32(st.small + rng.Intn(bulk))
		} else {
			p[i] = int32(rng.Intn(st.small))
		}
	}
	return p
}

// counters tallies outcomes across request goroutines.
type counters struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []error // the first few
}

func (c *counters) record(err error) {
	c.attempted.Add(1)
	if err != nil {
		c.failed.Add(1)
		c.mu.Lock()
		if len(c.errs) < 8 {
			c.errs = append(c.errs, err)
		}
		c.mu.Unlock()
	}
}

func (c *counters) flush(r *result) {
	r.Attempted += c.attempted.Load()
	r.failures(c.failed.Load(), c.errs)
}

// step runs one open-loop step at rate for d; with tr non-nil, every
// sampleEvery-th request records spans.
func (st *openState) step(rng *rand.Rand, rate float64, d time.Duration, c *counters, tr *tracer, opBase int64, sampleEvery int) stepTimes {
	due := poissonSchedule(rng, rate, d)
	picks := st.picks(rng, len(due))
	kept := make([][]uint64, len(due))
	times := runOpenLoop(due, func(i int, dueAt, sentAt time.Time) {
		op := opBase + int64(i)
		t := tr
		if i%sampleEvery != 0 {
			t = nil
		}
		kind := "small"
		if int(picks[i]) >= st.small {
			kind = "bulk"
		}
		root := t.begin("request", kind, op, spanRef{}).from(dueAt)
		t.at("loadgen.late", "", op, root, dueAt, sentAt)
		sp := t.begin("serve.run_words", kind, op, root)
		var keep *[]uint64
		if i%checkEvery == 0 {
			keep = &kept[i]
		}
		err := st.do(int(picks[i]), keep)
		sp.end()
		root.end()
		if keep == nil || err != nil {
			c.record(err)
		}
	})
	// Sampled responses are checked after the step, off the timed path.
	for i, out := range kept {
		if i%checkEvery == 0 && out != nil {
			c.record(st.reqs[picks[i]].check(out))
		}
	}
	return times
}

// saturate runs openCallers closed-loop callers over the same traffic mix
// for d and returns completed requests per second.
func (st *openState) saturate(seed int64, d time.Duration, c *counters) float64 {
	var wg sync.WaitGroup
	var done atomic.Int64
	deadline := time.Now().Add(d)
	t0 := time.Now()
	for k := 0; k < openCallers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
			for n := 0; time.Now().Before(deadline); n++ {
				i := rng.Intn(st.small)
				if n%openBulkEvery == openBulkEvery-1 {
					i = st.small + rng.Intn(len(st.reqs)-st.small)
				}
				var out []uint64
				err := st.do(i, &out)
				if err == nil && n%checkEvery == 0 {
					err = st.reqs[i].check(out)
				}
				c.record(err)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(t0).Seconds()
}

func runServeOpen(cfg runConfig, r *result) error {
	st, err := setupMedian(r, cfg.setupReps(), func() (*openState, error) {
		return setupServeOpen(cfg.seed, cfg.smoke)
	}, func(st *openState) { st.svc.Close() })
	if err != nil {
		return err
	}
	defer st.svc.Close()
	st.quality.set(r)
	rng := rand.New(rand.NewSource(cfg.seed))
	stats0 := st.svc.Stats()
	var c counters
	a0 := heapAllocs()

	if cfg.traced {
		// Untraced ref steps (the overhead baseline) alternate with traced
		// ones, so both see the same host conditions; one request in 16
		// records spans at ref, every one at low.
		var base, traced []float64
		var ref stepSummary
		d := cfg.duration(0.125)
		for i := int64(0); i < 2; i++ {
			base = append(base, summarizeStep(st.step(rng, openRefRate, d, &c, nil, 0, 1), d, openSLOMS).P50MS)
			ref = summarizeStep(st.step(rng, openRefRate, d, &c, cfg.tr, (i+2)<<40, 16), d, openSLOMS)
			traced = append(traced, ref.P50MS)
		}
		lowStats := st.svc.Stats()
		d = cfg.duration(0.25)
		low := summarizeStep(st.step(rng, openLowRate, d, &c, cfg.tr, 1<<40, 1), d, openSLOMS)
		end := st.svc.Stats()
		c.flush(r)
		r.set("loadgen.low.late_ms_p99", "ms", low.LateP99MS)
		r.set("loadgen.ref.late_ms_p99", "ms", ref.LateP99MS)
		r.traceOverhead(base, traced)
		if _, err := probeSet(r, cfg.tr, rng, 3, st.fronts); err != nil {
			return err
		}
		routeProbe(r, cfg.tr, st.svc, st.reqs[0].entry)
		coalesceMetrics(r, "coalesce", stats0, end, st.bulkLanes)
		coalesceMetrics(r, "ref.coalesce", stats0, lowStats, st.bulkLanes)
		coalesceMetrics(r, "low.coalesce", lowStats, end, st.bulkLanes)
		stepSpans(r, cfg.tr.snapshot(), r.Metrics["sim.pass_us"].Value/1e3/float64(len(st.fronts)))
		return nil
	}

	var reqs int
	phase := func(rate, frac float64) stepSummary {
		d := cfg.duration(frac)
		t := st.step(rng, rate, d, &c, nil, 0, 1)
		reqs += len(t.due)
		return summarizeStep(t, d, openSLOMS)
	}
	low := phase(openLowRate, 0.15)
	refStats := st.svc.Stats()
	refDur := cfg.duration(0.45)
	ref := st.step(rng, openRefRate, refDur, &c, nil, 0, 1)
	reqs += len(ref.due)
	coalesceMetrics(r, "low.coalesce", stats0, refStats, st.bulkLanes)
	coalesceMetrics(r, "ref.coalesce", refStats, st.svc.Stats(), st.bulkLanes)
	refSum := summarizeStep(ref, refDur, openSLOMS)
	maxRPS, steps := climbLadder(openRefRate*ladderFactor, ladderFactor, ladderMaxSteps, func(rate float64) stepSummary {
		return phase(rate, 0.04)
	})
	var sat counters
	rates := make([]float64, satProbes)
	for i := range rates {
		rates[i] = st.saturate(cfg.seed+int64(i), cfg.duration(0.25/satProbes), &sat)
	}
	r.set("throughput_per_s", "1/s", median(rates))
	allocs := heapAllocs() - a0
	reqs += int(sat.attempted.Load())
	c.flush(r)
	sat.flush(r)

	lat := make([]float64, len(ref.due))
	for i := range lat {
		lat[i] = ms(ref.done[i] - ref.due[i])
	}
	if err := r.percentiles("op_ms", "ms", lat, cfg.smoke, 1, 0.5, 0.9, 0.99); err != nil {
		return err
	}
	r.set("low_rate_ms_p50", "ms", low.P50MS)
	r.set("low_rate_ms_p99", "ms", low.P99MS)
	r.Samples["low_rate"] = low.Requests
	r.set("loadgen.low.late_ms_p99", "ms", low.LateP99MS)
	r.set("loadgen.ref.late_ms_p50", "ms", refSum.LateP50MS)
	r.set("loadgen.ref.late_ms_p99", "ms", refSum.LateP99MS)
	r.set("max_rps", "1/s", maxRPS)
	r.set("ladder.steps", "count", float64(len(steps)))
	r.set("alloc_bytes_per_op", "B", float64(allocs)/float64(reqs))
	coalesceMetrics(r, "coalesce", stats0, st.svc.Stats(), st.bulkLanes)
	return nil
}

// stepSpans splits the traced requests of the low and ref steps (told
// apart by operation id) into time from due to done, time inside
// Service.RunWords, and the queue wait that leaves once one executor
// pass (passMS, the mean over the kernels) is taken out — a derived
// number, since the pass itself runs inside the coalescer.
func stepSpans(r *result, spans []span, passMS float64) {
	for _, step := range []struct {
		name   string
		lo, hi int64
	}{{"low", 1 << 40, 2 << 40}, {"ref", 2 << 40, 4 << 40}} {
		var req, words []float64
		for _, s := range spans {
			if s.Op < step.lo || s.Op >= step.hi {
				continue
			}
			switch s.Name {
			case "request":
				req = append(req, ms(s.End-s.Start))
			case "serve.run_words":
				words = append(words, ms(s.End-s.Start))
			}
		}
		sort.Float64s(req)
		sort.Float64s(words)
		for _, q := range []float64{0.5, 0.99} {
			tag := fmt.Sprintf("_p%g", q*100)
			v, _ := quantile(req, q)
			r.set(step.name+".request_ms"+tag, "ms", v)
			v, _ = quantile(words, q)
			r.set(step.name+".run_words_ms"+tag, "ms", v)
		}
		r.set(step.name+".queue_wait_ms_derived", "ms", median(words)-passMS)
	}
}

// routeProbe times the router's verdict for a 32-vector request.
func routeProbe(r *result, tr *tracer, svc *serve.Service, e *serve.Entry) {
	ds := make([]float64, 1000)
	for i := range ds {
		sp := tr.begin("router.route", "", -20, spanRef{})
		t0 := time.Now()
		_, _ = svc.Route(e, openLanes) // costs were measured at warm-up; cannot fail now
		ds[i] = float64(time.Since(t0)) / 1e3
		sp.end()
	}
	r.set("router.route_us", "us", median(ds))
}

// coalesceMetrics reports the coalescer's batching between two snapshots
// under name: how full the merged passes ran, how many flushed on the
// timer, and how many bulk requests ran directly and took the streaming
// branch.
func coalesceMetrics(r *result, name string, before, after serve.Stats, bulkLanes int) {
	d, b := after.Coalesce, before.Coalesce
	flushes := d.Flushes - b.Flushes
	batched := (d.Lanes - b.Lanes) - (d.DirectRuns-b.DirectRuns)*int64(bulkLanes)
	fill, timer := 0.0, 0.0
	if flushes > 0 {
		fill = float64(batched) / float64(flushes*256)
		timer = float64(d.TimerFlushes-b.TimerFlushes) / float64(flushes)
	}
	r.set(name+".fill_ratio", "ratio", fill)
	r.set(name+".timer_flush_share", "ratio", timer)
	r.set(name+".stream_runs", "count", float64(d.StreamRuns-b.StreamRuns))
	r.set(name+".direct_runs", "count", float64(d.DirectRuns-b.DirectRuns))
}
