package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// splitLanes deterministically splits total lanes into request-sized chunks
// (1..maxChunk), covering ragged word boundaries.
func splitLanes(rng *rand.Rand, total, maxChunk int) []int {
	var chunks []int
	for total > 0 {
		n := 1 + rng.Intn(maxChunk)
		if n > total {
			n = total
		}
		chunks = append(chunks, n)
		total -= n
	}
	return chunks
}

// TestCoalesceBitIdenticalAtWindowEdges is the differential test the issue
// asks for: at every interesting pending-lane count (word edges and the
// full-pass boundary), concurrent requests merged through the coalescer
// must return exactly the bits each caller would get running alone.
func TestCoalesceBitIdenticalAtWindowEdges(t *testing.T) {
	e := mustCompile(t, kStage)
	for _, total := range []int{1, 63, 64, 65, 255, 256} {
		t.Run(fmt.Sprintf("lanes=%d", total), func(t *testing.T) {
			// Timer disabled, size trigger out of reach: the batch flushes
			// only when we say so, making composition deterministic.
			q := NewCoalescer(e.Compiled, CoalescerConfig{MaxBatchLanes: 4096, Window: -1})
			rng := rand.New(rand.NewSource(int64(total)))
			chunks := splitLanes(rng, total, 32)

			type result struct {
				got, want []uint64
				err       error
			}
			results := make([]result, len(chunks))
			var wg sync.WaitGroup
			for ci, lanes := range chunks {
				batch := randBatch(rng, e.InputNames, lanes)
				in, _ := packWords(e.InputNames, batch)
				want, err := e.Compiled.RunBatchWords(in, lanes, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				results[ci].want = want
				wg.Add(1)
				go func(ci, lanes int, in []uint64) {
					defer wg.Done()
					results[ci].got, results[ci].err = q.Submit(in, lanes, nil)
				}(ci, lanes, in)
			}

			// Wait until every request joined the window, then flush once.
			for q.PendingLanes() < total {
				time.Sleep(50 * time.Microsecond)
			}
			q.Flush()
			wg.Wait()

			for ci := range results {
				if results[ci].err != nil {
					t.Fatalf("chunk %d: %v", ci, results[ci].err)
				}
				checkWordsEqual(t, fmt.Sprintf("chunk %d (%d lanes)", ci, chunks[ci]),
					results[ci].got, results[ci].want)
			}
			st := q.Stats()
			if st.Flushes != 1 {
				t.Fatalf("flushes = %d, want the whole composition in 1 merged pass", st.Flushes)
			}
			if st.MaxBatch != int64(total) {
				t.Fatalf("max batch = %d lanes, want %d", st.MaxBatch, total)
			}
			if int(st.Requests) != len(chunks) || st.Lanes != int64(total) {
				t.Fatalf("stats admitted %d requests / %d lanes, want %d / %d",
					st.Requests, st.Lanes, len(chunks), total)
			}
		})
	}
}

// TestCoalesceSizeTrigger fills the window to exactly the lane threshold
// and expects an automatic flush with no timer involved.
func TestCoalesceSizeTrigger(t *testing.T) {
	e := mustCompile(t, kMux)
	q := NewCoalescer(e.Compiled, CoalescerConfig{MaxBatchLanes: 256, Window: -1})
	rng := rand.New(rand.NewSource(3))

	const requests = 8 // 8 x 32 lanes = 256 = threshold
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		batch := randBatch(rng, e.InputNames, 32)
		in, _ := packWords(e.InputNames, batch)
		want, err := e.Compiled.RunBatchWords(in, 32, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(in, want []uint64) {
			defer wg.Done()
			got, err := q.Submit(in, 32, nil)
			if err != nil {
				errs <- err
				return
			}
			for i := range got {
				if got[i] != want[i] {
					errs <- fmt.Errorf("coalesced output diverged at word %d", i)
					return
				}
			}
		}(in, want)
	}
	wg.Wait() // the 8th submission must flush the batch by itself
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.SizeFlushes == 0 {
		t.Fatal("no size-triggered flush at the lane threshold")
	}
	if st.TimerFlushes != 0 {
		t.Fatalf("timer flushed %d times with the timer disabled", st.TimerFlushes)
	}
	if st.Lanes != 256 {
		t.Fatalf("admitted %d lanes, want 256", st.Lanes)
	}
}

// TestCoalesceTimerFlush gives the coalescer a dense arrival history, so
// that the arrival-rate rule no longer runs requests at once, and then
// relies on the window timer to push a lone request out.
func TestCoalesceTimerFlush(t *testing.T) {
	e := mustCompile(t, kParity)
	q := NewCoalescer(e.Compiled, CoalescerConfig{Window: time.Millisecond})
	q.now = (&stepClock{step: 10 * time.Microsecond}).now
	rng := rand.New(rand.NewSource(5))
	batch := randBatch(rng, e.InputNames, 8)
	in, _ := packWords(e.InputNames, batch)
	want, err := e.Compiled.RunBatchWords(in, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Requests 10µs apart: the first few run at once while the average
	// gap falls, the first one that finds the window open waits for it.
	for i := 1; q.Stats().TimerFlushes == 0; i++ {
		if i > maxRunsAtOnce+1 {
			t.Fatalf("%d requests 10µs apart and none waited for the timer", maxRunsAtOnce+1)
		}
		got, err := q.Submit(in, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkWordsEqual(t, fmt.Sprintf("request %d", i), got, want)
	}
	st := q.Stats()
	if st.TimerFlushes != 1 || st.SizeFlushes != 0 {
		t.Fatalf("timer flushes = %d, size flushes = %d; want 1 and 0", st.TimerFlushes, st.SizeFlushes)
	}
}

// maxRunsAtOnce bounds how many dense requests in a row the arrival-rate
// rule can still run at once: the clamped average starts at most
// gapClampWindows = 4 windows high, and 11 dense samples take it under
// the window ((7/8)^11 < 1/4).
const maxRunsAtOnce = 11

// stepClock is a deterministic clock for the arrival-rate rule: every read
// advances it by step. The coalescer reads it once per small request,
// under its lock.
type stepClock struct {
	t    time.Time
	step time.Duration
}

func (c *stepClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

type submitResult struct {
	out []uint64
	err error
}

// probe submits one request from its own goroutine, with nothing else
// pending, and waits until it either completes or joins the window. It
// reports whether the request ran at once and returns the channel its
// result arrives on. The timer must be out of reach (an hour-long window,
// or none): then only the arrival-rate rule completes a request unflushed.
func probe(q *Coalescer, in []uint64, lanes int) (bool, <-chan submitResult) {
	done := make(chan submitResult, 1)
	go func() {
		out, err := q.Submit(in, lanes, nil)
		done <- submitResult{out, err}
	}()
	for {
		if len(done) > 0 {
			return true, done
		}
		if q.PendingLanes() > 0 {
			return false, done
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// arrive probes one request, pushes it out with Flush if it joined the
// window, checks its output against want and reports whether it ran at
// once.
func arrive(t *testing.T, q *Coalescer, in []uint64, lanes int, want []uint64) bool {
	t.Helper()
	ranAtOnce, done := probe(q, in, lanes)
	if !ranAtOnce {
		q.Flush()
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	checkWordsEqual(t, "arrival", r.out, want)
	return ranAtOnce
}

// TestCoalesceLoneRequestRunsAtOnce: the first request a coalescer sees
// counts as sparse traffic, so it runs at once as a one-request pass — a
// flush, neither size- nor timer-triggered nor direct — instead of
// waiting out the window, with RunBatchWords' exact bits.
func TestCoalesceLoneRequestRunsAtOnce(t *testing.T) {
	e := mustCompile(t, kParity)
	q := NewCoalescer(e.Compiled, CoalescerConfig{}) // default 200µs window
	rng := rand.New(rand.NewSource(6))
	in, _ := packWords(e.InputNames, randBatch(rng, e.InputNames, 8))
	want, err := e.Compiled.RunBatchWords(in, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Submit(in, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkWordsEqual(t, "lone request", got, want)
	st := q.Stats()
	if st.Flushes != 1 || st.TimerFlushes != 0 || st.SizeFlushes != 0 || st.DirectRuns != 0 || st.MaxBatch != 8 {
		t.Fatalf("stats %+v; want 1 flush of 8 lanes, no size, timer or direct run", st)
	}
}

// TestCoalesceDenseArrivalsBatch: requests 10µs apart under a window far
// longer than that stop running at once after maxRunsAtOnce arrivals, and
// from then on join the window and flush on size.
func TestCoalesceDenseArrivalsBatch(t *testing.T) {
	e := mustCompile(t, kStage)
	q := NewCoalescer(e.Compiled, CoalescerConfig{MaxBatchLanes: 256, Window: time.Hour})
	q.now = (&stepClock{step: 10 * time.Microsecond}).now
	rng := rand.New(rand.NewSource(7))
	const lanes = 32
	type req struct{ in, want []uint64 }
	reqs := make([]req, 8)
	for i := range reqs {
		reqs[i].in, _ = packWords(e.InputNames, randBatch(rng, e.InputNames, lanes))
		var err error
		if reqs[i].want, err = e.Compiled.RunBatchWords(reqs[i].in, lanes, nil, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Probe with the first request until one queues, and leave that one
	// pending as the batch's first member.
	runsAtOnce := 0
	var first <-chan submitResult
	for {
		ranAtOnce, done := probe(q, reqs[0].in, lanes)
		if !ranAtOnce {
			first = done
			break
		}
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		checkWordsEqual(t, "request run at once", r.out, reqs[0].want)
		if runsAtOnce++; runsAtOnce > maxRunsAtOnce {
			t.Fatalf("%d dense requests ran at once, want at most %d", runsAtOnce, maxRunsAtOnce)
		}
	}
	// The first arrival starts the average at the clamp, 4 windows; gaps
	// of 10µs against an hour take exactly 11 arrivals to bring it under.
	if runsAtOnce != maxRunsAtOnce {
		t.Fatalf("%d dense requests ran at once before one queued, want %d", runsAtOnce, maxRunsAtOnce)
	}

	// Seven more 32-lane companions fill the pass: a size flush.
	results := make([]submitResult, len(reqs))
	var wg sync.WaitGroup
	for i := 1; i < len(reqs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i].out, results[i].err = q.Submit(reqs[i].in, lanes, nil)
		}(i)
	}
	wg.Wait()
	results[0] = <-first
	for i, r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		checkWordsEqual(t, fmt.Sprintf("batched request %d", i), r.out, reqs[i].want)
	}
	st := q.Stats()
	if st.SizeFlushes != 1 || st.TimerFlushes != 0 || st.Flushes != int64(runsAtOnce)+1 || st.MaxBatch != 256 {
		t.Fatalf("stats %+v after %d runs at once; want one 256-lane size flush on top", st, runsAtOnce)
	}
}

// TestCoalesceStallDecays: an idle spell of arbitrary length between two
// bursts weighs in at most gapClampWindows windows per arrival, so once
// dense arrivals resume, batching returns within maxRunsAtOnce of them.
func TestCoalesceStallDecays(t *testing.T) {
	e := mustCompile(t, kMux)
	q := NewCoalescer(e.Compiled, CoalescerConfig{MaxBatchLanes: 4096, Window: time.Hour})
	clock := &stepClock{step: 10 * time.Microsecond}
	q.now = clock.now
	rng := rand.New(rand.NewSource(8))
	in, _ := packWords(e.InputNames, randBatch(rng, e.InputNames, 4))
	want, err := e.Compiled.RunBatchWords(in, 4, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// burst sends dense requests until one joins the window and returns
	// how many ran at once before it.
	burst := func(label string) int {
		t.Helper()
		n := 0
		for arrive(t, q, in, 4, want) {
			if n++; n > maxRunsAtOnce {
				t.Fatalf("%s: %d dense requests ran at once, want at most %d", label, n, maxRunsAtOnce)
			}
		}
		return n
	}
	burst("first burst")
	clock.step = 1000 * time.Hour // an idle spell: every arrival is sparse
	for i := 0; i < 20; i++ {
		arrive(t, q, in, 4, want)
	}
	if !arrive(t, q, in, 4, want) {
		t.Fatal("a request after 20 idle hour-windows joined the window")
	}
	clock.step = 10 * time.Microsecond
	t.Logf("batching returned after %d dense arrivals", burst("after the idle spell"))
}

// TestCoalesceNegativeWindowNeverRunsAtOnce: with the timer disabled the
// arrival-rate rule is off — however sparse the traffic, every request
// waits for a size trigger or Flush, and the clock is never read.
func TestCoalesceNegativeWindowNeverRunsAtOnce(t *testing.T) {
	e := mustCompile(t, kMaj)
	q := NewCoalescer(e.Compiled, CoalescerConfig{Window: -1})
	clock := &stepClock{step: 1000 * time.Hour}
	q.now = clock.now
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 5; i++ {
		in, _ := packWords(e.InputNames, randBatch(rng, e.InputNames, 16))
		want, err := e.Compiled.RunBatchWords(in, 16, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if arrive(t, q, in, 16, want) {
			t.Fatalf("request %d ran at once with the timer disabled", i)
		}
	}
	if !clock.t.IsZero() {
		t.Fatal("the clock was read with the timer disabled")
	}
	if st := q.Stats(); st.Flushes != 5 || st.TimerFlushes != 0 || st.SizeFlushes != 0 {
		t.Fatalf("stats %+v; want 5 flushes, all by Flush", st)
	}
}

// TestCoalesceDirectBypass pins that a request at or above the batch
// threshold skips the window entirely.
func TestCoalesceDirectBypass(t *testing.T) {
	e := mustCompile(t, kMaj)
	q := NewCoalescer(e.Compiled, CoalescerConfig{MaxBatchLanes: 64, Window: -1})
	rng := rand.New(rand.NewSource(9))
	batch := randBatch(rng, e.InputNames, 100)
	in, _ := packWords(e.InputNames, batch)
	want, err := e.Compiled.RunBatchWords(in, 100, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Submit(in, 100, nil) // 100 >= 64: must not wait for a flush
	if err != nil {
		t.Fatal(err)
	}
	checkWordsEqual(t, "direct run", got, want)
	st := q.Stats()
	if st.DirectRuns != 1 || st.Flushes != 0 {
		t.Fatalf("direct runs = %d, flushes = %d; want 1 bypass and no merged batch",
			st.DirectRuns, st.Flushes)
	}
}

// TestCoalesceAdmissionErrors pins that malformed requests fail at
// admission, before joining a batch.
func TestCoalesceAdmissionErrors(t *testing.T) {
	e := mustCompile(t, kMux)
	q := NewCoalescer(e.Compiled, CoalescerConfig{Window: -1})
	if _, err := q.Submit(nil, 0, nil); err == nil {
		t.Fatal("zero-lane submit admitted")
	}
	if _, err := q.Submit(make([]uint64, 1), 8, nil); err == nil {
		t.Fatal("short input block admitted")
	}
	if q.PendingLanes() != 0 {
		t.Fatal("rejected requests left lanes pending")
	}
}

// TestOrExtractShiftedFuzz drives the bit-packing helpers against a naive
// bit-at-a-time model across ragged offsets and lengths.
func TestOrExtractShiftedFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	getBit := func(ws []uint64, i int) uint64 { return ws[i/64] >> uint(i%64) & 1 }
	for iter := 0; iter < 2000; iter++ {
		lanes := 1 + rng.Intn(130)
		bitOff := rng.Intn(200)
		total := bitOff + lanes + rng.Intn(70)
		W := laneWords(total)

		src := make([]uint64, laneWords(lanes))
		for i := range src {
			src[i] = rng.Uint64() // includes garbage above `lanes`
		}
		dst := make([]uint64, W)
		orShifted(dst, bitOff, src, lanes)
		for i := 0; i < total; i++ {
			want := uint64(0)
			if i >= bitOff && i < bitOff+lanes {
				want = getBit(src, i-bitOff)
			}
			if getBit(dst, i) != want {
				t.Fatalf("iter %d: orShifted bit %d = %d, want %d (off %d, lanes %d)",
					iter, i, getBit(dst, i), want, bitOff, lanes)
			}
		}

		back := make([]uint64, laneWords(lanes))
		extractShifted(back, dst, bitOff, lanes)
		for i := 0; i < len(back)*64; i++ {
			want := uint64(0)
			if i < lanes {
				want = getBit(src, i)
			}
			if getBit(back, i) != want {
				t.Fatalf("iter %d: extractShifted bit %d = %d, want %d (off %d, lanes %d)",
					iter, i, getBit(back, i), want, bitOff, lanes)
			}
		}
	}
}
