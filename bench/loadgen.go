package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The open-loop load generator: independent users arrive on a seeded
// Poisson schedule and are sent whether or not earlier requests have
// finished, so a stall in the system shows up as queueing. Each request's
// latency runs from the time it was due, not the time the generator got
// around to sending it; the generator's own lateness is reported beside it.

// poissonSchedule returns the due offsets of a Poisson arrival process at
// rate requests per second over d, deterministic in rng's seed.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// spinWindow is how close to a due time the generator stops sleeping and
// yields in a loop instead: a sleeping goroutine wakes up to a millisecond
// late on a shared virtual machine, far more than the gap between arrivals
// at high rates, and every request due meanwhile would go out in a burst.
const spinWindow = 200 * time.Microsecond

// stepTimes are one open-loop step's timestamps, as offsets from its start.
type stepTimes struct {
	due, sent, done []time.Duration
}

// runOpenLoop sends request i at due[i] (offset from now) by calling do on
// its own goroutine with the absolute due and send times, and returns once
// every request has completed.
func runOpenLoop(due []time.Duration, do func(i int, dueAt, sentAt time.Time)) stepTimes {
	st := stepTimes{due: due, sent: make([]time.Duration, len(due)), done: make([]time.Duration, len(due))}
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		for {
			now := time.Since(start)
			if now >= d {
				st.sent[i] = now
				break
			}
			if wait := d - now; wait > spinWindow {
				time.Sleep(wait - spinWindow)
			} else {
				runtime.Gosched()
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i, start.Add(d), start.Add(st.sent[i]))
			st.done[i] = time.Since(start)
		}()
	}
	wg.Wait()
	return st
}

// stepSummary is one open-loop step judged against the latency limit.
type stepSummary struct {
	Requests             int
	P50MS, P99MS         float64 // latency from due time
	LateP50MS, LateP99MS float64 // generator lateness
	// Completed is the share of requests done within the step plus
	// drainGrace; less than minCompleted means a growing backlog.
	Completed float64
	// GeneratorBound marks a step whose generator ran so late (lateness
	// p99 above half the limit) that the offered rate was not really
	// offered; such a step never counts toward max_rps.
	GeneratorBound bool
	Pass           bool
}

// drainGrace is how long after a step's end its requests may still finish
// before they count as backlog.
const drainGrace = 250 * time.Millisecond

// minCompleted is the share of a step that must finish within the grace.
const minCompleted = 0.99

// summarizeStep judges a step: latency from due time, lateness from due
// to send, completion within the step plus drainGrace, pass when p99 meets
// sloMS with no backlog and the generator kept up.
func summarizeStep(st stepTimes, stepLen time.Duration, sloMS float64) stepSummary {
	n := len(st.due)
	s := stepSummary{Requests: n}
	if n == 0 {
		return s
	}
	lat := make([]float64, n)
	late := make([]float64, n)
	inTime := 0
	for i := range st.due {
		lat[i] = ms(st.done[i] - st.due[i])
		late[i] = ms(st.sent[i] - st.due[i])
		if st.done[i] <= stepLen+drainGrace {
			inTime++
		}
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	s.P50MS, _ = quantile(lat, 0.50)
	s.P99MS, _ = quantile(lat, 0.99)
	s.LateP50MS, _ = quantile(late, 0.50)
	s.LateP99MS, _ = quantile(late, 0.99)
	s.Completed = float64(inTime) / float64(n)
	s.GeneratorBound = s.LateP99MS > sloMS/2
	s.Pass = s.P99MS <= sloMS && s.Completed >= minCompleted && !s.GeneratorBound
	return s
}

// climbLadder offers start, start*factor, ... requests per second, one
// step each, and stops at the first step that does not pass (or after
// maxSteps). It returns the highest passing rate (0 if none passed) and
// every step run. A generator-bound step ends the climb too: a generator
// that cannot keep up at one rate cannot offer a higher one.
func climbLadder(start, factor float64, maxSteps int, step func(rate float64) stepSummary) (float64, []stepSummary) {
	best := 0.0
	var steps []stepSummary
	rate := start
	for i := 0; i < maxSteps; i++ {
		s := step(rate)
		steps = append(steps, s)
		if !s.Pass {
			break
		}
		best = rate
		rate *= factor
	}
	return best, steps
}
