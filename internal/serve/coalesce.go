package serve

import (
	"fmt"
	"sync"
	"time"

	"sherlock"
	"sherlock/internal/pool"
)

// Coalescer is the admission queue in front of one compiled program: small
// concurrent requests accumulate in a bounded batch window and execute as
// one merged lane block, so a million 8-to-32-vector calls amortize into
// full 256-lane executor passes instead of fragmenting into under-filled
// ones. A batch flushes when the pending lane count reaches MaxBatchLanes
// (size trigger) or when the window timer expires after the first pending
// request (time trigger), whichever comes first. Requests at or above the
// batch threshold bypass the queue entirely — they already fill their own
// passes. The window opens only while small requests arrive denser than
// one per window: a moving average of the gap between arrivals decides,
// and when it exceeds the window and nothing is pending, the request runs
// at once as a one-request pass, since no companion is expected to join
// it. Merged batches, one-request passes and direct requests alike run as
// one RunBatchWords call on the program's shared stream, which runs
// concurrent calls in parallel and spreads a wide request's chunks over
// its shards.
//
// Merging is bit-exact: each caller's lanes pack contiguously (bit-shifted,
// not word-aligned) into the merged block and demux back out, so outputs
// are bit-identical to the caller running its request alone, whatever the
// batch composition — the differential tests pin this at every word edge.
type Coalescer struct {
	c      *sherlock.Compiled
	numIn  int
	numOut int

	maxLanes    int
	window      time.Duration
	parallelism int
	limiter     *pool.Limiter
	hub         *coalesceHub // service-wide totals; nil for a standalone coalescer

	mu           sync.Mutex
	pending      []*pendingReq
	pendingLanes int
	gen          uint64 // batch generation: a timer only flushes its own
	timer        *time.Timer
	stats        CoalescerStats

	// Arrival-rate estimate (see sparseLocked): the clock, which tests
	// replace, the previous small-request arrival (zero before the first)
	// and the moving average of the gap between such arrivals.
	now    func() time.Time
	last   time.Time
	avgGap time.Duration

	scratch sync.Pool // *flushScratch
}

// CoalescerStats counts one coalescer's traffic.
type CoalescerStats struct {
	Requests     int64 // admitted requests
	Lanes        int64 // admitted lanes (vectors)
	Flushes      int64 // merged batches executed, one-request passes run at once included
	SizeFlushes  int64 // flushed by the lane threshold
	TimerFlushes int64 // flushed by the window timer
	DirectRuns   int64 // oversized requests that bypassed the queue
	// StreamRuns counts direct requests served by streaming.
	//
	// Deprecated: every direct request streams now, so StreamRuns always
	// equals DirectRuns.
	StreamRuns int64
	MaxBatch   int64 // largest merged batch, in lanes
}

// add folds d into s: counters sum, MaxBatch takes the maximum.
func (s *CoalescerStats) add(d CoalescerStats) {
	s.Requests += d.Requests
	s.Lanes += d.Lanes
	s.Flushes += d.Flushes
	s.SizeFlushes += d.SizeFlushes
	s.TimerFlushes += d.TimerFlushes
	s.DirectRuns += d.DirectRuns
	s.StreamRuns += d.StreamRuns
	s.MaxBatch = max(s.MaxBatch, d.MaxBatch)
}

// coalesceHub is the state a Service shares with its coalescers, so that
// it never holds a coalescer (and through it a compiled program) longer
// than the registry does: counters every coalescer adds into, and the set
// of coalescers whose batch window is open, for Drain.
type coalesceHub struct {
	mu     sync.Mutex
	stats  CoalescerStats
	queues int
	open   map[*Coalescer]struct{}
}

type pendingReq struct {
	in    []uint64 // caller's slot-major block, stride laneWords(lanes)
	lanes int
	out   []uint64 // filled before done is signalled
	done  chan error
}

type flushScratch struct {
	in  []uint64
	out []uint64
}

// CoalescerConfig parameterizes NewCoalescer.
type CoalescerConfig struct {
	// MaxBatchLanes is the size flush trigger (default laneCap = 256, one
	// full executor pass).
	MaxBatchLanes int
	// Window bounds how long the first request of a batch may wait for
	// company (default 200µs). It opens only while requests arrive denser
	// than one per window; sparser traffic runs each request at once. Below
	// 1ms the bound is loose: an idle Go process wakes its timers at 1ms
	// granularity. Zero selects the default; a negative window disables
	// the timer and the arrival-rate rule — batches then flush only on size
	// or Flush(), which is what the deterministic tests use.
	Window time.Duration
	// Parallelism caps each RunBatchWords call's concurrent chunks.
	Parallelism int
	// Limiter, when non-nil, bounds concurrent executor passes across all
	// coalescers sharing it.
	Limiter *pool.Limiter

	hub *coalesceHub // set by Service
}

// DefaultStreamMinLanes was the bulk-request size at which direct requests
// switched to the streaming path: 16 full 256-lane executor passes.
//
// Deprecated: the coalescer streams every direct request and reads no
// threshold. The constant remains as a conventional bulk-request size.
const DefaultStreamMinLanes = 4096

// NewCoalescer builds a coalescer over a compiled program.
func NewCoalescer(c *sherlock.Compiled, cfg CoalescerConfig) *Coalescer {
	if cfg.MaxBatchLanes <= 0 {
		cfg.MaxBatchLanes = laneCap
	}
	if cfg.Window == 0 {
		cfg.Window = 200 * time.Microsecond
	}
	return &Coalescer{
		c:           c,
		numIn:       len(c.InputNames()),
		numOut:      len(c.OutputNames()),
		maxLanes:    cfg.MaxBatchLanes,
		window:      cfg.Window,
		parallelism: cfg.Parallelism,
		limiter:     cfg.Limiter,
		hub:         cfg.hub,
		now:         time.Now, //sherlock:allow walltime (times when a batch runs; never what it computes)
	}
}

// addLocked counts d into the coalescer's stats and, inside a Service,
// into the service-wide totals. Callers hold q.mu.
func (q *Coalescer) addLocked(d CoalescerStats) {
	q.stats.add(d)
	if q.hub != nil {
		q.hub.mu.Lock()
		q.hub.stats.add(d)
		q.hub.mu.Unlock()
	}
}

// setOpenLocked records in the hub whether q has a pending batch window,
// so Drain finds it even after the registry has evicted its entry.
// Callers hold q.mu.
func (q *Coalescer) setOpenLocked(open bool) {
	if q.hub == nil {
		return
	}
	q.hub.mu.Lock()
	if open {
		q.hub.open[q] = struct{}{}
	} else {
		delete(q.hub.open, q)
	}
	q.hub.mu.Unlock()
}

// Submit runs lanes packed input vectors (RunBatchWords layout, stride
// laneWords(lanes)) through the shared batch pipeline and blocks until the
// result is in: out (allocated if too small) holds the caller's own
// outputs, demuxed from whatever merged pass served them. Malformed
// requests fail here, before joining a batch — admission is where errors
// are attributed to the caller that caused them.
func (q *Coalescer) Submit(in []uint64, lanes int, out []uint64) ([]uint64, error) {
	if lanes <= 0 {
		return nil, fmt.Errorf("serve: submit of %d lanes", lanes)
	}
	W := laneWords(lanes)
	if len(in) < q.numIn*W {
		return nil, fmt.Errorf("serve: input block has %d words, need %d (%d inputs x %d lane words)",
			len(in), q.numIn*W, q.numIn, W)
	}
	need := q.numOut * W
	if cap(out) < need {
		out = make([]uint64, need)
	} else {
		out = out[:need]
	}

	q.mu.Lock()
	if direct := lanes >= q.maxLanes; direct || q.sparseLocked() {
		// A request that already fills its own pass(es) runs directly; one
		// that expects no companion inside the window runs as a
		// one-request pass. Either way, waiting would only add latency.
		d := CoalescerStats{Requests: 1, Lanes: int64(lanes)}
		if direct {
			d.DirectRuns, d.StreamRuns = 1, 1
		} else {
			d.Flushes, d.MaxBatch = 1, int64(lanes)
		}
		q.addLocked(d)
		q.mu.Unlock()
		q.limiter.Acquire()
		defer q.limiter.Release()
		return q.c.RunBatchWords(in, lanes, out, q.parallelism)
	}
	req := &pendingReq{in: in, lanes: lanes, out: out, done: make(chan error, 1)}
	q.addLocked(CoalescerStats{Requests: 1, Lanes: int64(lanes)})
	q.pending = append(q.pending, req)
	q.pendingLanes += lanes
	if q.pendingLanes >= q.maxLanes {
		batch, lanes := q.takeLocked()
		q.addLocked(CoalescerStats{SizeFlushes: 1})
		q.mu.Unlock()
		q.flushBatch(batch, lanes)
	} else {
		if len(q.pending) == 1 {
			q.setOpenLocked(true)
			if q.window > 0 {
				gen := q.gen
				q.timer = time.AfterFunc(q.window, func() { q.flushGen(gen) })
			}
		}
		q.mu.Unlock()
	}
	if err := <-req.done; err != nil {
		return nil, err
	}
	return req.out, nil
}

// gapClampWindows bounds each gap sample, in windows, before it folds into
// the average: a stall or an idle spell between bursts then lifts the
// average by at most half a window, and a sparse spell's average falls
// back under the window within 11 dense arrivals ((7/8)^11 < 1/4).
const gapClampWindows = 4

// sparseLocked folds this small-request arrival into the moving average of
// the gap between arrivals (one eighth of each clamped sample) and reports
// whether the request should run at once: nothing is pending and the
// average gap exceeds the window, so fewer than one companion is expected
// before the timer fires. The first arrival counts as sparse. With the
// timer disabled it reports false and samples no clock. Callers hold q.mu.
func (q *Coalescer) sparseLocked() bool {
	if q.window < 0 {
		return false
	}
	now, limit := q.now(), gapClampWindows*q.window
	if q.last.IsZero() {
		q.avgGap = limit
	} else {
		q.avgGap += (min(now.Sub(q.last), limit) - q.avgGap) / 8
	}
	q.last = now
	return len(q.pending) == 0 && q.avgGap > q.window
}

// PendingLanes reports the lanes currently waiting in the window (tests
// and load probes).
func (q *Coalescer) PendingLanes() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pendingLanes
}

// Stats snapshots the coalescer's counters.
func (q *Coalescer) Stats() CoalescerStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Flush forces the current batch out immediately (shutdown, tests).
func (q *Coalescer) Flush() {
	q.mu.Lock()
	batch, lanes := q.takeLocked()
	q.mu.Unlock()
	q.flushBatch(batch, lanes)
}

// flushGen is the timer path: it flushes only if the batch it was armed
// for is still the current one (a size flush in between bumped the
// generation and took the batch with it).
func (q *Coalescer) flushGen(gen uint64) {
	q.mu.Lock()
	if q.gen != gen {
		q.mu.Unlock()
		return
	}
	batch, lanes := q.takeLocked()
	if batch != nil {
		q.addLocked(CoalescerStats{TimerFlushes: 1})
	}
	q.mu.Unlock()
	q.flushBatch(batch, lanes)
}

// takeLocked claims the pending batch. Callers hold q.mu.
func (q *Coalescer) takeLocked() ([]*pendingReq, int) {
	batch, lanes := q.pending, q.pendingLanes
	q.pending, q.pendingLanes = nil, 0
	q.gen++
	if q.timer != nil {
		q.timer.Stop()
		q.timer = nil
	}
	if batch != nil {
		q.addLocked(CoalescerStats{Flushes: 1, MaxBatch: int64(lanes)})
		q.setOpenLocked(false)
	}
	return batch, lanes
}

// flushBatch merges the batch into one packed block, executes it, and
// demuxes each caller's lanes back into its own buffer.
func (q *Coalescer) flushBatch(batch []*pendingReq, total int) {
	if len(batch) == 0 {
		return
	}
	W := laneWords(total)
	s, _ := q.scratch.Get().(*flushScratch)
	if s == nil {
		s = &flushScratch{}
	}
	if cap(s.in) < q.numIn*W {
		s.in = make([]uint64, q.numIn*W)
	}
	in := s.in[:q.numIn*W]
	clear(in)

	off := 0
	for _, req := range batch {
		reqW := laneWords(req.lanes)
		for slot := 0; slot < q.numIn; slot++ {
			orShifted(in[slot*W:(slot+1)*W], off, req.in[slot*reqW:slot*reqW+reqW], req.lanes)
		}
		off += req.lanes
	}

	q.limiter.Acquire()
	out, err := q.c.RunBatchWords(in, total, s.out, q.parallelism)
	q.limiter.Release()
	if err != nil {
		// Admission already screened per-caller mistakes; what reaches here
		// is a program-wide failure, which every waiter must see.
		for _, req := range batch {
			req.done <- err
		}
		q.scratch.Put(s)
		return
	}
	s.out = out

	off = 0
	for _, req := range batch {
		reqW := laneWords(req.lanes)
		for o := 0; o < q.numOut; o++ {
			extractShifted(req.out[o*reqW:o*reqW+reqW], out[o*W:(o+1)*W], off, req.lanes)
		}
		off += req.lanes
		req.done <- nil
	}
	q.scratch.Put(s)
}

// laneWords is W, the word stride of a packed block of `lanes` lanes.
func laneWords(lanes int) int { return (lanes + 63) / 64 }

// orShifted ORs the low `lanes` bits of src into dst starting at bit
// offset bitOff. Bits of src's last word beyond `lanes` are garbage by
// contract and are masked off so they cannot leak into a neighbouring
// request's lanes.
func orShifted(dst []uint64, bitOff int, src []uint64, lanes int) {
	n := laneWords(lanes)
	rem := lanes % 64
	for i := 0; i < n; i++ {
		w := src[i]
		if i == n-1 && rem != 0 {
			w &= uint64(1)<<uint(rem) - 1
		}
		pos := bitOff + i*64
		lo, sh := pos/64, uint(pos%64)
		dst[lo] |= w << sh
		if sh != 0 && lo+1 < len(dst) {
			dst[lo+1] |= w >> (64 - sh)
		}
	}
}

// extractShifted copies `lanes` bits starting at bit offset bitOff of src
// into dst's low bits, masking dst's final word to the live lanes.
func extractShifted(dst []uint64, src []uint64, bitOff, lanes int) {
	n := laneWords(lanes)
	base, sh := bitOff/64, uint(bitOff%64)
	for i := 0; i < n; i++ {
		w := src[base+i] >> sh
		if sh != 0 && base+i+1 < len(src) {
			w |= src[base+i+1] << (64 - sh)
		}
		dst[i] = w
	}
	if rem := lanes % 64; rem != 0 {
		dst[n-1] &= uint64(1)<<uint(rem) - 1
	}
}
