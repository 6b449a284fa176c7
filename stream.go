package sherlock

// Streaming execution: the facade over internal/sim's chunked stream.
// RunStream makes arbitrarily large packed inputs a first-class fast path —
// the input block is split into cache-sized chunks, each shard packs,
// executes and reduces its chunks inline on one wide ExecMachine, and
// fused word-level reduction sinks (popcount-accumulate, any/all,
// select-mask gather, bit-plane sums) answer aggregate queries without
// ever materializing full output bitmaps.

import (
	"fmt"
	"math/bits"
	"sync"

	"sherlock/internal/sim"
)

// StreamOptions configures RunStream / NewStreamer.
type StreamOptions struct {
	// Parallelism is the shard count — chunks executed concurrently, each
	// shard on its own machine (0 = runtime.GOMAXPROCS(0)). The chunk
	// width auto-sizes so one chunk's machine state stays cache-resident
	// (wide chunks for small kernels, batch-width for huge ones).
	Parallelism int
}

// streamGeom is the run geometry handed to a sink at begin/end.
type streamGeom struct {
	lanes      int
	chunkLanes int
	chunks     int
	shards     int
	outNames   []string
}

func (g streamGeom) numOut() int { return len(g.outNames) }

// StreamSink consumes the output words of streamed chunks. A sink sees raw
// 64-lane words (dead lanes masked to zero), never per-lane values — that
// is what keeps aggregate queries at memory-bandwidth cost. consume may be
// called concurrently for different shards, never concurrently for one
// shard, and chunks arrive in arbitrary order; every provided sink folds
// shard- or chunk-local state so results are deterministic regardless of
// scheduling. The interface is sealed (unexported methods): the provided
// sinks — BitmapSink, CountSink, AnySink, AllSink, SelectSink,
// SumBitsSink — cover materialization and the fused reductions.
type StreamSink interface {
	// begin prepares for a run; implementations reuse prior allocations,
	// so a warmed sink adds nothing to the steady-state allocation count.
	begin(g streamGeom) error
	// consume folds one executed chunk: out is output-major with stride
	// cw = ceil(lanes/64); word w of output o is out[o*cw+w] and carries
	// lanes startLane+64w .. startLane+64w+63.
	consume(shard, chunk, startLane, lanes int, out []uint64, cw int) error
	// end merges per-shard/per-chunk state into the published fields.
	end(g streamGeom) error
}

// Streamer is a reusable streaming executor over one compiled program:
// machines and scratch persist across Run calls, so the steady state
// allocates nothing. One Run executes at a time (calls serialize). A
// Streamer holds no goroutines between runs; Close makes later runs fail.
// RunStream is the build-run-close convenience for one-shot calls.
type Streamer struct {
	c   *Compiled
	st  *sim.Stream
	fns struct {
		pack   sim.PackFunc
		reduce sim.ReduceFunc
	}

	numIn     int
	outNames  []string
	outPlaces []Place
	outbufs   [][]uint64 // per shard: numOut * chunk words

	mu   sync.Mutex
	in   []uint64
	inW  int
	sink StreamSink
}

// NewStreamer builds a reusable streaming executor. It starts no
// goroutine and builds no machine until a chunk runs.
func (c *Compiled) NewStreamer(opts StreamOptions) (*Streamer, error) {
	return c.newStreamer(opts, 0)
}

// newStreamer is NewStreamer with a forced chunk width of blockWords words
// (0 auto-sizes).
func (c *Compiled) newStreamer(opts StreamOptions, blockWords int) (*Streamer, error) {
	ex, err := c.exec()
	if err != nil {
		return nil, err
	}
	outNames, outPlaces, err := c.outputs()
	if err != nil {
		return nil, err
	}
	st, err := sim.NewStream(ex, sim.StreamConfig{BlockWords: blockWords, Shards: opts.Parallelism})
	if err != nil {
		return nil, err
	}
	s := &Streamer{
		c:         c,
		st:        st,
		numIn:     len(c.inputNames()),
		outNames:  outNames,
		outPlaces: outPlaces,
	}
	cw := st.BlockWords()
	s.outbufs = make([][]uint64, st.Shards())
	for i := range s.outbufs {
		s.outbufs[i] = make([]uint64, len(outPlaces)*cw)
	}
	// The pack/reduce closures bind once so Run stores only data fields.
	s.fns.pack = s.packChunk
	s.fns.reduce = s.reduceChunk
	return s, nil
}

// ChunkLanes returns the chunk width in lanes.
func (s *Streamer) ChunkLanes() int { return s.st.ChunkLanes() }

// Shards returns the maximum number of chunks executed concurrently.
func (s *Streamer) Shards() int { return s.st.Shards() }

// Close makes later Runs fail. Idempotent.
func (s *Streamer) Close() { s.st.Close() }

// Run streams lanes packed input vectors (RunBatchWords slot-major layout,
// stride ceil(lanes/64)) through the stream into sink. A warmed
// Streamer+sink pair runs with zero allocations.
func (s *Streamer) Run(in []uint64, lanes int, sink StreamSink) error {
	if lanes <= 0 {
		return fmt.Errorf("sherlock: RunStream needs at least one lane, got %d", lanes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	W := laneWords(lanes)
	if len(in) < s.numIn*W {
		return fmt.Errorf("sherlock: input block has %d words, need %d (%d inputs x %d lane words)",
			len(in), s.numIn*W, s.numIn, W)
	}
	chunk := s.st.ChunkLanes()
	g := streamGeom{
		lanes:      lanes,
		chunkLanes: chunk,
		chunks:     (lanes + chunk - 1) / chunk,
		shards:     s.st.Shards(),
		outNames:   s.outNames,
	}
	if err := sink.begin(g); err != nil {
		return err
	}
	s.in, s.inW, s.sink = in, W, sink
	err := s.st.Run(lanes, s.fns.pack, s.fns.reduce)
	s.in, s.sink = nil, nil
	if err != nil {
		return err
	}
	return sink.end(g)
}

// packChunk copies the chunk's slice of the caller's slot-major block into
// the machine's input scratch — the only per-lane input cost on the
// streaming path (no maps, no per-vector decode).
func (s *Streamer) packChunk(m *sim.ExecMachine, chunk, start, lanes int) error {
	w0 := start / sim.WordLanes // chunk starts are word-aligned
	gw := laneWords(lanes)
	in := m.InputBlock()
	B := m.BlockWords()
	for slot := 0; slot < s.numIn; slot++ {
		copy(in[slot*B:slot*B+gw], s.in[slot*s.inW+w0:slot*s.inW+w0+gw])
	}
	return nil
}

// reduceChunk reads the chunk's output words into the shard's scratch and
// hands them to the sink.
func (s *Streamer) reduceChunk(shard int, m *sim.ExecMachine, chunk, start, lanes int) error {
	cw := laneWords(lanes)
	buf := s.outbufs[shard]
	for oi, p := range s.outPlaces {
		if _, err := m.OutWords(p, buf[oi*cw:oi*cw+cw]); err != nil {
			return err
		}
	}
	return s.sink.consume(shard, chunk, start, lanes, buf[:len(s.outPlaces)*cw], cw)
}

// RunStream streams lanes packed input vectors through the chunked
// pack→execute→reduce loop into sink — the large-batch fast path. It
// builds a one-shot Streamer; callers running many streams over the same
// program should hold a NewStreamer instead (zero steady-state
// allocations). Outputs are bit-identical to RunBatchWords whatever the
// chunking or sharding.
func (c *Compiled) RunStream(in []uint64, lanes int, sink StreamSink, opts StreamOptions) error {
	s, err := c.NewStreamer(opts)
	if err != nil {
		return err
	}
	defer s.Close()
	return s.Run(in, lanes, sink)
}

// liveMask returns the live-lane mask of chunk word b for a chunk of
// `lanes` lanes spanning cw words.
func liveMask(lanes, cw, b int) uint64 {
	if b < cw-1 {
		return ^uint64(0)
	}
	if rem := lanes % sim.WordLanes; rem != 0 {
		return uint64(1)<<uint(rem) - 1
	}
	return ^uint64(0)
}

// BitmapSink materializes every output bitmap in RunBatchWords layout:
// after a run, Out is output-major with stride W = ceil(lanes/64), word
// out[o*W+w] carrying output o of lanes 64w..64w+63, dead lanes zero. Out
// is reused when its capacity suffices — the streaming replacement for
// RunBatchWords' output block. Shards write disjoint word ranges, so no
// merge step exists.
type BitmapSink struct {
	Out []uint64

	w int // run stride, set at begin
}

func (k *BitmapSink) begin(g streamGeom) error {
	k.w = (g.lanes + 63) / 64
	need := g.numOut() * k.w
	if cap(k.Out) < need {
		k.Out = make([]uint64, need)
	} else {
		k.Out = k.Out[:need]
	}
	return nil
}

func (k *BitmapSink) consume(shard, chunk, start, lanes int, out []uint64, cw int) error {
	w0 := start / 64
	for o := 0; o*cw < len(out); o++ {
		copy(k.Out[o*k.w+w0:o*k.w+w0+cw], out[o*cw:(o+1)*cw])
	}
	return nil
}

func (k *BitmapSink) end(streamGeom) error { return nil }

// CountSink is the popcount-accumulate reduction: after a run, Counts[o]
// is how many lanes set output o (OutputNames order) — COUNT(*) over a
// bitmap-index plan without materializing the match bitmap.
type CountSink struct {
	Counts []int64

	shard [][]int64
}

func (k *CountSink) begin(g streamGeom) error {
	k.Counts = resizeI64(k.Counts, g.numOut())
	k.shard = resizeShardsI64(k.shard, g.shards, g.numOut())
	return nil
}

func (k *CountSink) consume(shard, chunk, start, lanes int, out []uint64, cw int) error {
	acc := k.shard[shard]
	for o := range acc {
		n := 0
		for _, w := range out[o*cw : (o+1)*cw] {
			n += bits.OnesCount64(w)
		}
		acc[o] += int64(n)
	}
	return nil
}

func (k *CountSink) end(streamGeom) error {
	for _, acc := range k.shard {
		for o, n := range acc {
			k.Counts[o] += n
		}
	}
	return nil
}

// AnySink reduces each output to EXISTS: Any[o] reports whether any lane
// set output o.
type AnySink struct {
	Any []bool

	shard [][]bool
}

func (k *AnySink) begin(g streamGeom) error {
	k.Any = resizeBool(k.Any, g.numOut(), false)
	k.shard = resizeShardsBool(k.shard, g.shards, g.numOut(), false)
	return nil
}

func (k *AnySink) consume(shard, chunk, start, lanes int, out []uint64, cw int) error {
	acc := k.shard[shard]
	for o := range acc {
		if acc[o] {
			continue
		}
		for _, w := range out[o*cw : (o+1)*cw] {
			if w != 0 {
				acc[o] = true
				break
			}
		}
	}
	return nil
}

func (k *AnySink) end(streamGeom) error {
	for _, acc := range k.shard {
		for o, v := range acc {
			if v {
				k.Any[o] = true
			}
		}
	}
	return nil
}

// AllSink reduces each output to FORALL: All[o] reports whether every lane
// set output o. Dead lanes do not count against it.
type AllSink struct {
	All []bool

	shard [][]bool
}

func (k *AllSink) begin(g streamGeom) error {
	k.All = resizeBool(k.All, g.numOut(), true)
	k.shard = resizeShardsBool(k.shard, g.shards, g.numOut(), true)
	return nil
}

func (k *AllSink) consume(shard, chunk, start, lanes int, out []uint64, cw int) error {
	acc := k.shard[shard]
	for o := range acc {
		if !acc[o] {
			continue
		}
		for b, w := range out[o*cw : (o+1)*cw] {
			if mask := liveMask(lanes, cw, b); w&mask != mask {
				acc[o] = false
				break
			}
		}
	}
	return nil
}

func (k *AllSink) end(streamGeom) error {
	for _, acc := range k.shard {
		for o, v := range acc {
			if !v {
				k.All[o] = false
			}
		}
	}
	return nil
}

// SelectSink is the select-mask gather: after a run, Rows holds the global
// lane indices whose Output bit (OutputNames index, default 0) is set, in
// ascending order — the row-ID list of a filter query. Matches gather into
// per-chunk buckets and concatenate in chunk order, so the result is
// deterministic whatever the scheduling; buckets and Rows reuse their
// capacity across runs.
type SelectSink struct {
	// Output selects which output drives the mask.
	Output int
	Rows   []int64

	buckets [][]int64
}

func (k *SelectSink) begin(g streamGeom) error {
	if k.Output < 0 || k.Output >= g.numOut() {
		return fmt.Errorf("sherlock: SelectSink output %d outside %d outputs", k.Output, g.numOut())
	}
	if cap(k.buckets) < g.chunks {
		old := k.buckets
		k.buckets = make([][]int64, g.chunks)
		copy(k.buckets, old)
	} else {
		k.buckets = k.buckets[:g.chunks]
	}
	for i := range k.buckets {
		k.buckets[i] = k.buckets[i][:0]
	}
	return nil
}

func (k *SelectSink) consume(shard, chunk, start, lanes int, out []uint64, cw int) error {
	bucket := k.buckets[chunk]
	for b, w := range out[k.Output*cw : (k.Output+1)*cw] {
		base := int64(start + b*64)
		for w != 0 {
			bucket = append(bucket, base+int64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	k.buckets[chunk] = bucket
	return nil
}

func (k *SelectSink) end(streamGeom) error {
	k.Rows = k.Rows[:0]
	for _, bucket := range k.buckets {
		k.Rows = append(k.Rows, bucket...)
	}
	return nil
}

// SumBitsSink folds selected outputs as the bit-planes of an unsigned
// value and accumulates their weighted popcount over all lanes:
//
//	Sum = Σ_i 2^i · popcount(output Planes[i])
//
// — the fused reduction behind bit-serial aggregate scans: a kernel that
// masks a value column's bit-planes with a filter predicate streams
// straight into SUM(value WHERE pred), no bitmap and no per-lane
// arithmetic. Planes lists output indices LSB first; nil selects every
// output in order. The caller bounds overflow: lanes · max value must fit
// uint64.
type SumBitsSink struct {
	Planes []int
	Sum    uint64

	planes []int
	shard  []uint64
}

func (k *SumBitsSink) begin(g streamGeom) error {
	if k.Planes == nil {
		k.planes = k.planes[:0]
		for o := 0; o < g.numOut(); o++ {
			k.planes = append(k.planes, o)
		}
	} else {
		k.planes = append(k.planes[:0], k.Planes...)
	}
	for _, o := range k.planes {
		if o < 0 || o >= g.numOut() {
			return fmt.Errorf("sherlock: SumBitsSink plane %d outside %d outputs", o, g.numOut())
		}
	}
	k.Sum = 0
	if cap(k.shard) < g.shards {
		k.shard = make([]uint64, g.shards)
	} else {
		k.shard = k.shard[:g.shards]
		clear(k.shard)
	}
	return nil
}

func (k *SumBitsSink) consume(shard, chunk, start, lanes int, out []uint64, cw int) error {
	var sum uint64
	for i, o := range k.planes {
		n := 0
		for _, w := range out[o*cw : (o+1)*cw] {
			n += bits.OnesCount64(w)
		}
		sum += uint64(n) << uint(i)
	}
	k.shard[shard] += sum
	return nil
}

func (k *SumBitsSink) end(streamGeom) error {
	for _, s := range k.shard {
		k.Sum += s
	}
	return nil
}

// resizeI64 returns a zeroed int64 slice of length n, reusing capacity.
func resizeI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func resizeShardsI64(s [][]int64, shards, n int) [][]int64 {
	if cap(s) < shards {
		old := s
		s = make([][]int64, shards)
		copy(s, old)
	} else {
		s = s[:shards]
	}
	for i := range s {
		s[i] = resizeI64(s[i], n)
	}
	return s
}

// resizeBool returns a bool slice of length n filled with v, reusing
// capacity.
func resizeBool(s []bool, n int, v bool) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = v
	}
	return s
}

func resizeShardsBool(s [][]bool, shards, n int, v bool) [][]bool {
	if cap(s) < shards {
		old := s
		s = make([][]bool, shards)
		copy(s, old)
	} else {
		s = s[:shards]
	}
	for i := range s {
		s[i] = resizeBool(s[i], n, v)
	}
	return s
}
