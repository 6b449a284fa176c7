package sherlock

// Streaming execution: the facade over internal/sim's chunked stream.
// Each Compiled owns one stream; RunBatchWords and Streamer.Run are the
// two ways to consume it. The input block is split into cache-sized
// chunks, each shard packs, executes and reduces its chunks inline on one
// wide ExecMachine, and the two fused word-level reduction sinks
// (popcount-accumulate COUNT, bit-plane SUM) answer aggregate queries
// without ever materializing full output bitmaps.

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"sherlock/internal/sim"
)

// StreamOptions configures NewStreamer.
type StreamOptions struct {
	// Parallelism caps the shard count of each run — chunks executed
	// concurrently, each shard on its own machine (0, or more than
	// runtime.GOMAXPROCS(0) at the program's first run, selects that
	// GOMAXPROCS). The chunk width auto-sizes so one chunk's machine state
	// stays cache-resident (wide chunks for small kernels, batch-width for
	// huge ones).
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
// sinks are CountSink and SumBitsSink. RunBatchWords materializes the
// output bitmaps when a caller needs them.
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

// Streamer is a handle for streaming runs of one compiled program: the
// Compiled plus a per-run shard cap. Runs execute on the Compiled's one
// stream, so overlapping Runs on one Streamer are allowed, each with its
// own sink, and a warmed Streamer+sink pair allocates nothing. A Streamer
// holds no goroutines; Close makes later runs fail.
type Streamer struct {
	c      *Compiled
	shards int
	closed atomic.Bool
}

// NewStreamer builds a streaming handle. It starts no goroutine and builds
// no machine until a chunk runs.
func (c *Compiled) NewStreamer(opts StreamOptions) (*Streamer, error) {
	st, err := c.stream()
	if err != nil {
		return nil, err
	}
	if _, _, err := c.outputs(); err != nil {
		return nil, err
	}
	return &Streamer{c: c, shards: shardCap(st, opts.Parallelism)}, nil
}

// shardCap resolves a parallelism setting to a run's shard count: n, or
// the stream's shard count when n is 0 or exceeds it.
func shardCap(st *sim.Stream, n int) int {
	if n <= 0 || n > st.Shards() {
		return st.Shards()
	}
	return n
}

// ChunkLanes returns the chunk width in lanes.
func (s *Streamer) ChunkLanes() int { return s.c.streamVal.ChunkLanes() }

// Close makes later Runs fail. Idempotent; runs in flight complete.
func (s *Streamer) Close() { s.closed.Store(true) }

// Run streams lanes packed input vectors (RunBatchWords slot-major layout,
// stride ceil(lanes/64)) through the stream into sink. The sink sees the
// words of RunBatchWords' output block, bit for bit, whatever the chunking
// or sharding. A warmed Streamer+sink pair runs with zero allocations.
func (s *Streamer) Run(in []uint64, lanes int, sink StreamSink) error {
	if s.closed.Load() {
		return fmt.Errorf("sherlock: Run on a closed Streamer")
	}
	_, err := s.c.runPacked(in, lanes, nil, sink, s.shards)
	return err
}

// packedRun is the per-call state of one packed execution on a Compiled's
// stream: the caller's input block and either its output block
// (RunBatchWords) or a sink with per-shard chunk buffers (Streamer.Run).
// Idle runs wait on a per-Compiled list and bind their pack/reduce methods
// once, so a warm call allocates nothing.
type packedRun struct {
	numIn  int
	places []Place // readout cell of each output

	in   []uint64
	inW  int
	out  []uint64   // output block, stride inW; nil when a sink consumes
	sink StreamSink // nil for RunBatchWords
	bufs [][]uint64 // per shard: numOut * chunk words, built on first use

	pack   sim.PackFunc
	reduce sim.ReduceFunc
}

// runPacked executes lanes packed input vectors (slot-major, stride
// ceil(lanes/64)) on the Compiled's stream with at most parallelism chunks
// in flight (0 = the stream's shard count). With a nil sink the outputs
// copy into out, resized to the output block (reused when its capacity
// suffices), which is returned; otherwise each chunk's outputs go to sink.
func (c *Compiled) runPacked(in []uint64, lanes int, out []uint64, sink StreamSink, parallelism int) ([]uint64, error) {
	if lanes <= 0 {
		return nil, fmt.Errorf("sherlock: packed run needs at least one lane, got %d", lanes)
	}
	st, err := c.stream()
	if err != nil {
		return nil, err
	}
	outNames, outPlaces, err := c.outputs()
	if err != nil {
		return nil, err
	}
	numIn := len(c.inputNames())
	W := laneWords(lanes)
	if len(in) < numIn*W {
		return nil, fmt.Errorf("sherlock: input block has %d words, need %d (%d inputs x %d lane words)",
			len(in), numIn*W, numIn, W)
	}
	shards := shardCap(st, parallelism)
	g := streamGeom{
		lanes:      lanes,
		chunkLanes: st.ChunkLanes(),
		chunks:     (lanes + st.ChunkLanes() - 1) / st.ChunkLanes(),
		shards:     shards,
		outNames:   outNames,
	}
	if sink == nil {
		need := len(outNames) * W
		if cap(out) < need {
			out = make([]uint64, need)
		} else {
			out = out[:need]
		}
	} else if err := sink.begin(g); err != nil {
		return nil, err
	}

	r := c.getRun(numIn, outPlaces)
	if len(r.bufs) < shards {
		r.bufs = append(r.bufs, make([][]uint64, shards-len(r.bufs))...)
	}
	r.in, r.inW, r.out, r.sink = in, W, out, sink
	err = st.RunShards(lanes, shards, r.pack, r.reduce)
	r.in, r.out, r.sink = nil, nil, nil
	c.runMu.Lock()
	c.runs = append(c.runs, r)
	c.runMu.Unlock()
	if err != nil {
		return nil, err
	}
	if sink != nil {
		return nil, sink.end(g)
	}
	return out, nil
}

// getRun takes an idle per-call state, or builds one.
func (c *Compiled) getRun(numIn int, places []Place) *packedRun {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if n := len(c.runs); n > 0 {
		r := c.runs[n-1]
		c.runs = c.runs[:n-1]
		return r
	}
	r := &packedRun{numIn: numIn, places: places}
	r.pack, r.reduce = r.packChunk, r.reduceChunk
	return r
}

// packChunk copies the chunk's slice of the caller's slot-major block into
// the machine's input scratch — the only per-lane input cost (no maps, no
// per-vector decode).
func (r *packedRun) packChunk(m *sim.ExecMachine, chunk, start, lanes int) error {
	w0 := start / sim.WordLanes // chunk starts are word-aligned
	gw := laneWords(lanes)
	in := m.InputBlock()
	B := m.BlockWords()
	for slot := 0; slot < r.numIn; slot++ {
		copy(in[slot*B:slot*B+gw], r.in[slot*r.inW+w0:slot*r.inW+w0+gw])
	}
	return nil
}

// reduceChunk reads the chunk's output words straight into the caller's
// output block, or into the shard's buffer for the sink.
func (r *packedRun) reduceChunk(shard int, m *sim.ExecMachine, chunk, start, lanes int) error {
	cw := laneWords(lanes)
	if r.sink == nil {
		w0 := start / sim.WordLanes
		for oi, p := range r.places {
			if _, err := m.OutWords(p, r.out[oi*r.inW+w0:oi*r.inW+w0+cw]); err != nil {
				return err
			}
		}
		return nil
	}
	buf := r.bufs[shard]
	if buf == nil {
		buf = make([]uint64, len(r.places)*m.BlockWords())
		r.bufs[shard] = buf
	}
	for oi, p := range r.places {
		if _, err := m.OutWords(p, buf[oi*cw:oi*cw+cw]); err != nil {
			return err
		}
	}
	return r.sink.consume(shard, chunk, start, lanes, buf[:len(r.places)*cw], cw)
}

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
