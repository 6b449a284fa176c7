package sim

// Chunked streaming execution: arbitrarily large lane counts flow through a
// bounded set of wide ExecMachines instead of materializing one machine (or
// one output block) per 256-lane group. Run claims chunks dynamically on the
// caller's goroutine plus up to min(S, chunks)-1 workers started for that
// run (S = the shard count); each shard takes an idle machine from the
// stream and packs, executes and reduces its chunks inline before claiming
// the next, so the N shards execute N chunks concurrently. A one-chunk run
// never leaves the caller's goroutine, and no goroutine persists between
// runs.
//
// Runs may overlap: per-run state and machines come from the stream's idle
// lists, so concurrent callers share one decoded program and one machine
// class, and the stream holds as many machines as its busiest moment used.
//
// Stages do not overlap within a shard: they share one core's cache and
// memory bandwidth, and a pipelined shard (three goroutines over a
// three-machine ring) measured slower than this loop on the million-row
// COUNT plan (DESIGN.md §6b).
//
// Error semantics mirror pool.Run: the first error by chunk index wins,
// later chunks are skipped, and Run returns after every worker has
// finished.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxStreamBlockWords caps the auto-sized chunk width: 256 words = 16384
// lanes per chunk, wide enough to amortize per-micro-op dispatch to noise.
const MaxStreamBlockWords = 256

// streamStateBudget is the per-machine state footprint (cells + row buffer
// + input scratch) the auto sizing targets: roughly an L2's worth, so a
// chunk's working set stays cache-resident across pack, exec and reduce.
const streamStateBudget = 1 << 20

// StreamConfig sizes a Stream.
type StreamConfig struct {
	// BlockWords is the chunk width B in words (B*64 lanes per chunk).
	// 0 auto-sizes: the largest B in [DefaultBlockWords,
	// MaxStreamBlockWords] that keeps one machine's state near
	// streamStateBudget bytes.
	BlockWords int
	// Shards is the number of chunks one run executes concurrently, each
	// on its own machine (0 = runtime.GOMAXPROCS(0)).
	Shards int
}

// PackFunc fills m's input scratch (m.InputBlock()) for the chunk covering
// lanes [startLane, startLane+lanes). The machine's lane geometry is
// already set; every input slot's ceil(lanes/64) leading words must be
// overwritten (the stream skips Reset's scratch clears).
type PackFunc func(m *ExecMachine, chunk, startLane, lanes int) error

// ReduceFunc consumes one executed chunk from m — readout, fold, copy-out.
// It runs on the goroutine that packed and executed the chunk, never
// concurrently for one shard, so per-shard accumulators need no locking;
// chunks arrive in arbitrary global order.
type ReduceFunc func(shard int, m *ExecMachine, chunk, startLane, lanes int) error

// Stream is a reusable chunked executor over one decoded program, safe for
// concurrent Runs. Machines and per-run state persist across runs on idle
// lists, so a warmed Stream runs with zero per-call allocations. A Stream
// holds no goroutines between runs: dropping it without Close leaks
// nothing, and Close only makes later Runs fail.
type Stream struct {
	e      *Exec
	block  int // B, words per chunk
	shards int

	mu       sync.Mutex
	closed   bool
	jobs     []*streamJob   // idle per-run states
	machines []*ExecMachine // idle machines, built on a shard's first chunk
}

// streamJob is the mutable state of one run, reused across runs.
type streamJob struct {
	s      *Stream
	worker func() // j.work, bound once so starting a worker allocates nothing

	lanes      int
	chunkLanes int
	chunks     int
	pack       PackFunc
	reduce     ReduceFunc

	next   atomic.Int64
	shards atomic.Int64 // shard ids handed to workers (the caller is shard 0)
	stop   atomic.Bool

	mu       sync.Mutex
	errChunk int
	err      error

	wg sync.WaitGroup
}

// fail records err for chunk, keeping the lowest-indexed failure (the one
// a sequential run would have hit first), and halts further claiming.
func (j *streamJob) fail(chunk int, err error) {
	j.mu.Lock()
	if j.err == nil || chunk < j.errChunk {
		j.errChunk, j.err = chunk, err
	}
	j.mu.Unlock()
	j.stop.Store(true)
}

// NewStream builds a stream over a decoded program. It allocates no
// machine and starts no goroutine; both happen on demand in Run.
func NewStream(e *Exec, cfg StreamConfig) (*Stream, error) {
	block := cfg.BlockWords
	if block == 0 {
		block = autoBlockWords(e)
	}
	if block < 1 {
		return nil, fmt.Errorf("sim: stream block of %d words", cfg.BlockWords)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return &Stream{e: e, block: block, shards: shards}, nil
}

// autoBlockWords picks the cache-sized chunk width for a program: small
// kernels get wide blocks (cheap per-lane dispatch), huge kernels collapse
// toward the 4-word batch default so one chunk's state still fits.
func autoBlockWords(e *Exec) int {
	state := (e.numCells + e.numBuf + len(e.inputNames)) * 8
	if state < 8 {
		state = 8
	}
	b := streamStateBudget / state
	if b < DefaultBlockWords {
		b = DefaultBlockWords
	}
	if b > MaxStreamBlockWords {
		b = MaxStreamBlockWords
	}
	return b
}

// BlockWords returns B, the chunk width in words.
func (s *Stream) BlockWords() int { return s.block }

// ChunkLanes returns the lanes per chunk (B*64).
func (s *Stream) ChunkLanes() int { return s.block * WordLanes }

// Shards returns the maximum number of chunks one run executes
// concurrently; reduce sees shard ids in [0, Shards()).
func (s *Stream) Shards() int { return s.shards }

// Run streams lanes input vectors through the stream: chunk c covers
// lanes [c*ChunkLanes(), ...), pack fills each chunk's input scratch and
// reduce consumes its outputs. Runs may overlap; the first error (by chunk
// index) is returned after every worker of the run has finished.
func (s *Stream) Run(lanes int, pack PackFunc, reduce ReduceFunc) error {
	return s.RunShards(lanes, 0, pack, reduce)
}

// RunShards is Run with at most shards chunks executing concurrently (0, or
// more than Shards(), selects Shards()): reduce then sees shard ids in
// [0, min(shards, Shards())).
func (s *Stream) RunShards(lanes, shards int, pack PackFunc, reduce ReduceFunc) error {
	if lanes <= 0 {
		return fmt.Errorf("sim: stream of %d lanes", lanes)
	}
	if shards <= 0 || shards > s.shards {
		shards = s.shards
	}
	j, err := s.getJob()
	if err != nil {
		return err
	}
	j.lanes = lanes
	j.chunkLanes = s.ChunkLanes()
	j.chunks = (lanes + j.chunkLanes - 1) / j.chunkLanes
	j.pack, j.reduce = pack, reduce
	j.next.Store(0)
	j.shards.Store(0)
	j.stop.Store(false)
	j.err, j.errChunk = nil, 0
	workers := min(shards, j.chunks) - 1
	j.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go j.worker()
	}
	j.drain(0)
	j.wg.Wait()
	err = j.err
	j.pack, j.reduce, j.err = nil, nil, nil
	s.mu.Lock()
	s.jobs = append(s.jobs, j)
	s.mu.Unlock()
	return err
}

// Close makes later Runs fail. Idempotent; runs already in flight
// complete normally.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// getJob takes an idle run state, or builds one.
func (s *Stream) getJob() (*streamJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("sim: Run on a closed Stream")
	}
	if n := len(s.jobs); n > 0 {
		j := s.jobs[n-1]
		s.jobs = s.jobs[:n-1]
		return j, nil
	}
	j := &streamJob{s: s}
	j.worker = j.work
	return j, nil
}

// getMachine takes an idle machine, or builds one at the chunk width.
func (s *Stream) getMachine() *ExecMachine {
	s.mu.Lock()
	if n := len(s.machines); n > 0 {
		m := s.machines[n-1]
		s.machines = s.machines[:n-1]
		s.mu.Unlock()
		return m
	}
	s.mu.Unlock()
	return s.e.newMachine(s.block)
}

// putMachine returns a machine to the idle list.
func (s *Stream) putMachine(m *ExecMachine) {
	s.mu.Lock()
	s.machines = append(s.machines, m)
	s.mu.Unlock()
}

// work is one worker goroutine of a run: it takes the next shard id and
// drains chunks on it.
func (j *streamJob) work() {
	j.drain(int(j.shards.Add(1)))
	j.wg.Done()
}

// drain claims chunks until the run is done or stopping, and packs,
// executes and reduces each one inline on one machine, taken on the
// shard's first chunk and returned when it runs out of chunks.
func (j *streamJob) drain(shard int) {
	var m *ExecMachine
	for {
		chunk, start, lanes, ok := j.claim()
		if !ok {
			break
		}
		if m == nil {
			m = j.s.getMachine()
		}
		m.setLanes(lanes)
		err := j.pack(m, chunk, start, lanes)
		if err == nil {
			err = m.Run(m.InputBlock())
		}
		if err == nil {
			err = j.reduce(shard, m, chunk, start, lanes)
		}
		if err != nil {
			j.fail(chunk, err)
		}
	}
	if m != nil {
		j.s.putMachine(m)
	}
}

// claim takes the next unprocessed chunk, or ok=false when the run is done
// (or stopping). Chunks are claimed dynamically so shards load-balance.
func (j *streamJob) claim() (chunk, start, lanes int, ok bool) {
	if j.stop.Load() {
		return 0, 0, 0, false
	}
	chunk = int(j.next.Add(1)) - 1
	if chunk >= j.chunks {
		return 0, 0, 0, false
	}
	start = chunk * j.chunkLanes
	lanes = j.lanes - start
	if lanes > j.chunkLanes {
		lanes = j.chunkLanes
	}
	return chunk, start, lanes, true
}
