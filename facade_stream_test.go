package sherlock

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"sherlock/internal/dfg"
)

// streamEdgeLanes are the chunk-edge row counts the streaming pipeline
// must get right: single lane, word boundaries, machine-block boundaries,
// and chunk boundaries on either side.
var streamEdgeLanes = []int{1, 63, 64, 65, 255, 256, 257, 4095, 4096}

// atChunkWords returns a Compiled for the same program whose stream runs
// blockWords-word chunks (0 auto-sizes), so tests can put chunk edges where
// they want them. It has its own stream; c is untouched.
func atChunkWords(c *Compiled, blockWords int) *Compiled {
	return &Compiled{
		Graph:      c.Graph,
		Program:    c.Program,
		Stats:      c.Stats,
		Resynth:    c.Resynth,
		opts:       c.opts,
		target:     c.target,
		source:     c.source,
		outNames:   c.outNames,
		outPlaces:  c.outPlaces,
		outErr:     c.outErr,
		chunkWords: blockWords,
	}
}

// randPackedBatch builds a slot-major packed input block with
// deterministic pseudo-random bits (dead lanes of the last word carry
// garbage on purpose — the pipeline must mask them out of every result).
func randPackedBatch(c *Compiled, lanes int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	W := (lanes + 63) / 64
	in := make([]uint64, len(c.InputNames())*W)
	for i := range in {
		in[i] = rng.Uint64()
	}
	return in
}

// hostCount pops each output of a RunBatchWords block.
func hostCount(out []uint64, numOut, W int) []int64 {
	counts := make([]int64, numOut)
	for o := 0; o < numOut; o++ {
		for _, w := range out[o*W : (o+1)*W] {
			counts[o] += int64(bits.OnesCount64(w))
		}
	}
	return counts
}

// recordSink is the tests' word-for-word view of the sink path: it copies
// every chunk a run hands its sink into one block in RunBatchWords layout
// (output-major, stride ceil(lanes/64)), and fails the run unless each
// chunk arrives exactly once, at its chunk-aligned start, with its width.
// Shards write disjoint chunks, so concurrent consume calls need no lock.
type recordSink struct {
	Out []uint64

	w          int
	lanes      int
	chunkLanes int
	seen       []bool
}

func (k *recordSink) begin(g streamGeom) error {
	k.w = laneWords(g.lanes)
	k.lanes, k.chunkLanes = g.lanes, g.chunkLanes
	k.Out = make([]uint64, g.numOut()*k.w)
	k.seen = make([]bool, g.chunks)
	return nil
}

func (k *recordSink) consume(shard, chunk, start, lanes int, out []uint64, cw int) error {
	if k.seen[chunk] {
		return fmt.Errorf("chunk %d consumed twice", chunk)
	}
	k.seen[chunk] = true
	if start != chunk*k.chunkLanes || lanes != min(k.chunkLanes, k.lanes-start) || cw != laneWords(lanes) {
		return fmt.Errorf("chunk %d: start %d, %d lanes, %d words", chunk, start, lanes, cw)
	}
	w0 := start / 64
	for o := 0; o*cw < len(out); o++ {
		copy(k.Out[o*k.w+w0:o*k.w+w0+cw], out[o*cw:(o+1)*cw])
	}
	return nil
}

func (k *recordSink) end(streamGeom) error {
	for c, ok := range k.seen {
		if !ok {
			return fmt.Errorf("chunk %d never consumed", c)
		}
	}
	return nil
}

// TestRunStreamMatchesBatchWords is the differential anchor: the words a
// Streamer hands its sink must reproduce RunBatchWords bit for bit at every
// awkward edge, whatever the chunking or sharding.
func TestRunStreamMatchesBatchWords(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	numOut := len(c.OutputNames())
	cases := []struct {
		parallelism, blockWords int
	}{
		{1, 2},
		{3, 2},
		{2, 16},
		{2, 0}, // auto chunk width
	}
	for ci, tc := range cases {
		s, err := atChunkWords(c, tc.blockWords).NewStreamer(StreamOptions{Parallelism: tc.parallelism})
		if err != nil {
			t.Fatal(err)
		}
		var sink recordSink
		for _, lanes := range streamEdgeLanes {
			in := randPackedBatch(c, lanes, int64(lanes))
			want, err := c.RunBatchWords(in, lanes, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(in, lanes, &sink); err != nil {
				t.Fatalf("case %d lanes %d: %v", ci, lanes, err)
			}
			W := (lanes + 63) / 64
			if len(sink.Out) != numOut*W {
				t.Fatalf("case %d lanes %d: sink has %d words, want %d", ci, lanes, len(sink.Out), numOut*W)
			}
			for i := range want {
				if sink.Out[i] != want[i] {
					t.Fatalf("case %d lanes %d: word %d = %#x, want %#x (output %d)",
						ci, lanes, i, sink.Out[i], want[i], i/W)
				}
			}
		}
		s.Close()
	}
}

// goldenWords evaluates c's DFG with the bit-sliced golden model
// (dfg.WordEvaluator, the CPU backend's evaluator) over a slot-major
// packed block and returns the output-major block, dead lanes zeroed. It
// shares no code with the ExecMachine, so it is an independent oracle for
// the chunk-edge differentials.
func goldenWords(c *Compiled, in []uint64, lanes int) []uint64 {
	slot := make(map[string]int)
	for i, name := range c.InputNames() {
		slot[name] = i
	}
	ins := c.Graph.Inputs()
	numOut := len(c.Graph.Outputs())
	ev := dfg.NewWordEvaluator(c.Graph)
	W := (lanes + 63) / 64
	out := make([]uint64, numOut*W)
	words := make([]uint64, len(ins))
	for w := 0; w < W; w++ {
		for i, id := range ins {
			words[i] = 0 // an input the mapper folded away cannot matter
			if s, ok := slot[c.Graph.Name(id)]; ok {
				words[i] = in[s*W+w]
			}
		}
		mask := ^uint64(0)
		if rem := lanes - w*64; rem < 64 {
			mask = uint64(1)<<uint(rem) - 1
		}
		for o, v := range ev.Eval(words) {
			out[o*W+w] = v & mask
		}
	}
	return out
}

// checkGolden compares a packed output block against goldenWords.
func checkGolden(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, golden model has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d = %#x, golden model %#x", label, i, got[i], want[i])
		}
	}
}

// TestRunStreamMatchesGoldenModel checks the streamed bitmap and
// RunBatchWords against the DFG golden model at the fixed edge lane counts
// and at the chunk edges, for the auto chunk width and a forced 2-word
// width.
func TestRunStreamMatchesGoldenModel(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, blockWords := range []int{0, 2} {
		c := atChunkWords(c, blockWords)
		s, err := c.NewStreamer(StreamOptions{Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		chunk := s.ChunkLanes()
		lanes := append([]int{chunk - 1, chunk, chunk + 1, 2*chunk + 1}, streamEdgeLanes...)
		var sink recordSink
		for _, n := range lanes {
			in := randPackedBatch(c, n, int64(n)+5)
			want := goldenWords(c, in, n)
			if err := s.Run(in, n, &sink); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "stream", sink.Out, want)
			got, err := c.RunBatchWords(in, n, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "RunBatchWords", got, want)
		}
	}
}

// TestRunStreamMatchesScalar cross-checks the stream lane by lane against
// the kernel's one-vector DFG evaluation — the slowest, simplest oracle.
func TestRunStreamMatchesScalar(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	names := c.InputNames()
	outNames := c.OutputNames()
	lanes := 70 // spans a word boundary
	in := randPackedBatch(c, lanes, 99)
	s, err := atChunkWords(c, 1).NewStreamer(StreamOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sink recordSink
	if err := s.Run(in, lanes, &sink); err != nil {
		t.Fatal(err)
	}
	W := (lanes + 63) / 64
	for l := 0; l < lanes; l++ {
		iv := make(map[string]bool, len(names))
		for s, n := range names {
			iv[n] = in[s*W+l/64]>>uint(l%64)&1 == 1
		}
		want, err := c.Evaluate(iv)
		if err != nil {
			t.Fatal(err)
		}
		for o, n := range outNames {
			got := sink.Out[o*W+l/64]>>uint(l%64)&1 == 1
			if got != want[n] {
				t.Fatalf("lane %d output %q: stream=%v evaluate=%v", l, n, got, want[n])
			}
		}
	}
}

// TestStreamSinks pins both fused reductions against host math over the
// RunBatchWords reference output, at every edge lane count.
func TestStreamSinks(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	numOut := len(c.OutputNames())
	s, err := atChunkWords(c, 2).NewStreamer(StreamOptions{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var (
		count  CountSink
		sum    SumBitsSink
		bitmap recordSink
	)
	for _, lanes := range streamEdgeLanes {
		in := randPackedBatch(c, lanes, 7*int64(lanes)+1)
		want, err := c.RunBatchWords(in, lanes, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		W := (lanes + 63) / 64
		wantCounts := hostCount(want, numOut, W)

		if err := s.Run(in, lanes, &count); err != nil {
			t.Fatal(err)
		}
		for o, n := range wantCounts {
			if count.Counts[o] != n {
				t.Errorf("lanes %d: CountSink[%d] = %d, want %d", lanes, o, count.Counts[o], n)
			}
		}

		if err := s.Run(in, lanes, &sum); err != nil {
			t.Fatal(err)
		}
		var wantSum uint64
		for o := 0; o < numOut; o++ {
			wantSum += uint64(wantCounts[o]) << uint(o)
		}
		if sum.Sum != wantSum {
			t.Errorf("lanes %d: SumBitsSink = %d, want %d", lanes, sum.Sum, wantSum)
		}

		// One streamer serves heterogeneous sinks back to back.
		if err := s.Run(in, lanes, &bitmap); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if bitmap.Out[i] != want[i] {
				t.Fatalf("lanes %d: bitmap word %d diverged after sink reuse", lanes, i)
			}
		}
	}
}

// TestRunStreamMillionRows runs the 1e6±1 differential: RunBatchWords must
// match the golden model, and the streamed count and bitmap must match
// RunBatchWords, on the same million-row block.
func TestRunStreamMillionRows(t *testing.T) {
	if testing.Short() {
		t.Skip("million-row differential skipped in -short")
	}
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	numOut := len(c.OutputNames())
	s, err := c.NewStreamer(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, lanes := range []int{1_000_000 - 1, 1_000_000, 1_000_000 + 1} {
		in := randPackedBatch(c, lanes, int64(lanes))
		want, err := c.RunBatchWords(in, lanes, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "million-row RunBatchWords", want, goldenWords(c, in, lanes))
		W := (lanes + 63) / 64
		wantCounts := hostCount(want, numOut, W)

		var count CountSink
		if err := s.Run(in, lanes, &count); err != nil {
			t.Fatal(err)
		}
		for o := range wantCounts {
			if count.Counts[o] != wantCounts[o] {
				t.Errorf("lanes %d: count[%d] = %d, want %d", lanes, o, count.Counts[o], wantCounts[o])
			}
		}

		var bitmap recordSink
		if err := s.Run(in, lanes, &bitmap); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if bitmap.Out[i] != want[i] {
				t.Fatalf("lanes %d: bitmap word %d = %#x, want %#x", lanes, i, bitmap.Out[i], want[i])
			}
		}
	}
}

// TestRunStreamValidation: bad geometry and bad sinks fail cleanly.
func TestRunStreamValidation(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.NewStreamer(StreamOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var sink CountSink
	if err := s.Run(nil, 0, &sink); err == nil {
		t.Error("zero lanes should fail")
	}
	if err := s.Run(make([]uint64, 1), 1024, &sink); err == nil {
		t.Error("short input block should fail")
	}
	sum := &SumBitsSink{Planes: []int{99}}
	in := randPackedBatch(c, 64, 1)
	if err := s.Run(in, 64, sum); err == nil {
		t.Error("out-of-range SumBitsSink plane should fail")
	}
}

// TestStreamerZeroAlloc proves the steady-state 0 allocs/op contract: a
// warmed Streamer + fused sink pair allocates nothing per run.
func TestStreamerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	s, err := atChunkWords(c, 4).NewStreamer(StreamOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lanes := 4096
	in := randPackedBatch(c, lanes, 3)
	var count CountSink
	// Warm the sink's accumulators.
	if err := s.Run(in, lanes, &count); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.Run(in, lanes, &count); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warmed Streamer.Run allocates %.1f objects/run, want 0", allocs)
	}
}

// TestPackedRunsConcurrent: RunBatchWords and Streamer.Run calls overlap
// on one Compiled (one shared stream, one Streamer, a sink per run), at
// lane counts on both sides of the chunk edges; every result must match
// the DFG golden model.
func TestPackedRunsConcurrent(t *testing.T) {
	base, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, blockWords := range []int{0, 2} {
		c := atChunkWords(base, blockWords)
		s, err := c.NewStreamer(StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		chunk := s.ChunkLanes()
		lanes := []int{1, 255, 256, chunk - 1, chunk, chunk + 1, 2*chunk + 1}
		ins := make([][]uint64, len(lanes))
		wants := make([][]uint64, len(lanes))
		for i, n := range lanes {
			ins[i] = randPackedBatch(c, n, int64(n)+11)
			wants[i] = goldenWords(c, ins[i], n)
		}
		const G = 6
		var wg sync.WaitGroup
		errs := make(chan error, G)
		for g := 0; g < G; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var sink recordSink
				var out []uint64
				for r := 0; r < 3*len(lanes); r++ {
					i := (g + r) % len(lanes)
					got, label := out, "RunBatchWords"
					var err error
					if g%2 == 0 {
						got, err = c.RunBatchWords(ins[i], lanes[i], out, g%3)
						out = got
					} else {
						label = "Streamer.Run"
						err = s.Run(ins[i], lanes[i], &sink)
						got = sink.Out
					}
					if err != nil {
						errs <- fmt.Errorf("width %d goroutine %d %s lanes %d: %v", blockWords, g, label, lanes[i], err)
						return
					}
					for w := range wants[i] {
						if got[w] != wants[i][w] {
							errs <- fmt.Errorf("width %d goroutine %d %s lanes %d: word %d = %#x, golden model %#x",
								blockWords, g, label, lanes[i], w, got[w], wants[i][w])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
