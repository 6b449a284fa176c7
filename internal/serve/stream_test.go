package serve

import (
	"math/rand"
	"runtime"
	"testing"

	"sherlock"
)

// directChunkLanes is the chunk width of the kernel's stream: the lane
// count above which a direct request spans several chunks.
func directChunkLanes(t *testing.T, e *Entry) int {
	t.Helper()
	s, err := e.Compiled.NewStreamer(sherlock.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s.ChunkLanes()
}

// TestCoalesceStreamBulk pins the direct path: every direct request, one
// chunk or many, streams as one RunBatchWords call (StreamRuns counts it
// with DirectRuns) and is bit-identical to RunBatchWords at the chunk
// edges.
func TestCoalesceStreamBulk(t *testing.T) {
	e := mustCompile(t, kStage)
	chunk := directChunkLanes(t, e)
	q := NewCoalescer(e.Compiled, CoalescerConfig{MaxBatchLanes: 64, Window: -1})
	rng := rand.New(rand.NewSource(11))
	var direct int64
	for _, lanes := range []int{100, 4096, chunk - 1, chunk, chunk + 1, 2*chunk + 1} {
		batch := randBatch(rng, e.InputNames, lanes)
		in, _ := packWords(e.InputNames, batch)
		want, err := e.Compiled.RunBatchWords(in, lanes, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Submit(in, lanes, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkWordsEqual(t, "direct run", got, want)
		direct++
		st := q.Stats()
		if st.StreamRuns != direct {
			t.Fatalf("lanes %d (chunk %d): StreamRuns = %d, want %d", lanes, chunk, st.StreamRuns, direct)
		}
		if st.DirectRuns != direct {
			t.Fatalf("lanes %d: DirectRuns = %d, want %d", lanes, st.DirectRuns, direct)
		}
	}
}

// TestCoalesceStreamMatchesGoldenModel drives every test kernel's direct
// path at the fixed edge lane counts and the chunk edges, against the DFG
// golden model.
func TestCoalesceStreamMatchesGoldenModel(t *testing.T) {
	for ki, src := range testKernels() {
		e := mustCompile(t, src)
		chunk := directChunkLanes(t, e)
		q := NewCoalescer(e.Compiled, CoalescerConfig{MaxBatchLanes: 1, Window: -1, Parallelism: 2})
		lanes := []int{1, 63, 64, 65, 255, 256, 257, 4095, 4096, chunk - 1, chunk, chunk + 1, 2*chunk + 1}
		for _, n := range lanes {
			rng := rand.New(rand.NewSource(int64(ki*100000 + n)))
			in := make([]uint64, len(e.InputNames)*laneWords(n))
			for i := range in {
				in[i] = rng.Uint64() // dead lanes carry garbage on purpose
			}
			got, err := q.Submit(in, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The CPU backend evaluates the DFG golden model
			// (dfg.WordEvaluator) and shares no code with the ExecMachine.
			want, err := runCPU(e, in, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkWordsEqual(t, "direct run vs golden model", got, want)
		}
		if st := q.Stats(); st.StreamRuns != int64(len(lanes)) || st.DirectRuns != int64(len(lanes)) {
			t.Fatalf("kernel %d (chunk %d): StreamRuns = %d, DirectRuns = %d; want %d each",
				ki, chunk, st.StreamRuns, st.DirectRuns, len(lanes))
		}
	}
}

// TestServiceStreamConfig: the service's configuration reaches each
// kernel's coalescer, the service sums StreamRuns, and Close leaves the
// service usable.
func TestServiceStreamConfig(t *testing.T) {
	s := NewService(Config{Window: -1, Parallelism: 2, Backend: BackendCIM})
	e, err := s.CompileC(kMux, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	lanes := directChunkLanes(t, e) + 1
	rng := rand.New(rand.NewSource(14))
	batch := randBatch(rng, e.InputNames, lanes)
	in, _ := packWords(e.InputNames, batch)
	want, err := e.Compiled.RunBatchWords(in, lanes, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for round := int64(1); round <= 2; round++ {
		got, _, err := s.RunWords(e, in, lanes, nil, BackendCIM)
		if err != nil {
			t.Fatal(err)
		}
		checkWordsEqual(t, "service streamed run", got, want)
		if st := s.Stats(); st.Coalesce.StreamRuns != round {
			t.Fatalf("round %d: service StreamRuns = %d, want %d", round, st.Coalesce.StreamRuns, round)
		}
		if p := e.coal.parallelism; p != 2 {
			t.Fatalf("coalescer runs with parallelism %d, want Config.Parallelism = 2", p)
		}
		s.Close()
	}
}

// TestServiceDrainFlushesEvictedWindow: Drain still flushes a batch window
// whose kernel the registry has evicted, and a recompiled kernel gets a
// fresh queue while the counters keep the evicted one's traffic.
func TestServiceDrainFlushesEvictedWindow(t *testing.T) {
	s := NewService(Config{Window: -1, Backend: BackendCIM, Registry: RegistryConfig{MaxPrograms: 1}})
	a, err := s.CompileC(kMaj, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	in, _ := packWords(a.InputNames, randBatch(rng, a.InputNames, 8))
	want, err := a.Compiled.RunBatchWords(in, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		out []uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, _, err := s.RunWords(a, in, 8, nil, BackendCIM)
		done <- result{out, err}
	}()
	for s.coalescerFor(a).PendingLanes() == 0 {
		runtime.Gosched()
	}
	if _, err := s.CompileC(kStage, testOptions()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(a.Key); ok {
		t.Fatal("kernel not evicted")
	}
	s.Drain()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	checkWordsEqual(t, "drained evicted window", r.out, want)

	again, err := s.CompileC(kMaj, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	bulk, _ := packWords(again.InputNames, randBatch(rng, again.InputNames, 300))
	if _, _, err := s.RunWords(again, bulk, 300, nil, BackendCIM); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Queues != 2 || st.Coalesce.Requests != 2 || st.Coalesce.Flushes != 1 || st.Coalesce.DirectRuns != 1 {
		t.Fatalf("stats %+v (queues %d), want 2 queues, 2 requests, 1 flush, 1 direct run", st.Coalesce, st.Queues)
	}
}
