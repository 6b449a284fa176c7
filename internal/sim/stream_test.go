package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sherlock/internal/isa"
	"sherlock/internal/layout"
)

// streamTestProg is a 2-input AND kernel with its output at [0][0][2].
func streamTestProg(t *testing.T) *Exec {
	t.Helper()
	text := `
Write [0][0][0] <a>
Write [0][0][1] <b>
Read [0][0][0,1] [AND]
Write [0][0][2]
`
	p, err := isa.ParseProgram(text)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Predecode(p, smallTarget())
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

var streamOutPlace = layout.Place{Array: 0, Col: 0, Row: 2}

// streamInputs builds slot-major packed inputs (stride W) with a
// deterministic pseudo-random fill, returning the block and the expected
// AND output (dead lanes zeroed).
func streamInputs(e *Exec, lanes int) (in, want []uint64) {
	W := (lanes + 63) / 64
	sa, _ := e.Slot("a")
	sb, _ := e.Slot("b")
	in = make([]uint64, e.NumSlots()*W)
	want = make([]uint64, W)
	x := uint64(0x9e3779b97f4a7c15)
	for w := 0; w < W; w++ {
		x ^= x << 13
		x ^= x >> 7
		a := x * 0x2545f4914f6cdd1d
		x ^= x << 17
		b := x * 0x9e3779b97f4a7c15
		in[sa*W+w] = a
		in[sb*W+w] = b
		want[w] = a & b
	}
	if rem := lanes % 64; rem != 0 {
		want[W-1] &= uint64(1)<<uint(rem) - 1
	}
	return in, want
}

// streamCollect runs one stream over lanes and gathers the output words
// into a full-width block via pack/reduce callbacks.
func streamCollect(t *testing.T, e *Exec, st *Stream, lanes int) []uint64 {
	t.Helper()
	W := (lanes + 63) / 64
	in, _ := streamInputs(e, lanes)
	got := make([]uint64, W)
	numIn := e.NumSlots()
	var mu sync.Mutex
	pack := func(m *ExecMachine, chunk, start, n int) error {
		w0 := start / 64
		gw := (n + 63) / 64
		B := m.BlockWords()
		dst := m.InputBlock()
		for s := 0; s < numIn; s++ {
			copy(dst[s*B:s*B+gw], in[s*W+w0:s*W+w0+gw])
		}
		return nil
	}
	bufs := make([][]uint64, st.Shards())
	for i := range bufs {
		bufs[i] = make([]uint64, st.BlockWords())
	}
	reduce := func(shard int, m *ExecMachine, chunk, start, n int) error {
		buf := bufs[shard]
		cw, err := m.OutWords(streamOutPlace, buf)
		if err != nil {
			return err
		}
		mu.Lock()
		copy(got[start/64:start/64+cw], buf[:cw])
		mu.Unlock()
		return nil
	}
	if err := st.Run(lanes, pack, reduce); err != nil {
		t.Fatalf("stream run (%d lanes): %v", lanes, err)
	}
	return got
}

// TestStreamMatchesReference drives the stream across awkward chunk
// edges at several shard counts; every word of the streamed output must
// equal the host-computed AND.
func TestStreamMatchesReference(t *testing.T) {
	e := streamTestProg(t)
	laneCases := []int{1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000, 1023, 1024, 1025}
	for _, shards := range []int{1, 3} {
		st, err := NewStream(e, StreamConfig{BlockWords: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range laneCases {
			_, want := streamInputs(e, lanes)
			got := streamCollect(t, e, st, lanes)
			for w := range want {
				if got[w] != want[w] {
					t.Errorf("shards=%d lanes=%d: word %d = %#x, want %#x",
						shards, lanes, w, got[w], want[w])
				}
			}
		}
		st.Close()
	}
}

// TestStreamReuse pins the zero-steady-state contract's precondition: one
// Stream must produce correct results across many back-to-back runs of
// varying width.
func TestStreamReuse(t *testing.T) {
	e := streamTestProg(t)
	st, err := NewStream(e, StreamConfig{BlockWords: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 20; i++ {
		lanes := 1 + (i*97)%500
		_, want := streamInputs(e, lanes)
		got := streamCollect(t, e, st, lanes)
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("run %d lanes=%d: word %d = %#x, want %#x", i, lanes, w, got[w], want[w])
			}
		}
	}
}

// TestStreamLowestChunkError: when several chunks fail, Run reports the
// one a sequential run would have hit first.
func TestStreamLowestChunkError(t *testing.T) {
	e := streamTestProg(t)
	st, err := NewStream(e, StreamConfig{BlockWords: 1, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pack := func(m *ExecMachine, chunk, start, n int) error {
		if chunk >= 2 {
			return fmt.Errorf("boom chunk %d", chunk)
		}
		clear(m.InputBlock())
		return nil
	}
	reduce := func(shard int, m *ExecMachine, chunk, start, n int) error { return nil }
	err = st.Run(64*64, pack, reduce)
	if err == nil || !strings.Contains(err.Error(), "boom chunk 2") {
		t.Errorf("want lowest-chunk error 'boom chunk 2', got %v", err)
	}
	// The stream must stay usable after a failed run.
	if err := st.Run(100, pack2OK(e), reduce); err != nil {
		t.Errorf("run after failure: %v", err)
	}
}

func pack2OK(e *Exec) PackFunc {
	return func(m *ExecMachine, chunk, start, n int) error {
		clear(m.InputBlock())
		return nil
	}
}

// TestStreamReduceError propagates reducer failures too.
func TestStreamReduceError(t *testing.T) {
	e := streamTestProg(t)
	st, err := NewStream(e, StreamConfig{BlockWords: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reduce := func(shard int, m *ExecMachine, chunk, start, n int) error {
		if chunk == 1 {
			return fmt.Errorf("reduce boom")
		}
		return nil
	}
	if err := st.Run(64*8, pack2OK(e), reduce); err == nil || !strings.Contains(err.Error(), "reduce boom") {
		t.Errorf("want reduce error, got %v", err)
	}
}

// TestStreamClose: Close is idempotent and Run after Close fails cleanly.
func TestStreamClose(t *testing.T) {
	e := streamTestProg(t)
	st, err := NewStream(e, StreamConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	st.Close()
	err = st.Run(64, pack2OK(e), func(int, *ExecMachine, int, int, int) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Run on closed stream: got %v", err)
	}
}

// TestStreamAutoBlockWords: auto sizing stays within its documented
// bounds and gives tiny kernels wide chunks.
func TestStreamAutoBlockWords(t *testing.T) {
	e := streamTestProg(t)
	b := autoBlockWords(e)
	if b < DefaultBlockWords || b > MaxStreamBlockWords {
		t.Fatalf("autoBlockWords = %d outside [%d,%d]", b, DefaultBlockWords, MaxStreamBlockWords)
	}
	if b != MaxStreamBlockWords {
		t.Errorf("tiny kernel should auto-size to the cap, got %d", b)
	}
	st, err := NewStream(e, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.ChunkLanes() != b*WordLanes {
		t.Errorf("ChunkLanes = %d, want %d", st.ChunkLanes(), b*WordLanes)
	}
}

// TestStreamMultiChunkZeroAlloc: a warmed multi-chunk Run over several
// shards allocates nothing, worker goroutine starts included.
func TestStreamMultiChunkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	e := streamTestProg(t)
	st, err := NewStream(e, StreamConfig{BlockWords: 2, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pack := pack2OK(e)
	reduce := func(int, *ExecMachine, int, int, int) error { return nil }
	const lanes = 16 * 128 // 16 chunks
	if err := st.Run(lanes, pack, reduce); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := st.Run(lanes, pack, reduce); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warmed multi-chunk Run allocates %.1f objects/run, want 0", allocs)
	}
}

// TestStreamDroppedHoldsNoGoroutines: a Stream that has run multi-chunk
// work and is then dropped without Close leaves no goroutine behind.
func TestStreamDroppedHoldsNoGoroutines(t *testing.T) {
	e := streamTestProg(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		st, err := NewStream(e, StreamConfig{BlockWords: 1, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		_ = streamCollect(t, e, st, 64*16)
	}
	// Workers signal completion just before they return; give the last
	// ones a moment to exit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines: %d before, %d after dropping streams", before, after)
	}
}

// TestStreamOneChunkUsesOneShard: a run that fits one chunk executes on a
// single shard, so only one machine is ever built.
func TestStreamOneChunkUsesOneShard(t *testing.T) {
	e := streamTestProg(t)
	st, err := NewStream(e, StreamConfig{BlockWords: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, lanes := range []int{1, 65, 128} {
		var used []int
		reduce := func(shard int, m *ExecMachine, chunk, start, n int) error {
			used = append(used, shard) // one chunk: no concurrent reducer
			return nil
		}
		if err := st.Run(lanes, pack2OK(e), reduce); err != nil {
			t.Fatal(err)
		}
		if len(used) != 1 || used[0] != 0 {
			t.Errorf("lanes %d: reduced on shards %v, want [0]", lanes, used)
		}
	}
	if len(st.machines) != 1 {
		t.Fatalf("stream built %d machines, want 1", len(st.machines))
	}
	if m := st.machines[0]; m.BlockWords() != st.BlockWords() {
		t.Errorf("machine is %d words wide, want %d", m.BlockWords(), st.BlockWords())
	}
}

// TestStreamConcurrentRuns: G goroutines run one Stream at once, at lane
// counts on both sides of the chunk edges and with per-run shard caps;
// every result must equal the host-computed AND, and every reducer must
// see shard ids inside its run's cap.
func TestStreamConcurrentRuns(t *testing.T) {
	e := streamTestProg(t)
	st, err := NewStream(e, StreamConfig{BlockWords: 2, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const G = 8
	laneCases := []int{1, 127, 128, 129, 257, 1000, 1025}
	var wg sync.WaitGroup
	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				lanes := laneCases[(g+r)%len(laneCases)]
				shards := g % 4 // 0 selects Shards()
				in, want := streamInputs(e, lanes)
				W := (lanes + 63) / 64
				got := make([]uint64, W)
				limit := shards
				if limit == 0 {
					limit = st.Shards()
				}
				pack := func(m *ExecMachine, chunk, start, n int) error {
					w0, gw, B := start/64, (n+63)/64, m.BlockWords()
					for s := 0; s < e.NumSlots(); s++ {
						copy(m.InputBlock()[s*B:s*B+gw], in[s*W+w0:s*W+w0+gw])
					}
					return nil
				}
				reduce := func(shard int, m *ExecMachine, chunk, start, n int) error {
					if shard < 0 || shard >= limit {
						return fmt.Errorf("shard %d outside cap %d", shard, limit)
					}
					_, err := m.OutWords(streamOutPlace, got[start/64:])
					return err
				}
				if err := st.RunShards(lanes, shards, pack, reduce); err != nil {
					errs <- fmt.Errorf("goroutine %d lanes %d: %v", g, lanes, err)
					return
				}
				for w := range want {
					if got[w] != want[w] {
						errs <- fmt.Errorf("goroutine %d lanes %d: word %d = %#x, want %#x", g, lanes, w, got[w], want[w])
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
