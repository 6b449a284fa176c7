package serve

// Serving-layer benchmarks: what compile-once serve-many buys.
//
//   - BenchmarkRegistryAES: cold pipeline compile vs registry hit on the
//     quick (2-round) AES kernel, the PR's >=100x acceptance target. The
//     bykey variant is the steady-state serve path (clients hold the
//     content address); rehash pays graph re-fingerprinting on every call.
//   - BenchmarkServeMixedLoad: the load generator — concurrent callers
//     issuing small (<=32-vector) requests across 4 distinct kernels,
//     naive per-caller RunBatch vs the coalescing service, >=3x aggregate
//     vectors/sec acceptance target.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"sherlock"
	"sherlock/internal/workloads/aes"
	"sherlock/internal/workloads/bitweaving"
)

func quickAES(b *testing.B) (*sherlock.Graph, sherlock.Options) {
	b.Helper()
	g, err := aes.Build(aes.Config{Rounds: 2})
	if err != nil {
		b.Fatal(err)
	}
	return g, sherlock.Options{
		Tech:      sherlock.STTMRAM,
		ArraySize: 512,
		Arrays:    4,
		Mapper:    sherlock.MapperOptimized,
	}
}

func BenchmarkRegistryAES(b *testing.B) {
	g, opts := quickAES(b)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sherlock.CompileGraph(g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit-bykey", func(b *testing.B) {
		reg := NewRegistry(RegistryConfig{})
		warm, err := reg.CompileGraph(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		key := warm.Key
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, ok := reg.Lookup(key)
			if !ok || e != warm {
				b.Fatal("lost the resident entry")
			}
		}
	})
	b.Run("hit-rehash", func(b *testing.B) {
		reg := NewRegistry(RegistryConfig{})
		warm, err := reg.CompileGraph(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := reg.CompileGraph(g, opts)
			if err != nil || e != warm {
				b.Fatal("rehash missed the resident entry")
			}
		}
	})
}

// benchCallers is the load generator's concurrency: enough callers that
// the coalescer's 256-lane batches fill from 32-lane requests even with
// the traffic spread over four kernels.
const benchCallers = 64

// benchRounds is how many requests each caller issues per measured wave.
const benchRounds = 8

// vectorsPerWave counts one wave's vectors: every request carries 32.
const vectorsPerWave = benchCallers * benchRounds * 32

// benchEntries compiles the load generator's kernel mix through the given
// registry: four distinct bitweaving scan programs (hundreds of
// instructions each), the "many small queries against a warm kernel set"
// shape the serving layer is built for.
func benchEntries(b *testing.B, reg *Registry) []*Entry {
	b.Helper()
	entries := make([]*Entry, 0, 4)
	for _, segments := range []int{2, 3, 4, 5} {
		g, err := bitweaving.Build(bitweaving.Config{Bits: 8, Segments: segments})
		if err != nil {
			b.Fatal(err)
		}
		e, err := reg.CompileGraph(g, testOptions())
		if err != nil {
			b.Fatal(err)
		}
		entries = append(entries, e)
	}
	return entries
}

// benchTraffic precomputes each caller's request stream — map-keyed and
// packed forms of the same vectors — so the measured loop does no RNG or
// input-building work.
type benchReq struct {
	entry  int
	batch  []map[string]bool
	packed []uint64
}

func benchTraffic(b *testing.B, entries []*Entry) [][]benchReq {
	b.Helper()
	traffic := make([][]benchReq, benchCallers)
	for caller := range traffic {
		rng := rand.New(rand.NewSource(int64(1000 + caller)))
		reqs := make([]benchReq, benchRounds)
		for i := range reqs {
			ei := (caller + i) % len(entries)
			batch := randBatch(rng, entries[ei].InputNames, 32)
			packed, _ := packWords(entries[ei].InputNames, batch)
			reqs[i] = benchReq{entry: ei, batch: batch, packed: packed}
		}
		traffic[caller] = reqs
	}
	return traffic
}

// runWave runs one wave of traffic (benchCallers x benchRounds requests)
// as benchRounds lockstep rounds: each caller sends its next request, like
// a client that needs each answer before the next question, and a round
// ends when every caller has its answer. Caller c's round-r request goes
// to kernel (c+r) mod 4, so every round splits the callers evenly over
// the kernels: a coalescer's batches fill to the size trigger instead of
// leaving stragglers to the window timer.
func runWave(b *testing.B, traffic [][]benchReq, do func(caller int, req benchReq) error) {
	b.Helper()
	var wg sync.WaitGroup
	for round := 0; round < benchRounds; round++ {
		wg.Add(benchCallers)
		for caller := 0; caller < benchCallers; caller++ {
			go func(caller int) {
				defer wg.Done()
				if err := do(caller, traffic[caller][round]); err != nil {
					b.Error(err)
				}
			}(caller)
		}
		wg.Wait()
	}
}

func BenchmarkServeMixedLoad(b *testing.B) {
	b.Run("naive", func(b *testing.B) {
		// Baseline: every caller drives its own RunBatch — per-vector map
		// decode plus a whole executor pass per 32-lane request.
		entries := benchEntries(b, NewRegistry(RegistryConfig{}))
		traffic := benchTraffic(b, entries)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runWave(b, traffic, func(caller int, req benchReq) error {
				_, err := entries[req.entry].Compiled.RunBatch(req.batch, 1)
				return err
			})
		}
		b.ReportMetric(float64(vectorsPerWave)*float64(b.N)/b.Elapsed().Seconds(), "vectors_per_sec")
	})

	b.Run("coalesced-maps", func(b *testing.B) {
		// The HTTP shape: map-keyed requests through the service. Batches
		// merge, but every caller still pays the per-vector map tax at
		// admission and demux — the reason the packed facade exists.
		svc := NewService(Config{Backend: BackendCIM, Window: 5 * time.Millisecond})
		entries := benchEntries(b, svc.Registry())
		traffic := benchTraffic(b, entries)
		do := func(caller int, req benchReq) error {
			_, _, err := svc.Run(entries[req.entry], req.batch, BackendAuto)
			return err
		}
		coalescedWaves(b, svc, traffic, do)
	})

	b.Run("coalesced", func(b *testing.B) {
		// The serving fast path: packed requests (RunBatchWords layout)
		// through the batch window, output buffers reused per caller. On a
		// saturated machine a long window lets the size trigger fill every
		// pass, with the timer only as a straggler backstop.
		svc := NewService(Config{Backend: BackendCIM, Window: 5 * time.Millisecond})
		entries := benchEntries(b, svc.Registry())
		traffic := benchTraffic(b, entries)
		outs := make([][]uint64, benchCallers)
		coalescedWaves(b, svc, traffic, func(caller int, req benchReq) error {
			out, _, err := svc.RunWords(entries[req.entry], req.packed, 32, outs[caller], BackendAuto)
			outs[caller] = out
			return err
		})
	})
}

// coalescedWaves times b.N waves through svc, each ended by an explicit
// Drain, after one untimed warm-up wave that takes each coalescer past its
// first arrival (which the arrival-rate rule runs at once, leaving a
// partial batch to the timer). With the timer out of the measurement the
// waves time admission, merge, execution and demux; timer_flushes reports
// per wave how often the timer still fired.
func coalescedWaves(b *testing.B, svc *Service, traffic [][]benchReq, do func(caller int, req benchReq) error) {
	runWave(b, traffic, do)
	svc.Drain()
	st0 := svc.Stats().Coalesce
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runWave(b, traffic, do)
		svc.Drain()
	}
	b.StopTimer()
	st := svc.Stats().Coalesce
	b.ReportMetric(float64(vectorsPerWave)*float64(b.N)/b.Elapsed().Seconds(), "vectors_per_sec")
	b.ReportMetric(float64(st.Lanes-st0.Lanes)/float64(max(st.Flushes+st.DirectRuns-st0.Flushes-st0.DirectRuns, 1)), "lanes_per_pass")
	b.ReportMetric(float64(st.TimerFlushes-st0.TimerFlushes)/float64(b.N), "timer_flushes")
}

// BenchmarkCoalescerSubmit measures the merge machinery itself: packed
// submissions through a full window, no maps involved.
func BenchmarkCoalescerSubmit(b *testing.B) {
	e := mustCompile(b, kStage)
	rng := rand.New(rand.NewSource(77))
	const lanes = 32
	const callers = 8 // 8 x 32 = 256: every wave is one size-triggered pass
	ins := make([][]uint64, callers)
	for c := range ins {
		batch := randBatch(rng, e.InputNames, lanes)
		ins[c], _ = packWords(e.InputNames, batch)
	}
	q := NewCoalescer(e.Compiled, CoalescerConfig{Window: -1})
	outs := make([][]uint64, callers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var err error
				outs[c], err = q.Submit(ins[c], lanes, outs[c])
				if err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(callers*lanes)*float64(b.N)/b.Elapsed().Seconds(), "vectors_per_sec")
}

// BenchmarkCoalescerDirect measures direct (unmerged) requests from 8
// concurrent callers at two size classes, each request one RunBatchWords
// call on the program's shared stream: stage-4096 fits one chunk of the
// stage kernel; aes-1024 spans four 256-lane chunks of the quick AES
// kernel, which spread over the stream's shards.
func BenchmarkCoalescerDirect(b *testing.B) {
	const callers = 8
	run := func(b *testing.B, e *Entry, lanes int) {
		rng := rand.New(rand.NewSource(78))
		ins := make([][]uint64, callers)
		for c := range ins {
			ins[c], _ = packWords(e.InputNames, randBatch(rng, e.InputNames, lanes))
		}
		q := NewCoalescer(e.Compiled, CoalescerConfig{Window: -1})
		outs := make([][]uint64, callers)
		wave := func() {
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					var err error
					outs[c], err = q.Submit(ins[c], lanes, outs[c])
					if err != nil {
						b.Error(err)
					}
				}(c)
			}
			wg.Wait()
		}
		wave() // build the stream, machines and output buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wave()
		}
		b.ReportMetric(float64(callers*lanes)*float64(b.N)/b.Elapsed().Seconds(), "vectors_per_sec")
	}
	b.Run("stage-4096", func(b *testing.B) {
		run(b, mustCompile(b, kStage), 4096)
	})
	b.Run("aes-1024", func(b *testing.B) {
		g, opts := quickAES(b)
		e, err := NewRegistry(RegistryConfig{}).CompileGraph(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		run(b, e, 1024)
	})
}
