// Benchmark harness: one benchmark per paper artifact (Table 2, Fig. 2b,
// Fig. 6, Fig. 7) plus ablations of the design choices called out in
// DESIGN.md. The benchmarks run the QuickSetup kernels so iteration stays
// fast; `go run sherlock/cmd/sherlock-exp` regenerates the full-scale
// campaign. Custom metrics surface the experiment outputs (latencies,
// P_app, EDP gains) alongside the usual ns/op.
package sherlock_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sherlock"
	"sherlock/internal/aig"
	"sherlock/internal/arraymodel"
	"sherlock/internal/coopt"
	"sherlock/internal/device"
	"sherlock/internal/dfg"
	"sherlock/internal/experiments"
	"sherlock/internal/layout"
	"sherlock/internal/logic"
	"sherlock/internal/mapping"
	"sherlock/internal/reliability"
	"sherlock/internal/sim"
	"sherlock/internal/workloads/aes"
	"sherlock/internal/workloads/bitweaving"
	"sherlock/internal/workloads/sobel"
)

// ---- Table 2: latency & energy across techs, sizes, mappers, MRA ----

func benchmarkTable2Workload(b *testing.B, w experiments.Workload) {
	r := experiments.NewRunner(experiments.QuickSetup())
	var lastNaive, lastOpt float64
	for i := 0; i < b.N; i++ {
		for _, size := range []int{512, 1024} {
			for _, naive := range []bool{true, false} {
				res, err := r.Map(w, 1.0, false, size, naive)
				if err != nil {
					b.Fatal(err)
				}
				cost, err := experiments.Cost(res, device.STTMRAM, size)
				if err != nil {
					b.Fatal(err)
				}
				if naive {
					lastNaive = cost.LatencyUS()
				} else {
					lastOpt = cost.LatencyUS()
				}
			}
		}
	}
	b.ReportMetric(lastNaive, "naive_us")
	b.ReportMetric(lastOpt, "opt_us")
	if lastOpt > 0 {
		b.ReportMetric(lastNaive/lastOpt, "speedup")
	}
}

func BenchmarkTable2Bitweaving(b *testing.B) { benchmarkTable2Workload(b, experiments.Bitweaving) }
func BenchmarkTable2Sobel(b *testing.B)      { benchmarkTable2Workload(b, experiments.Sobel) }
func BenchmarkTable2AES(b *testing.B)        { benchmarkTable2Workload(b, experiments.AES) }

// BenchmarkTable2Campaign measures the full compile->map->cost grid from a
// cold Runner, sequential vs fanned out over the worker pool (the
// parallelism win scales with cores; on one core the variants tie).
func BenchmarkTable2Campaign(b *testing.B) {
	for _, variant := range []struct {
		name        string
		parallelism int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(variant.name, func(b *testing.B) {
			var rows []experiments.Table2Row
			for i := 0; i < b.N; i++ {
				s := experiments.QuickSetup()
				s.Parallelism = variant.parallelism
				rows, _ = experiments.Table2(experiments.NewRunner(s))
			}
			b.ReportMetric(float64(len(rows)), "cells")
		})
	}
}

// ---- Fig. 2b: decision-failure statistics ----

func BenchmarkFig2bDecisionFailure(b *testing.B) {
	var rows []experiments.Fig2bRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig2b(device.Technologies())
	}
	worst := 0.0
	for _, r := range rows {
		if r.PDF > worst {
			worst = r.PDF
		}
	}
	b.ReportMetric(worst, "worst_pdf")
}

// ---- Fig. 6: reliability vs latency under the MRA sweep ----

func BenchmarkFig6Sweep(b *testing.B) {
	r := experiments.NewRunner(experiments.QuickSetup())
	var series []experiments.Fig6Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = experiments.Fig6(r, 128)
		if err != nil {
			b.Fatal(err)
		}
	}
	gains := experiments.Fig6Summary(series)
	b.ReportMetric(gains[device.ReRAM], "opt_papp_gain_reram")
	b.ReportMetric(gains[device.STTMRAM], "opt_papp_gain_stt")
}

// ---- Fig. 7: EDP vs the CPU baseline ----

func BenchmarkFig7EDP(b *testing.B) {
	r := experiments.NewRunner(experiments.QuickSetup())
	var rows []experiments.Fig7Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig7(r, []int{128, 512})
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, row := range rows {
		if row.EDPGain > best {
			best = row.EDPGain
		}
	}
	b.ReportMetric(best, "best_edp_gain")
}

// ---- Component benchmarks ----

func buildQuickAES(b *testing.B) *dfg.Graph {
	b.Helper()
	g, err := aes.Build(aes.Config{Rounds: 2})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkMapperNaiveAES(b *testing.B) {
	g := buildQuickAES(b)
	t := layout.Target{Arrays: 4, Rows: 512, Cols: 512}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.Naive(g, mapping.Options{Target: t}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapperOptimizedAES(b *testing.B) {
	g := buildQuickAES(b)
	t := layout.Target{Arrays: 4, Rows: 512, Cols: 512}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.Optimized(g, mapping.Options{Target: t}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileTable2 builds and compiles the three paper kernels at
// Table 2 scale (AES-128, Sobel 4x4, BitWeaving-V 32bx16) the way the
// compile workload of bench/ does: Alg. 2 on four 512x512 STT-MRAM arrays
// with both static gates on. Every DFG walk of the compiler — b-levels,
// the ready walker, clustering, emission, the AIG lift — runs here.
func BenchmarkCompileTable2(b *testing.B) {
	builds := []func() (*dfg.Graph, error){
		func() (*dfg.Graph, error) { return aes.Build(aes.DefaultConfig()) },
		func() (*dfg.Graph, error) { return sobel.Build(sobel.DefaultConfig()) },
		func() (*dfg.Graph, error) { return bitweaving.Build(bitweaving.DefaultConfig()) },
	}
	opts := sherlock.Options{
		Tech: sherlock.STTMRAM, ArraySize: 512, Arrays: 4, Mapper: sherlock.MapperOptimized,
		VerifyEmitted: true, VerifyEquivalence: true,
	}
	b.ReportAllocs()
	instructions := 0
	for i := 0; i < b.N; i++ {
		instructions = 0
		for _, build := range builds {
			g, err := build()
			if err != nil {
				b.Fatal(err)
			}
			c, err := sherlock.CompileGraph(g, opts)
			if err != nil {
				b.Fatal(err)
			}
			instructions += len(c.Program)
		}
	}
	b.ReportMetric(float64(instructions), "instructions")
}

// BenchmarkMergeInstructions isolates the cross-cluster merge pass (level
// scheduling, hazard analysis, and bucket merging) on the largest program
// the quick kernels produce: the unmerged naive AES mapping.
func BenchmarkMergeInstructions(b *testing.B) {
	g := buildQuickAES(b)
	t := layout.Target{Arrays: 4, Rows: 512, Cols: 512}
	res, err := mapping.Naive(g, mapping.Options{Target: t})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var merged int
	for i := 0; i < b.N; i++ {
		_, merged = mapping.MergeInstructions(res.Program)
	}
	b.ReportMetric(float64(len(res.Program)), "instr_before")
	b.ReportMetric(float64(len(res.Program)-merged), "instr_after")
}

// buildSyntheticDFG grows a pseudo-random gate-soup DFG far wider than any
// quick kernel, stressing the clusterer and b-level scheduler at a scale
// where quadratic slips would dominate.
func buildSyntheticDFG(b *testing.B, nInputs, nOps int) *dfg.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(97))
	bld := dfg.NewBuilder()
	bld.DisableCSE = true
	vals := make([]dfg.Val, 0, nInputs+nOps)
	for i := 0; i < nInputs; i++ {
		vals = append(vals, bld.Input(fmt.Sprintf("in%d", i)))
	}
	for len(vals) < nInputs+nOps {
		x := vals[rng.Intn(len(vals))]
		y := vals[rng.Intn(len(vals))]
		var v dfg.Val
		switch rng.Intn(4) {
		case 0:
			v = bld.And(x, y)
		case 1:
			v = bld.Or(x, y)
		case 2:
			v = bld.Xor(x, y)
		default:
			v = bld.Not(x)
		}
		if ic, _ := v.IsConst(); ic {
			continue
		}
		vals = append(vals, v)
	}
	g := bld.Graph()
	n := 0
	for _, operand := range g.Operands() {
		if len(g.Consumers(operand)) == 0 && g.Producer(operand) != dfg.NoNode {
			g.MarkOutputNamed(operand, fmt.Sprintf("out%d", n))
			n++
		}
	}
	return g
}

// BenchmarkMapperOptimizedSynthetic maps a 12k-op synthetic DFG — roughly 4x
// the quick AES kernel — through the full optimized pipeline (clustering,
// emission, merging).
func BenchmarkMapperOptimizedSynthetic(b *testing.B) {
	g := buildSyntheticDFG(b, 128, 12000)
	t := layout.Target{Arrays: 8, Rows: 512, Cols: 512}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.Optimized(g, mapping.Options{Target: t}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperSynthetic100k maps a 100k-op synthetic DFG end to end —
// roughly 8x the 12k benchmark. It exists to catch super-linear scaling in
// the clusterer or scheduler: a quadratic term that hides inside the 12k
// run dominates outright at this size.
func BenchmarkMapperSynthetic100k(b *testing.B) {
	g := buildSyntheticDFG(b, 256, 100000)
	t := layout.Target{Arrays: 16, Rows: 512, Cols: 512} // ~6.6k clusters need >4096 columns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.Optimized(g, mapping.Options{Target: t}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleReadyQueue times the hazard-gated ready-dispatch merger
// alone: forward ready levels, backward deadlines, slack-window fusion and
// bitmap-queue dispatch over a 12k-op synthetic program.
func BenchmarkScheduleReadyQueue(b *testing.B) {
	g := buildSyntheticDFG(b, 128, 12000)
	t := layout.Target{Arrays: 8, Rows: 512, Cols: 512}
	res, err := mapping.Naive(g, mapping.Options{Target: t})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var merged int
	for i := 0; i < b.N; i++ {
		_, merged = mapping.MergeInstructions(res.Program)
	}
	b.ReportMetric(float64(len(res.Program)), "instr_before")
	b.ReportMetric(float64(len(res.Program)-merged), "instr_after")
}

func BenchmarkSBoxTowerConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bld := sherlock.NewBuilder()
		var pt, key [16]byte
		_ = pt
		_ = key
		// One S-box instance per iteration.
		var in [8]sherlock.Val
		for j := range in {
			in[j] = bld.Input(fmt.Sprintf("x%d", j))
		}
		_ = aes.TowerSBoxGateCount()
	}
}

func BenchmarkSBoxShannonSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := aig.New(8)
		for bit := 0; bit < 8; bit++ {
			tt := aig.TTFromFunc(8, func(x uint) bool {
				return aes.SBox(byte(x))>>uint(bit)&1 == 1
			})
			g.Synthesize(tt)
		}
	}
}

// ---- Ablations ----

// BenchmarkAblationInstructionMerging isolates the Sec. 3.3.3 merging pass:
// the same clustered program with and without cross-cluster merging.
func BenchmarkAblationInstructionMerging(b *testing.B) {
	g, err := sobel.Build(sobel.Config{TileW: 2, TileH: 2, PixelBits: 8, Threshold: 128})
	if err != nil {
		b.Fatal(err)
	}
	t := layout.Target{Arrays: 1, Rows: 128, Cols: 128}
	res, err := mapping.Naive(g, mapping.Options{Target: t})
	if err != nil {
		b.Fatal(err)
	}
	var merged int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, merged = mapping.MergeInstructions(res.Program)
	}
	b.ReportMetric(float64(len(res.Program)), "instr_before")
	b.ReportMetric(float64(len(res.Program)-merged), "instr_after")
}

// BenchmarkAblationEq1 compares the prose-faithful assignment score against
// the paper's literally printed Eq. 1.
func BenchmarkAblationEq1(b *testing.B) {
	g := buildQuickAES(b)
	t := layout.Target{Arrays: 4, Rows: 512, Cols: 512}
	for _, variant := range []struct {
		name  string
		paper bool
	}{{"prose", false}, {"printed", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var last *mapping.Result
			for i := 0; i < b.N; i++ {
				res, err := mapping.Optimized(g, mapping.Options{Target: t, PaperEq1: variant.paper})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Stats.Instructions), "instructions")
			b.ReportMetric(float64(last.Stats.Copies), "copies")
		})
	}
}

// BenchmarkAblationNANDLowering measures the latency/reliability trade of
// Fig. 6b's NAND-based XOR/OR on STT-MRAM.
func BenchmarkAblationNANDLowering(b *testing.B) {
	cfg := bitweaving.Config{Bits: 8, Segments: 4}
	g, err := bitweaving.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		nand bool
	}{{"native", false}, {"nand", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var papp, lat float64
			for i := 0; i < b.N; i++ {
				c, err := sherlock.CompileGraph(g, sherlock.Options{
					Tech:         sherlock.STTMRAM,
					ArraySize:    128,
					Arrays:       4,
					NANDLowering: variant.nand,
				})
				if err != nil {
					b.Fatal(err)
				}
				cost, err := c.Cost()
				if err != nil {
					b.Fatal(err)
				}
				rel, err := c.Reliability()
				if err != nil {
					b.Fatal(err)
				}
				papp, lat = rel.PApp, cost.LatencyUS()
			}
			b.ReportMetric(papp, "papp")
			b.ReportMetric(lat, "latency_us")
		})
	}
}

// BenchmarkAblationMaxRows sweeps the multi-row-activation bound.
func BenchmarkAblationMaxRows(b *testing.B) {
	g, err := bitweaving.Build(bitweaving.Config{Bits: 16, Segments: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			var instr int
			for i := 0; i < b.N; i++ {
				fused := g
				if rows > 2 {
					fused, _ = dfg.SubstituteNodes(g, dfg.SubstituteOptions{MaxOperands: rows, Fraction: 1})
				}
				res, err := mapping.Optimized(fused, mapping.Options{Target: layout.Target{Arrays: 1, Rows: 256, Cols: 256}})
				if err != nil {
					b.Fatal(err)
				}
				instr = res.Stats.Instructions
			}
			b.ReportMetric(float64(instr), "instructions")
			p := device.ParamsFor(device.ReRAM)
			if rows <= p.MaxRows {
				b.ReportMetric(p.DecisionFailure(logic.And, max(2, rows)), "and_pdf")
			}
		})
	}
}

// BenchmarkAblationRowRecycling measures the capacity effect of
// liveness-driven row reuse on a column-constrained target.
func BenchmarkAblationRowRecycling(b *testing.B) {
	g, err := sobel.Build(sobel.Config{TileW: 2, TileH: 2, PixelBits: 8, Threshold: 128})
	if err != nil {
		b.Fatal(err)
	}
	t := layout.Target{Arrays: 1, Rows: 64, Cols: 512}
	for _, variant := range []struct {
		name    string
		recycle bool
	}{{"off", false}, {"on", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var cols, recycled int
			for i := 0; i < b.N; i++ {
				res, err := mapping.Optimized(g, mapping.Options{Target: t, RecycleRows: variant.recycle})
				if err != nil {
					b.Fatal(err)
				}
				cols, recycled = res.Stats.ColumnsUsed, res.Stats.RecycledRows
			}
			b.ReportMetric(float64(cols), "columns")
			b.ReportMetric(float64(recycled), "recycled_rows")
		})
	}
}

// BenchmarkRunBatch measures facade-level batch simulation: one compiled
// kernel, many independent input vectors through Compiled.RunBatch,
// sequentially and fanned out over the worker pool. vectors_per_sec is the
// headline throughput number.
func BenchmarkRunBatch(b *testing.B) {
	g, err := bitweaving.Build(bitweaving.Config{Bits: 8, Segments: 4})
	if err != nil {
		b.Fatal(err)
	}
	c, err := sherlock.CompileGraph(g, sherlock.Options{
		Tech:      sherlock.ReRAM,
		ArraySize: 128,
		Arrays:    4,
	})
	if err != nil {
		b.Fatal(err)
	}
	const vectors = 256
	rng := rand.New(rand.NewSource(11))
	batch := make([]map[string]bool, vectors)
	for i := range batch {
		in := make(map[string]bool)
		for _, id := range c.Graph.Inputs() {
			in[c.Graph.Name(id)] = rng.Intn(2) == 1
		}
		batch[i] = in
	}
	for _, variant := range []struct {
		name        string
		parallelism int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.RunBatch(batch, variant.parallelism); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(vectors)*float64(b.N)/b.Elapsed().Seconds(), "vectors_per_sec")
		})
	}
}

// BenchmarkRunBatchWords measures the packed-bits facade against the
// map-keyed RunBatch on the same vectors: no per-vector maps on the way in,
// a reused buffer on the way out, so the steady state is allocation-free
// (allocs/op is the point of this benchmark — see ReportAllocs).
func BenchmarkRunBatchWords(b *testing.B) {
	g, err := bitweaving.Build(bitweaving.Config{Bits: 8, Segments: 4})
	if err != nil {
		b.Fatal(err)
	}
	c, err := sherlock.CompileGraph(g, sherlock.Options{
		Tech:      sherlock.ReRAM,
		ArraySize: 128,
		Arrays:    4,
	})
	if err != nil {
		b.Fatal(err)
	}
	const vectors = 256
	rng := rand.New(rand.NewSource(11))
	batch := make([]map[string]bool, vectors)
	for i := range batch {
		in := make(map[string]bool)
		for _, id := range c.Graph.Inputs() {
			in[c.Graph.Name(id)] = rng.Intn(2) == 1
		}
		batch[i] = in
	}
	names := c.InputNames()
	W := (vectors + 63) / 64
	packed := make([]uint64, len(names)*W)
	for l, vec := range batch {
		for s, name := range names {
			if vec[name] {
				packed[s*W+l/64] |= uint64(1) << uint(l%64)
			}
		}
	}

	b.Run("maps", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunBatch(batch, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(vectors)*float64(b.N)/b.Elapsed().Seconds(), "vectors_per_sec")
	})
	b.Run("words", func(b *testing.B) {
		var out []uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err = c.RunBatchWords(packed, vectors, out, 1)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(vectors)*float64(b.N)/b.Elapsed().Seconds(), "vectors_per_sec")
	})
}

// BenchmarkPredecode measures the one-time program -> micro-op decode that
// Compiled.Run/RunBatch and the Monte-Carlo campaigns amortize: full
// validation, offset resolution and instruction fusion in a single pass.
func BenchmarkPredecode(b *testing.B) {
	g, err := bitweaving.Build(bitweaving.Config{Bits: 8, Segments: 4})
	if err != nil {
		b.Fatal(err)
	}
	t := layout.Target{Arrays: 4, Rows: 128, Cols: 128}
	res, err := mapping.Optimized(g, mapping.Options{Target: t})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ex *sim.Exec
	for i := 0; i < b.N; i++ {
		ex, err = sim.Predecode(res.Program, t)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Program)), "instructions")
	b.ReportMetric(float64(ex.MicroOps()), "micro_ops")
}

// BenchmarkExecLaneBlock measures raw executor throughput on one decoded
// program: ExecMachine lane blocks of 1 and 4 words (64 and 256 lanes per
// pass). vectors_per_sec counts completed lanes.
func BenchmarkExecLaneBlock(b *testing.B) {
	g, err := bitweaving.Build(bitweaving.Config{Bits: 8, Segments: 4})
	if err != nil {
		b.Fatal(err)
	}
	t := layout.Target{Arrays: 4, Rows: 128, Cols: 128}
	res, err := mapping.Optimized(g, mapping.Options{Target: t})
	if err != nil {
		b.Fatal(err)
	}
	ex, err := sim.Predecode(res.Program, t)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))

	for _, blockWords := range []int{1, 4} {
		b.Run(fmt.Sprintf("exec%dx64", blockWords), func(b *testing.B) {
			m := ex.NewMachine(blockWords)
			// An owned input slice survives Reset (which clears the
			// machine's own InputBlock scratch).
			in := make([]uint64, ex.NumSlots()*blockWords)
			for i := range in {
				in[i] = rng.Uint64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset(m.MaxLanes())
				if err := m.Run(in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.MaxLanes())*float64(b.N)/b.Elapsed().Seconds(), "vectors_per_sec")
		})
	}
}

// BenchmarkMonteCarloValidation runs the fault-injection campaign that
// cross-checks the analytical P_app model, sequentially and sharded over
// the worker pool (identical results either way; the wall-clock win
// scales with cores).
func BenchmarkMonteCarloValidation(b *testing.B) {
	for _, variant := range []struct {
		name        string
		parallelism int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(variant.name, func(b *testing.B) {
			s := experiments.QuickSetup()
			s.Parallelism = variant.parallelism
			r := experiments.NewRunner(s)
			var mc experiments.MCResult
			var err error
			for i := 0; i < b.N; i++ {
				mc, err = experiments.MonteCarlo(r, experiments.Bitweaving, device.STTMRAM, 128, 1024, 3)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mc.AnalyticalPApp, "papp_model")
			b.ReportMetric(mc.ObservedFaultRate, "papp_observed")
			b.ReportMetric(mc.MaskingFactor(), "masking")
		})
	}
}

// BenchmarkReliabilityAssess isolates the P_app assessment of a mapped
// kernel. "cold" drops the P_DF memo every iteration (the pre-memo cost:
// every class recomputes its lognormal-overlap integral); "warm" is the
// steady state the campaign engine sees.
func BenchmarkReliabilityAssess(b *testing.B) {
	g, err := bitweaving.Build(bitweaving.Config{Bits: 16, Segments: 8})
	if err != nil {
		b.Fatal(err)
	}
	res, err := mapping.Optimized(g, mapping.Options{Target: layout.Target{Arrays: 4, Rows: 256, Cols: 256}})
	if err != nil {
		b.Fatal(err)
	}
	params := device.ParamsFor(device.ReRAM)
	for _, variant := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"warm", false}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if variant.cold {
					device.ResetPDFCache()
				}
				if _, err := reliability.Assess(res.Program, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelTiming compares the conservative serial timing
// against the multi-array overlap model on a kernel spread across arrays.
func BenchmarkAblationParallelTiming(b *testing.B) {
	g, err := aes.Build(aes.Config{Rounds: 2})
	if err != nil {
		b.Fatal(err)
	}
	// Narrow arrays force the clusters across several of them.
	t := layout.Target{Arrays: 16, Rows: 96, Cols: 24}
	res, err := mapping.Optimized(g, mapping.Options{Target: t})
	if err != nil {
		b.Fatal(err)
	}
	cm := arraymodel.New(arraymodel.Config{Tech: device.STTMRAM, Rows: 96, Cols: 24, DataWidth: 96})
	var serial, par sim.Cost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial, err = sim.Measure(res.Program, cm)
		if err != nil {
			b.Fatal(err)
		}
		par, err = sim.MeasureParallel(res.Program, cm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(serial.LatencyNS/1e3, "serial_us")
	b.ReportMetric(par.LatencyNS/1e3, "parallel_us")
	if par.LatencyNS > 0 {
		b.ReportMetric(serial.LatencyNS/par.LatencyNS, "overlap_speedup")
	}
}

// BenchmarkAblationWearLeveling quantifies the endurance effect of FIFO
// row rotation under recycling: same program size, flatter wear.
func BenchmarkAblationWearLeveling(b *testing.B) {
	g, err := bitweaving.Build(bitweaving.Config{Bits: 16, Segments: 4})
	if err != nil {
		b.Fatal(err)
	}
	t := layout.Target{Arrays: 1, Rows: 48, Cols: 64}
	for _, variant := range []struct {
		name  string
		level bool
	}{{"lifo", false}, {"fifo", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var maxWrites int
			for i := 0; i < b.N; i++ {
				res, err := mapping.Optimized(g, mapping.Options{
					Target: t, RecycleRows: true, WearLeveling: variant.level,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := reliability.AssessWear(res.Program)
				if err != nil {
					b.Fatal(err)
				}
				maxWrites = rep.MaxWritesPerCell
			}
			b.ReportMetric(float64(maxWrites), "max_writes_per_cell")
		})
	}
}

// ---- Resynthesis co-optimization: AIG rewrite loop vs Algorithm 2 alone ----

// benchmarkResynth runs the synthesis<->scheduling loop on a quick-setup
// workload and reports the achieved latency against the Algorithm 2
// baseline. The search itself is the measured cost (ns/op); the metrics
// surface what it bought.
func benchmarkResynth(b *testing.B, w experiments.Workload, portfolio [][]coopt.PassKind) {
	r := experiments.NewRunner(experiments.QuickSetup())
	g, err := r.Graph(w, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	const size = 256
	tech := device.STTMRAM
	model := arraymodel.New(arraymodel.DefaultConfig(tech, size))
	params := device.ParamsFor(tech)
	evaluate := func(g *dfg.Graph) (*mapping.Result, error) {
		return mapping.Optimized(g, mapping.Options{
			Target: layout.Target{Arrays: 4, Rows: size, Cols: size},
		})
	}
	base, err := evaluate(g)
	if err != nil {
		b.Fatal(err)
	}
	baseCost, err := sim.Measure(base.Program, model)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var optNS float64
	for i := 0; i < b.N; i++ {
		res, err := coopt.Optimize(g, coopt.Config{
			MaxRows:   params.MaxRows,
			Portfolio: portfolio,
			Evaluate:  evaluate,
			Score: func(m *mapping.Result) (coopt.Score, error) {
				return coopt.ScoreMapped(m, model, params)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		cost, err := sim.Measure(res.Mapped.Program, model)
		if err != nil {
			b.Fatal(err)
		}
		optNS = cost.LatencyNS
	}
	b.ReportMetric(baseCost.LatencyNS/1e3, "alg2_us")
	b.ReportMetric(optNS/1e3, "coopt_us")
	if optNS > 0 {
		b.ReportMetric(baseCost.LatencyNS/optNS, "speedup")
	}
}

func BenchmarkResynthSobel(b *testing.B) {
	benchmarkResynth(b, experiments.Sobel, nil) // nil = full portfolio
}

func BenchmarkResynthSobelBalanceOnly(b *testing.B) {
	benchmarkResynth(b, experiments.Sobel, coopt.PortfolioBalance())
}

func BenchmarkResynthAES(b *testing.B) {
	benchmarkResynth(b, experiments.AES, nil)
}
