package main

import (
	"fmt"
	"math/rand"
	"time"

	"sherlock"
	"sherlock/internal/dfg"
	"sherlock/internal/workloads/aes"
	"sherlock/internal/workloads/bitweaving"
	"sherlock/internal/workloads/sobel"
)

// The compile workload: a closed loop with one client that builds and
// compiles the paper's three kernels at Table 2 scale, one after another,
// then costs, assesses and runs each once on seeded inputs. Every
// operation is one kernel; all of its time goes to the compiler layers.

// compileKernel is one paper kernel with seeded input assignments and the
// outputs an independent golden model gives for them.
type compileKernel struct {
	name   string
	build  func() (*dfg.Graph, error)
	inputs []map[string]bool
	want   []map[string]bool
}

// inputSets is how many seeded input assignments each kernel cycles.
const inputSets = 8

func compileKernels(rng *rand.Rand, smoke bool) ([]*compileKernel, error) {
	aesCfg, sobelCfg, bwCfg := aes.DefaultConfig(), sobel.DefaultConfig(), bitweaving.DefaultConfig()
	if smoke {
		aesCfg.Rounds = 2
		sobelCfg.TileW, sobelCfg.TileH = 2, 2
		bwCfg = bitweaving.Config{Bits: 8, Segments: 2}
	}
	ks := []*compileKernel{
		{name: "aes", build: func() (*dfg.Graph, error) { return aes.Build(aesCfg) }},
		{name: "sobel", build: func() (*dfg.Graph, error) { return sobel.Build(sobelCfg) }},
		{name: "bitweaving", build: func() (*dfg.Graph, error) { return bitweaving.Build(bwCfg) }},
	}
	for i := 0; i < inputSets; i++ {
		var pt, key [16]byte
		rng.Read(pt[:])
		rng.Read(key[:])
		in, err := aes.Assignments(aesCfg, pt, key)
		if err != nil {
			return nil, err
		}
		ct := aes.EncryptReference(pt, key, aesCfg.Rounds)
		want := map[string]bool{}
		for b := 0; b < 16; b++ {
			for bit := 0; bit < 8; bit++ {
				want[aes.CTName(b, bit)] = ct[b]>>uint(bit)&1 == 1
			}
		}
		ks[0].inputs, ks[0].want = append(ks[0].inputs, in), append(ks[0].want, want)

		patch := make([][]int, sobelCfg.TileH+2)
		for y := range patch {
			patch[y] = make([]int, sobelCfg.TileW+2)
			for x := range patch[y] {
				patch[y][x] = rng.Intn(1 << uint(sobelCfg.PixelBits))
			}
		}
		if in, err = sobel.Assignments(sobelCfg, patch); err != nil {
			return nil, err
		}
		want = map[string]bool{}
		for y := 0; y < sobelCfg.TileH; y++ {
			for x := 0; x < sobelCfg.TileW; x++ {
				want[sobel.EdgeName(x, y)] = sobel.Reference(sobelCfg, patch, x, y)
			}
		}
		ks[1].inputs, ks[1].want = append(ks[1].inputs, in), append(ks[1].want, want)

		mask := uint64(1)<<uint(bwCfg.Bits) - 1
		c1, c2 := rng.Uint64()&mask, rng.Uint64()&mask
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		values := make([]uint64, bwCfg.Segments)
		want = map[string]bool{}
		for s := range values {
			values[s] = rng.Uint64() & mask
			want[bitweaving.OutName(s)] = bitweaving.Reference(values[s], c1, c2, bwCfg.Bits)
		}
		if in, err = bitweaving.Assignments(bwCfg, values, c1, c2); err != nil {
			return nil, err
		}
		ks[2].inputs, ks[2].want = append(ks[2].inputs, in), append(ks[2].want, want)
	}
	return ks, nil
}

func checkOutputs(name string, got, want map[string]bool) error {
	for out, w := range want {
		g, ok := got[out]
		if !ok {
			return fmt.Errorf("%s: no output %q", name, out)
		}
		if g != w {
			return fmt.Errorf("%s: output %q = %v, reference %v", name, out, g, w)
		}
	}
	return nil
}

// facadeOp is one untraced operation: the kernel through CompileGraph
// (with both static gates), Cost, Reliability and one Run.
func (k *compileKernel) facadeOp(i int, q *quality) error {
	g, err := k.build()
	if err != nil {
		return err
	}
	c, err := sherlock.CompileGraph(g, benchOptions())
	if err != nil {
		return fmt.Errorf("%s: %w", k.name, err)
	}
	if err := q.addCompiled(c); err != nil {
		return fmt.Errorf("%s: %w", k.name, err)
	}
	got, err := c.Run(k.inputs[i%len(k.inputs)])
	if err != nil {
		return fmt.Errorf("%s: %w", k.name, err)
	}
	return checkOutputs(k.name, got, k.want[i%len(k.inputs)])
}

// stagedOp is the traced operation: the same work with every layer called
// separately and wrapped in a span.
func (k *compileKernel) stagedOp(tr *tracer, op int64, i int, q *quality) (*staged, error) {
	root := tr.begin("compile.op", k.name, op, spanRef{})
	defer root.end()
	s, err := compileStaged(tr, op, root, k.name, k.build)
	if err != nil {
		return nil, err
	}
	q.add(s.res.Program, s.cost, s.rel)
	sp := tr.begin("sim.run", k.name, op, root)
	got, err := s.run(k.inputs[i%len(k.inputs)])
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.name, err)
	}
	return s, checkOutputs(k.name, got, k.want[i%len(k.inputs)])
}

// minCompileRounds keeps p90 over kernel operations at least minBeyond
// samples deep; the timed phase outlasts --seconds on a machine too slow
// to reach it.
const minCompileRounds = (10*minBeyond + 2) / 3

func runCompile(cfg runConfig, r *result) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	var first *quality
	ks, err := setupMedian(r, cfg.setupReps(), func() ([]*compileKernel, error) {
		ks, err := compileKernels(rand.New(rand.NewSource(cfg.seed)), cfg.smoke)
		if err != nil {
			return nil, err
		}
		// One warm-up round fills lazily built tables (S-box circuit,
		// P_DF memo) before anything is timed.
		q := &quality{}
		for i, k := range ks {
			if err := k.facadeOp(i, q); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		if first != nil {
			checkQuality(r, first, q)
		}
		first = q
		return ks, nil
	}, func([]*compileKernel) {})
	if err != nil {
		return err
	}
	first.set(r)

	// facadeRound runs one untraced round, logging each kernel operation.
	facadeRound := func(round int, l *opLog) {
		q := &quality{}
		for _, k := range ks {
			r.Attempted++
			s := time.Now()
			err := k.facadeOp(round, q)
			l.add(s)
			if err != nil {
				r.fail(err)
			}
		}
		checkQuality(r, first, q)
	}

	if !cfg.traced {
		minRounds := minCompileRounds
		if cfg.smoke {
			minRounds = 1
		}
		l := newOpLog()
		a0 := heapAllocs()
		for round := 0; round < minRounds || time.Since(l.start) < cfg.duration(1); round++ {
			facadeRound(round, l)
		}
		return r.opMetrics(l, heapAllocs()-a0, cfg.smoke, len(ks), 0.5, 0.9)
	}

	// Traced: facade rounds (the overhead baseline) alternate with staged
	// rounds that call every layer separately inside spans, so both see the
	// same host conditions.
	base := newOpLog()
	var traced []float64
	var costs [][]stageCosts
	var last []*staged
	op := int64(0)
	for round := 0; round < 2 || time.Since(base.start) < cfg.duration(1); round++ {
		if round%2 == 0 {
			facadeRound(round, base)
			continue
		}
		q := &quality{}
		var set []*staged
		for _, k := range ks {
			op++
			r.Attempted++
			s := time.Now()
			st, err := k.stagedOp(cfg.tr, op, round, q)
			traced = append(traced, ms(time.Since(s)))
			if err != nil {
				r.fail(err)
				continue
			}
			set = append(set, st)
		}
		checkQuality(r, first, q)
		if len(set) == len(ks) {
			costs, last = append(costs, costsOf(set)), set
		}
	}
	if last == nil {
		return fmt.Errorf("no traced round completed")
	}
	passes := map[string][]float64{}
	for _, s := range last {
		d, err := passProbe(cfg.tr, -1, s.name, s.exec, rng, 50)
		if err != nil {
			return err
		}
		passes[s.name] = []float64{float64(d)}
	}
	stagedSet(r, costs, last, passes)

	// How far the layer-by-layer stage sum lands from the facade's own
	// operation time, kernel by kernel (the stages should account for
	// nearly all of it; the rest is the Run and the reference check).
	perKernel := map[string][]float64{}
	for i, d := range base.lat {
		perKernel[ks[i%len(ks)].name] = append(perKernel[ks[i%len(ks)].name], d)
	}
	stageSum, facade := 0.0, 0.0
	for _, k := range ks {
		facade += median(perKernel[k.name])
	}
	for _, name := range stageNames {
		stageSum += r.Metrics[name+"_ms"].Value
	}
	r.set("compile.stage_gap_pct", "%", 100*(stageSum-facade)/facade)
	r.traceOverhead(base.lat, traced)
	return nil
}
