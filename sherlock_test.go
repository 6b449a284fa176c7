package sherlock

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

const demoKernel = `
void demo(word a, word b, word c, word *lo, word *hi) {
	word t = (a & b) ^ c;
	*lo = t | ~a;
	*hi = t & b;
}`

func TestCompileCAndRun(t *testing.T) {
	for _, mapper := range []MapperKind{MapperNaive, MapperOptimized} {
		c, err := CompileC(demoKernel, Options{Mapper: mapper, Tech: ReRAM, ArraySize: 128})
		if err != nil {
			t.Fatalf("%v: %v", mapper, err)
		}
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 16; trial++ {
			in := map[string]bool{
				"a": rng.Intn(2) == 1, "b": rng.Intn(2) == 1, "c": rng.Intn(2) == 1,
			}
			got, err := c.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.Evaluate(in)
			if err != nil {
				t.Fatal(err)
			}
			for name, w := range want {
				if got[name] != w {
					t.Fatalf("%v trial %d: %s = %v, want %v", mapper, trial, name, got[name], w)
				}
			}
		}
	}
}

func TestCompileCSyntaxError(t *testing.T) {
	if _, err := CompileC("void broken(", Options{}); err == nil {
		t.Fatal("syntax error not reported")
	}
}

func TestCostAndReliability(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: STTMRAM, ArraySize: 256})
	if err != nil {
		t.Fatal(err)
	}
	cost, err := c.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if cost.LatencyNS <= 0 || cost.EnergyPJ <= 0 {
		t.Errorf("degenerate cost %+v", cost)
	}
	rel, err := c.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	if rel.PApp <= 0 || rel.PApp >= 1 {
		t.Errorf("P_app = %g outside (0,1)", rel.PApp)
	}
	if rel.SenseDecisions == 0 {
		t.Error("no sense decisions counted")
	}
}

func TestBuilderFrontend(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input("x"), b.Input("y")
	b.Output("nand", b.Nand(x, y))
	c, err := CompileGraph(b.Graph(), Options{ArraySize: 128, Arrays: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []map[string]bool{
		{"x": true, "y": true}, {"x": true, "y": false},
	} {
		got, err := c.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if got["nand"] != !(in["x"] && in["y"]) {
			t.Fatalf("nand(%v) = %v", in, got["nand"])
		}
	}
}

func TestMultiRowActivationOption(t *testing.T) {
	b := NewBuilder()
	b.DisableCSE = true
	acc := b.Input("v0")
	for i := 1; i < 6; i++ {
		acc = b.And(acc, b.Input(fmt.Sprintf("v%d", i)))
	}
	b.Output("all", acc)
	g := b.Graph()

	plain, err := CompileGraph(g, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := CompileGraph(g, Options{Tech: ReRAM, ArraySize: 128, MultiRowActivation: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Program) >= len(plain.Program) {
		t.Errorf("MRA did not shrink the program: %d vs %d", len(fused.Program), len(plain.Program))
	}
	in := make(map[string]bool)
	for i := 0; i < 6; i++ {
		in[fmt.Sprintf("v%d", i)] = true
	}
	got, err := fused.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !got["all"] {
		t.Error("fused AND chain computed wrong result")
	}
}

func TestNANDLoweringOption(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input("x"), b.Input("y")
	b.Output("o", b.Xor(x, y))
	c, err := CompileGraph(b.Graph(), Options{Tech: STTMRAM, ArraySize: 128, NANDLowering: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(map[string]bool{"x": true, "y": false})
	if err != nil {
		t.Fatal(err)
	}
	if !got["o"] {
		t.Error("lowered XOR wrong")
	}
	// The lowered program must not issue XOR sense reads.
	for _, in := range c.Program {
		for _, op := range in.Ops {
			if op.String() == "XOR" || op.String() == "OR" {
				t.Fatalf("instruction %s kept a non-NAND sense op", in)
			}
		}
	}
}

// TestRunWithFaultsInjects checks the shipped fault sampler against the
// shipped reliability model: over 4,000 seeds of a 31-XOR chain on
// STT-MRAM, the total injected faults must fall inside a 99% interval
// around the expected total 4,000·Σ Count·P_DF that reliability.Assess
// gives. A run that injects no fault must compute the kernel exactly.
func TestRunWithFaultsInjects(t *testing.T) {
	b := NewBuilder()
	b.DisableCSE = true
	acc := b.Input("i0")
	for i := 1; i < 32; i++ {
		acc = b.Xor(acc, b.Input(fmt.Sprintf("i%d", i)))
	}
	b.Output("parity", acc)
	c, err := CompileGraph(b.Graph(), Options{Tech: STTMRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	in := make(map[string]bool)
	for i := 0; i < 32; i++ {
		in[fmt.Sprintf("i%d", i)] = i%3 == 0
	}
	want, err := c.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 4000
	// Each run's flip count is a sum of independent Bernoulli decisions,
	// so the total over the seeds has this mean and variance.
	mean, variance := 0.0, 0.0
	for _, cl := range rep.Classes {
		mean += seeds * float64(cl.Count) * cl.PDF
		variance += seeds * float64(cl.Count) * cl.PDF * (1 - cl.PDF)
	}
	if mean < 100 {
		t.Fatalf("expected total %.1f faults is too small for a normal interval", mean)
	}
	total := 0
	for seed := int64(0); seed < seeds; seed++ {
		got, n, err := c.RunWithFaults(in, seed)
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if n == 0 && got["parity"] != want["parity"] {
			t.Fatalf("seed %d: fault-free run computed %v, want %v", seed, got["parity"], want["parity"])
		}
	}
	half := 2.576 * math.Sqrt(variance)
	t.Logf("%d faults injected over %d runs; expected %.1f ± %.1f", total, seeds, mean, half)
	if math.Abs(float64(total)-mean) > half {
		t.Errorf("%d faults injected over %d runs, want %.1f ± %.1f", total, seeds, mean, half)
	}
}

func TestOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ArraySize != 512 || o.Arrays != 4 {
		t.Errorf("defaults wrong: %+v", o)
	}
	o2 := Options{MultiRowActivation: true}.withDefaults()
	if o2.MRAFraction != 1 {
		t.Errorf("MRA fraction default wrong: %+v", o2)
	}
	if MapperNaive.String() == MapperOptimized.String() {
		t.Error("mapper names collide")
	}
}

// TestCompileRejectsBadMRAFraction checks that an MRA fraction outside
// [0,1] (or NaN) is a compile error rather than a panic in the fusion
// pass, and that the fraction is not read with MRA off.
func TestCompileRejectsBadMRAFraction(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	b.Output("o", b.And(b.And(x, y), z))
	for _, f := range []float64{-0.5, 2, math.NaN()} {
		if _, err := CompileGraph(b.Graph(), Options{Tech: ReRAM, ArraySize: 16, MultiRowActivation: true, MRAFraction: f}); err == nil {
			t.Errorf("MRAFraction %g compiled", f)
		}
		if _, err := CompileGraph(b.Graph(), Options{Tech: ReRAM, ArraySize: 16, MRAFraction: f}); err != nil {
			t.Errorf("MRAFraction %g with MRA off: %v", f, err)
		}
	}
}

func TestCostParallelBoundedBySerial(t *testing.T) {
	// A kernel mapped across several small arrays: the parallel makespan
	// must not exceed the serial sum and must agree on energy.
	b := NewBuilder()
	b.DisableCSE = true
	for k := 0; k < 6; k++ {
		x := b.Input(fmt.Sprintf("a%d", k))
		y := b.Input(fmt.Sprintf("b%d", k))
		acc := b.And(x, y)
		for i := 0; i < 10; i++ {
			acc = b.Xor(acc, y)
		}
		b.Output(fmt.Sprintf("o%d", k), acc)
	}
	c, err := CompileGraph(b.Graph(), Options{Tech: ReRAM, ArraySize: 16, Arrays: 6})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := c.Cost()
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.CostParallel()
	if err != nil {
		t.Fatal(err)
	}
	if par.LatencyNS > serial.LatencyNS*(1+1e-9) {
		t.Errorf("parallel latency %.1f exceeds serial %.1f", par.LatencyNS, serial.LatencyNS)
	}
	if par.EnergyPJ != serial.EnergyPJ {
		t.Error("timing model changed energy")
	}
}

func TestRunBatchMatchesSequentialRun(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	// 131 vectors: two full 64-wide lane groups plus a 3-lane partial word.
	batch := make([]map[string]bool, 131)
	for i := range batch {
		batch[i] = map[string]bool{
			"a": rng.Intn(2) == 1, "b": rng.Intn(2) == 1, "c": rng.Intn(2) == 1,
		}
	}
	for _, parallelism := range []int{1, 4, 0} {
		outs, err := c.RunBatch(batch, parallelism)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if len(outs) != len(batch) {
			t.Fatalf("parallelism %d: %d outputs for %d inputs", parallelism, len(outs), len(batch))
		}
		for i, in := range batch {
			want, err := c.Evaluate(in)
			if err != nil {
				t.Fatal(err)
			}
			for name, w := range want {
				if outs[i][name] != w {
					t.Fatalf("parallelism %d input %d: %s = %v, want %v",
						parallelism, i, name, outs[i][name], w)
				}
			}
		}
	}
}

func TestRunBatchPropagatesError(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Input 70 is missing a binding; the strict simulator must reject it
	// and RunBatch must surface the failure with that input's index even
	// though it sits in the second lane group.
	batch := make([]map[string]bool, 80)
	for i := range batch {
		batch[i] = map[string]bool{"a": true, "b": true, "c": false}
	}
	batch[70] = map[string]bool{"a": true}
	_, err = c.RunBatch(batch, 2)
	if err == nil {
		t.Fatal("no error for underspecified input")
	}
	if !strings.Contains(err.Error(), "input 70") {
		t.Fatalf("error %q does not name failing batch index 70", err)
	}
}

// TestVerifyCompiledPrograms: the facade verifier must report zero findings
// for both mappers' emitted programs, at any severity — the compile-time
// proof that mapping and merging preserved def-before-use soundness.
func TestVerifyCompiledPrograms(t *testing.T) {
	for _, mapper := range []MapperKind{MapperNaive, MapperOptimized} {
		for _, mra := range []bool{false, true} {
			c, err := CompileC(demoKernel, Options{
				Mapper: mapper, Tech: STTMRAM, ArraySize: 128,
				MultiRowActivation: mra, RecycleRows: mra,
			})
			if err != nil {
				t.Fatalf("%v/mra=%v: %v", mapper, mra, err)
			}
			rep := c.Verify()
			for _, f := range rep.Findings {
				t.Errorf("%v/mra=%v: %v", mapper, mra, f)
			}
			if len(rep.Findings) != 0 {
				t.Fatalf("%v/mra=%v: emitted program has static findings", mapper, mra)
			}
			if got, want := strings.Join(rep.Bindings(), ","), strings.Join(c.Program.Bindings(), ","); got != want {
				t.Fatalf("%v/mra=%v: verifier bindings %q, program bindings %q", mapper, mra, got, want)
			}
		}
	}
}

// TestVerifyEmittedOption: the debug flag gates compilation on the
// verifier; a healthy compile passes through unchanged.
func TestVerifyEmittedOption(t *testing.T) {
	c, err := CompileC(demoKernel, Options{VerifyEmitted: true})
	if err != nil {
		t.Fatalf("verified compile failed: %v", err)
	}
	out, err := c.Run(map[string]bool{"a": true, "b": false, "c": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("outputs = %v", out)
	}
}

// TestVerifyEquivalenceOption: the translation validator proves the emitted
// program against the SOURCE kernel through every pipeline configuration —
// plain, MRA-fused, NAND-lowered, and resynthesized compiles included.
func TestVerifyEquivalenceOption(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"naive", Options{Mapper: MapperNaive}},
		{"mra", Options{MultiRowActivation: true}},
		{"nand", Options{NANDLowering: true}},
		{"resynth", Options{Resynthesize: true, ResynthIterations: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.ArraySize = 128
			tc.opts.VerifyEquivalence = true
			c, err := CompileC(demoKernel, tc.opts)
			if err != nil {
				t.Fatalf("equivalence-gated compile failed: %v", err)
			}
			rep, err := c.VerifyEquivalence()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.AllProven() {
				t.Fatalf("not all outputs proven: %v", rep.Err())
			}
			for _, o := range rep.Outputs {
				if o.Method == "" {
					t.Fatalf("output %q missing proof method", o.Name)
				}
			}
		})
	}
}
