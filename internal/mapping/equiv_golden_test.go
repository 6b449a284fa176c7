package mapping_test

import (
	"os"
	"path/filepath"
	"testing"

	"sherlock/internal/dfg"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/mapping"
	"sherlock/internal/verify"
	"sherlock/internal/workloads/aes"
	"sherlock/internal/workloads/bitweaving"
	"sherlock/internal/workloads/sobel"
)

// goldenEquivCases mirrors goldengen's workload set; the .outputs sidecars
// under testdata are the readout manifests it emits alongside each golden.
func goldenEquivCases(tb testing.TB) []struct {
	name   string
	g      *dfg.Graph
	target layout.Target
	opt    mapping.Options
} {
	must := func(g *dfg.Graph, err error) *dfg.Graph {
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}
	bw := must(bitweaving.Build(bitweaving.Config{Bits: 16, Segments: 8}))
	sb := must(sobel.Build(sobel.Config{TileW: 2, TileH: 2, PixelBits: 8, Threshold: 128}))
	ae := must(aes.Build(aes.Config{Rounds: 2}))
	return []struct {
		name   string
		g      *dfg.Graph
		target layout.Target
		opt    mapping.Options
	}{
		{"bitweaving", bw, layout.Target{Arrays: 1, Rows: 256, Cols: 256}, mapping.Options{}},
		{"sobel", sb, layout.Target{Arrays: 1, Rows: 128, Cols: 128}, mapping.Options{}},
		{"sobel_recycle", sb, layout.Target{Arrays: 1, Rows: 64, Cols: 512}, mapping.Options{RecycleRows: true}},
		{"aes", ae, layout.Target{Arrays: 4, Rows: 512, Cols: 512}, mapping.Options{}},
	}
}

// TestGoldenProgramsProveEquivalent is the translation-validation bar over
// the whole pinned corpus: every golden program — parsed back from its
// pinned text, not remapped — must statically prove equivalent to the
// kernel it was compiled from, with the readout contract taken from the
// .outputs manifest sidecar. This subsumes the byte-diff of
// TestGoldenPrograms in strength: even a regenerated golden cannot land
// unless the new program still computes the kernel.
func TestGoldenProgramsProveEquivalent(t *testing.T) {
	for _, c := range goldenEquivCases(t) {
		c.opt.Target = c.target
		for _, mode := range []string{"naive", "opt"} {
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				text, err := os.ReadFile(filepath.Join("testdata", c.name+"_"+mode+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				prog, err := isa.ParseProgram(string(text))
				if err != nil {
					t.Fatal(err)
				}
				mtext, err := os.ReadFile(filepath.Join("testdata", c.name+"_"+mode+".outputs"))
				if err != nil {
					t.Fatal(err)
				}
				outs, err := verify.ParseOutputs(string(mtext))
				if err != nil {
					t.Fatal(err)
				}
				// The manifest must match what a fresh mapping would emit —
				// a stale sidecar fails here, not with a confusing proof
				// error.
				var res *mapping.Result
				if mode == "naive" {
					res, err = mapping.Naive(c.g, c.opt)
				} else {
					res, err = mapping.Optimized(c.g, c.opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				fresh := manifestOf(t, res)
				if got := verify.FormatOutputs(outs); got != fresh {
					t.Fatalf("manifest out of date; regenerate with `go run ./internal/mapping/goldengen internal/mapping/testdata`")
				}
				rep, err := verify.EquivalentOpts(prog, c.target, c.g, outs, verify.EquivOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.AllProven() {
					t.Fatalf("golden not proven equivalent: %v", rep.Err())
				}
				// A faithful compile discharges by structural hash alone.
				for _, o := range rep.Outputs {
					if o.Method != "strash" {
						t.Errorf("output %q proved by %s, want strash", o.Name, o.Method)
					}
				}
			})
		}
	}
}

func manifestOf(tb testing.TB, res *mapping.Result) string {
	outs := res.Graph.Outputs()
	specs := make([]verify.OutputAt, len(outs))
	for i, o := range outs {
		p, err := res.OutputPlace(o)
		if err != nil {
			tb.Fatal(err)
		}
		specs[i] = verify.OutputAt{Name: res.Graph.OutputName(o), Place: p}
	}
	return verify.FormatOutputs(specs)
}

// BenchmarkVerifyEquiv measures the translation validator on the two
// largest pinned programs. The symbolic execution is O(instructions) AIG
// construction, and a faithful mapping discharges by structural hash, so
// the whole proof stays linear in program size.
func BenchmarkVerifyEquiv(b *testing.B) {
	for _, name := range []string{"aes", "sobel"} {
		var (
			g      *dfg.Graph
			target layout.Target
		)
		for _, c := range goldenEquivCases(b) {
			if c.name == name {
				g, target = c.g, c.target
			}
		}
		text, err := os.ReadFile(filepath.Join("testdata", name+"_opt.golden"))
		if err != nil {
			b.Fatal(err)
		}
		prog, err := isa.ParseProgram(string(text))
		if err != nil {
			b.Fatal(err)
		}
		mtext, err := os.ReadFile(filepath.Join("testdata", name+"_opt.outputs"))
		if err != nil {
			b.Fatal(err)
		}
		outs, err := verify.ParseOutputs(string(mtext))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := verify.EquivalentOpts(prog, target, g, outs, verify.EquivOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.AllProven() {
					b.Fatal(rep.Err())
				}
			}
		})
	}
}
