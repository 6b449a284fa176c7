package aig_test

import (
	"testing"

	"sherlock/internal/aig"
	"sherlock/internal/dfg"
	"sherlock/internal/workloads/aes"
	"sherlock/internal/workloads/sobel"
)

var verdictSink []aig.PairVerdict

// BenchmarkCheckOutputs times the prover on real co-optimization
// candidates: a kernel at the quick experiment scale, rewritten, grafted
// next to its lifted original and checked output by output. Both rebuild
// the graft, and every output's joint support exceeds the table's bound.
func BenchmarkCheckOutputs(b *testing.B) {
	cases := []struct {
		name  string
		build func() (*dfg.Graph, error)
	}{
		{"sobel2x2/rewrite", func() (*dfg.Graph, error) {
			return sobel.Build(sobel.Config{TileW: 2, TileH: 2, PixelBits: 8, Threshold: 128})
		}},
		{"aes2/rewrite", func() (*dfg.Graph, error) { return aes.Build(aes.Config{Rounds: 2}) }},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			kernel, err := bc.build()
			if err != nil {
				b.Fatal(err)
			}
			c, err := aig.LiftDFG(kernel)
			if err != nil {
				b.Fatal(err)
			}
			g2, outs2, _ := aig.Rewrite(c.G, c.Outs)
			cand := aig.Graft(c.G, g2, outs2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verdictSink, _ = aig.CheckOutputs(c.G, c.Outs, cand)
			}
		})
	}
}
