// Command goldengen regenerates the pinned mapper outputs under
// internal/mapping/testdata. The golden files freeze the exact program text
// both mappers emit for a fixed workload set; TestGoldenPrograms diffs
// against them so that performance work on the compiler fast path cannot
// silently change emitted code. Run it only when an intentional
// code-generation change lands:
//
//	go run ./internal/mapping/goldengen internal/mapping/testdata
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"sherlock/internal/dfg"
	"sherlock/internal/layout"
	"sherlock/internal/mapping"
	"sherlock/internal/verify"
	"sherlock/internal/workloads/aes"
	"sherlock/internal/workloads/bitweaving"
	"sherlock/internal/workloads/sobel"
)

func main() {
	dir := os.Args[1]
	type kase struct {
		name string
		g    *dfg.Graph
		t    layout.Target
		opt  mapping.Options
	}
	must := func(g *dfg.Graph, err error) *dfg.Graph {
		if err != nil {
			panic(err)
		}
		return g
	}
	bw := must(bitweaving.Build(bitweaving.Config{Bits: 16, Segments: 8}))
	sb := must(sobel.Build(sobel.Config{TileW: 2, TileH: 2, PixelBits: 8, Threshold: 128}))
	ae := must(aes.Build(aes.Config{Rounds: 2}))
	cases := []kase{
		{"bitweaving", bw, layout.Target{Arrays: 1, Rows: 256, Cols: 256}, mapping.Options{}},
		{"sobel", sb, layout.Target{Arrays: 1, Rows: 128, Cols: 128}, mapping.Options{}},
		{"sobel_recycle", sb, layout.Target{Arrays: 1, Rows: 64, Cols: 512}, mapping.Options{RecycleRows: true}},
		{"aes", ae, layout.Target{Arrays: 4, Rows: 512, Cols: 512}, mapping.Options{}},
	}
	for _, k := range cases {
		k.opt.Target = k.t
		for _, mode := range []string{"naive", "opt"} {
			var res *mapping.Result
			var err error
			if mode == "naive" {
				res, err = mapping.Naive(k.g, k.opt)
			} else {
				res, err = mapping.Optimized(k.g, k.opt)
			}
			if err != nil {
				panic(fmt.Sprintf("%s/%s: %v", k.name, mode, err))
			}
			path := filepath.Join(dir, k.name+"_"+mode+".golden")
			if err := os.WriteFile(path, []byte(res.Program.String()), 0o644); err != nil {
				panic(err)
			}
			// The readout manifest sidecar lets tools (sherlock-lint -equiv,
			// the golden CI gate) reconnect the pinned program to its
			// kernel's outputs without redoing the mapping.
			outs, names := res.Graph.Outputs(), res.Graph.OutputNames()
			specs := make([]verify.OutputAt, len(outs))
			for i, o := range outs {
				p, err := res.OutputPlace(o)
				if err != nil {
					panic(fmt.Sprintf("%s/%s: %v", k.name, mode, err))
				}
				specs[i] = verify.OutputAt{Name: names[i], Place: p}
			}
			opath := filepath.Join(dir, k.name+"_"+mode+".outputs")
			if err := os.WriteFile(opath, []byte(verify.FormatOutputs(specs)), 0o644); err != nil {
				panic(err)
			}
			fmt.Printf("%s: %d instructions, %d outputs\n", path, len(res.Program), len(specs))
		}
	}
}
