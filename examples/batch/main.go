// Batch: compile a kernel once and run many independent executions with
// Compiled.RunBatch. Inputs pack 64 per word onto the SWAR lane executor
// (one program pass covers a whole chunk of lanes), and chunks fan out
// over up to GOMAXPROCS workers. Outputs come back in input order,
// identical to running each input on its own.
//
// The second half switches to RunBatchWords, the packed-bits fast path:
// vectors arrive pre-packed one bit per lane (slot order InputNames()),
// skipping the per-vector maps entirely, and a reused output buffer makes
// steady-state calls allocation-free — the layout the serving layer's
// batch coalescer (internal/serve) merges concurrent callers into.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"sherlock"
)

const kernel = `
// One bit-slice of a masked-popcount stage: select, combine, carry.
void stage(word v, word m, word cin, word *sum, word *cout) {
	word x = v & m;
	*sum = x ^ cin;
	*cout = x & cin;
}`

func main() {
	compiled, err := sherlock.CompileC(kernel, sherlock.Options{
		Tech:      sherlock.ReRAM,
		ArraySize: 128,
		Mapper:    sherlock.MapperOptimized,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 200 independent input vectors: four lane words (the last one
	// partial), one program pass.
	rng := rand.New(rand.NewSource(42))
	batch := make([]map[string]bool, 200)
	for i := range batch {
		batch[i] = map[string]bool{
			"v": rng.Intn(2) == 1, "m": rng.Intn(2) == 1, "cin": rng.Intn(2) == 1,
		}
	}
	start := time.Now()
	outs, err := compiled.RunBatch(batch, 0)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	fmt.Printf("simulated %d vectors in %v (%.0f vectors/sec)\n\n",
		len(batch), elapsed.Round(time.Microsecond),
		float64(len(batch))/elapsed.Seconds())

	// Check every vector against the golden DFG evaluation; print the
	// first 16.
	mismatches := 0
	fmt.Println(" #  v m cin | sum cout | golden")
	for i, in := range batch {
		golden, err := compiled.Evaluate(in)
		if err != nil {
			log.Fatal(err)
		}
		match := "ok"
		if outs[i]["sum"] != golden["sum"] || outs[i]["cout"] != golden["cout"] {
			match = "MISMATCH"
			mismatches++
		}
		if i < 16 {
			fmt.Printf("%2d  %d %d  %d  |  %d    %d   | %s\n",
				i, b2i(in["v"]), b2i(in["m"]), b2i(in["cin"]),
				b2i(outs[i]["sum"]), b2i(outs[i]["cout"]), match)
		}
	}
	fmt.Printf("... %d more vectors, %d mismatches\n", len(batch)-16, mismatches)

	// The same batch through the packed fast path: pack each input's 200
	// bits into lane words (stride W = ceil(200/64) = 4), run, and compare
	// against the map-based outputs bit for bit.
	names := compiled.InputNames()
	lanes := len(batch)
	W := (lanes + 63) / 64
	in := make([]uint64, len(names)*W)
	for l, vec := range batch {
		for s, name := range names {
			if vec[name] {
				in[s*W+l/64] |= uint64(1) << uint(l%64)
			}
		}
	}
	var out []uint64 // reused across calls: steady state allocates nothing
	start = time.Now()
	const reps = 50
	for rep := 0; rep < reps; rep++ {
		out, err = compiled.RunBatchWords(in, lanes, out, 0)
		if err != nil {
			log.Fatal(err)
		}
	}
	elapsed = time.Since(start) / reps
	fmt.Printf("\npacked path: %d vectors in %v (%.0f vectors/sec, buffer reused %dx)\n",
		lanes, elapsed, float64(lanes)/elapsed.Seconds(), reps)

	packedMismatches := 0
	for o, name := range compiled.OutputNames() {
		for l := 0; l < lanes; l++ {
			if out[o*W+l/64]>>uint(l%64)&1 == 1 != outs[l][name] {
				packedMismatches++
			}
		}
	}
	fmt.Printf("packed vs map outputs: %d mismatches\n", packedMismatches)
}
