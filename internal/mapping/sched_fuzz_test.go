package mapping

import (
	"math/rand"
	"testing"

	"sherlock/internal/dfg"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/sim"
	"sherlock/internal/verify"
)

// TestOptimizedMatchesEvaluateWords fuzzes the whole optimized pipeline —
// clustering, ready-queue code generation and instruction merging —
// against the DFG's own SWAR golden model: every compiled program must be
// valid and verifier-clean, and the pre-decoded executor must read out,
// over all 64 lanes, exactly the output words dfg.EvaluateWords computes
// for the same inputs.
func TestOptimizedMatchesEvaluateWords(t *testing.T) {
	target := layout.Target{Arrays: 2, Rows: 32, Cols: 24}
	trials := 25
	if testing.Short() {
		trials = 6
	}
	ran := 0
	for trial := 0; trial < trials; trial++ {
		seed := int64(9000 + trial)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 4+rng.Intn(4), 12+rng.Intn(24))
		res, err := Optimized(g, Options{Target: target})
		if err != nil {
			continue // random graph exceeded the target
		}
		if err := res.Program.Validate(); err != nil {
			t.Fatalf("seed %d: program invalid: %v", seed, err)
		}
		if rep := verify.Program(res.Program, target); len(rep.Findings) != 0 {
			t.Fatalf("seed %d: %d verifier findings, first: %v",
				seed, len(rep.Findings), rep.Findings[0])
		}
		ran++
		names := g.OutputNames()
		for vec := 0; vec < 2; vec++ {
			words := make(map[string]uint64)
			for _, name := range g.InputNames() {
				words[name] = rng.Uint64()
			}
			want, err := dfg.EvaluateWords(g, words)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			m, err := execRun(res.Program, target, words)
			if err != nil {
				t.Fatalf("seed %d: program rejected: %v", seed, err)
			}
			for i, out := range g.Outputs() {
				p, err := res.OutputPlace(out)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				got, err := m.ReadOutWord(p, 0)
				if err != nil {
					t.Fatalf("seed %d: readout %v: %v", seed, p, err)
				}
				if got != want[names[i]] {
					t.Fatalf("seed %d vector %d: output %q = %#x, golden model %#x",
						seed, vec, names[i], got, want[names[i]])
				}
			}
		}
	}
	if ran < trials/2 {
		t.Fatalf("only %d/%d random graphs fit the target; widen it", ran, trials)
	}
}

// execRun predecodes p and runs it once over 64 lanes of word inputs.
func execRun(p isa.Program, target layout.Target, words map[string]uint64) (*sim.ExecMachine, error) {
	x, err := sim.Predecode(p, target)
	if err != nil {
		return nil, err
	}
	m := x.NewMachine(1)
	if err := m.RunMap(words); err != nil {
		return nil, err
	}
	return m, nil
}
