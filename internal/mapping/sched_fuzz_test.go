package mapping

import (
	"fmt"
	"math/rand"
	"testing"

	"sherlock/internal/dfg"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/sim"
	"sherlock/internal/verify"
	"sherlock/internal/workloads/aes"
	"sherlock/internal/workloads/bitweaving"
	"sherlock/internal/workloads/sobel"
)

// TestSchedulerDifferentialMerge fuzzes the ready-dispatch merger against
// the legacy strict-level merger: the same unmerged program goes through
// both, and on every trial
//
//   - the ready-dispatch program must not exceed the legacy instruction
//     count (cross-level fusion only ever removes instructions — every
//     strict-level merge still happens),
//   - both must be verifier-clean, and
//   - both must leave identical machine state on both executors (strict
//     Machine, pre-decoded Exec).
func TestSchedulerDifferentialMerge(t *testing.T) {
	targets := []layout.Target{
		{Arrays: 1, Rows: 16, Cols: 32},
		{Arrays: 2, Rows: 24, Cols: 16},
		{Arrays: 3, Rows: 32, Cols: 8},
	}
	trials := 40
	if testing.Short() {
		trials = 8
	}
	ran := 0
	for trial := 0; trial < trials; trial++ {
		seed := int64(7000 + trial)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 3+rng.Intn(5), 10+rng.Intn(30))
		target := targets[trial%len(targets)]
		opt := Options{Target: target, RecycleRows: trial%2 == 1}
		res, err := Naive(g, opt)
		if err != nil {
			continue // random graph exceeded the small target
		}
		ready, _ := MergeInstructions(res.Program)
		legacy, _ := mergeInstructionsLegacy(res.Program)
		if len(ready) > len(legacy) {
			t.Fatalf("seed %d: ready-dispatch merger emitted %d instructions, legacy %d — cross-level scheduling must never lose merges",
				seed, len(ready), len(legacy))
		}
		for name, p := range map[string]isa.Program{"ready": ready, "legacy": legacy} {
			if err := p.Validate(); err != nil {
				t.Fatalf("seed %d: %s program invalid: %v", seed, name, err)
			}
			if rep := verify.Program(p, target); len(rep.Findings) != 0 {
				t.Fatalf("seed %d: %s program has %d verifier findings, first: %v",
					seed, name, len(rep.Findings), rep.Findings[0])
			}
		}
		ran++
		for vec := 0; vec < 3; vec++ {
			words := make(map[string]uint64)
			for _, name := range g.InputNames() {
				words[name] = rng.Uint64()
			}
			if err := diffRunExecutors(target, res, ready, legacy, words); err != nil {
				t.Fatalf("seed %d vector %d: %v", seed, vec, err)
			}
		}
	}
	if ran < trials/2 {
		t.Fatalf("only %d/%d random graphs fit their targets; widen the targets", ran, trials)
	}
}

// diffRunExecutors runs the two merged programs on both executors and
// compares their results: complete cell state on the strict machine (both
// programs share the unmerged program's layout) and every kernel output on
// the pre-decoded machine, whose lane 0 must also match the strict machine.
func diffRunExecutors(target layout.Target, res *Result, ready, legacy isa.Program, words map[string]uint64) error {
	// Strict machine: lane 0 of the word inputs, full state compare.
	bits := make(map[string]bool, len(words))
	for name, w := range words { //sherlock:allow rangemap
		bits[name] = w&1 == 1
	}
	m1, m2 := sim.NewMachine(target), sim.NewMachine(target)
	if err := m1.Run(ready, bits); err != nil {
		return fmt.Errorf("strict machine rejected ready-dispatch program: %w", err)
	}
	if err := m2.Run(legacy, bits); err != nil {
		return fmt.Errorf("strict machine rejected legacy program: %w", err)
	}
	for a := 0; a < target.Arrays; a++ {
		for c := 0; c < target.Cols; c++ {
			for r := 0; r < target.Rows; r++ {
				p := layout.Place{Array: a, Col: c, Row: r}
				v1, d1 := m1.Cell(p)
				v2, d2 := m2.Cell(p)
				if v1 != v2 || d1 != d2 {
					return fmt.Errorf("strict machine: cell %v diverged: ready (%v,%v), legacy (%v,%v)",
						p, v1, d1, v2, d2)
				}
			}
		}
	}

	// Pre-decoded executor: compare every output word.
	e1, err := execRun(ready, target, words)
	if err != nil {
		return fmt.Errorf("exec machine rejected ready-dispatch program: %w", err)
	}
	e2, err := execRun(legacy, target, words)
	if err != nil {
		return fmt.Errorf("exec machine rejected legacy program: %w", err)
	}
	for _, out := range res.Graph.Outputs() {
		p, err := res.OutputPlace(out)
		if err != nil {
			return err
		}
		ew1, err := e1.ReadOutWord(p, 0)
		if err != nil {
			return fmt.Errorf("exec readout of %v (ready): %w", p, err)
		}
		ew2, err := e2.ReadOutWord(p, 0)
		if err != nil {
			return fmt.Errorf("exec readout of %v (legacy): %w", p, err)
		}
		v, _ := m1.Cell(p)
		if ew1 != ew2 || (ew1&1 == 1) != v {
			return fmt.Errorf("exec machine: output %v diverged: exec ready %#x, exec legacy %#x, strict lane 0 %v",
				p, ew1, ew2, v)
		}
	}
	return nil
}

// TestSchedulerDifferentialPipeline fuzzes the whole optimized pipeline
// under both schedulers: ready-queue issue windows versus the legacy
// pre-sorted traversal with strict level barriers. Layouts legitimately
// differ (the traversals release ops in different tie orders), so the
// invariant is semantic: both verify clean and both compute the same
// output words for the same inputs.
func TestSchedulerDifferentialPipeline(t *testing.T) {
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
		ready, errR := Optimized(g, Options{Target: target})
		legacy, errL := Optimized(g, Options{Target: target, LegacyLevelScheduler: true})
		if errR != nil || errL != nil {
			if (errR == nil) != (errL == nil) {
				t.Fatalf("seed %d: schedulers disagree on feasibility: ready err=%v, legacy err=%v",
					seed, errR, errL)
			}
			continue
		}
		for name, res := range map[string]*Result{"ready": ready, "legacy": legacy} {
			if err := res.Program.Validate(); err != nil {
				t.Fatalf("seed %d: %s pipeline program invalid: %v", seed, name, err)
			}
			if rep := verify.Program(res.Program, target); len(rep.Findings) != 0 {
				t.Fatalf("seed %d: %s pipeline has %d verifier findings, first: %v",
					seed, name, len(rep.Findings), rep.Findings[0])
			}
		}
		ran++
		for vec := 0; vec < 2; vec++ {
			words := make(map[string]uint64)
			for _, name := range g.InputNames() {
				words[name] = rng.Uint64()
			}
			e1, err := execRun(ready.Program, target, words)
			if err != nil {
				t.Fatalf("seed %d: ready pipeline rejected: %v", seed, err)
			}
			e2, err := execRun(legacy.Program, target, words)
			if err != nil {
				t.Fatalf("seed %d: legacy pipeline rejected: %v", seed, err)
			}
			for _, out := range g.Outputs() {
				p1, err := ready.OutputPlace(out)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				p2, err := legacy.OutputPlace(out)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				w1, err := e1.ReadOutWord(p1, 0)
				if err != nil {
					t.Fatalf("seed %d: ready readout %v: %v", seed, p1, err)
				}
				w2, err := e2.ReadOutWord(p2, 0)
				if err != nil {
					t.Fatalf("seed %d: legacy readout %v: %v", seed, p2, err)
				}
				if w1 != w2 {
					t.Fatalf("seed %d vector %d: output %q diverged: ready %#x, legacy %#x",
						seed, vec, g.Name(out), w1, w2)
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

// TestMergeNeverExceedsLegacyOnKernels pins the count invariant on the real
// kernels the golden tests compile: for every golden workload the
// ready-dispatch merged program must be no longer than the legacy one.
func TestMergeNeverExceedsLegacyOnKernels(t *testing.T) {
	for _, tc := range goldenKernels(t) {
		res, err := Optimized(tc.g, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		legacyOpt := tc.opt
		legacyOpt.LegacyLevelScheduler = true
		leg, err := Optimized(tc.g, legacyOpt)
		if err != nil {
			t.Fatalf("%s legacy: %v", tc.name, err)
		}
		if len(res.Program) > len(leg.Program) {
			t.Errorf("%s: ready-dispatch pipeline emitted %d instructions, legacy %d",
				tc.name, len(res.Program), len(leg.Program))
		}
		t.Logf("%s: ready %d instructions, legacy %d", tc.name, len(res.Program), len(leg.Program))
	}
}

type kernelCase struct {
	name string
	g    *dfg.Graph
	opt  Options
}

// goldenKernels builds the golden-test workload set (same configs and
// targets as golden_test.go) for in-package scheduler comparisons.
func goldenKernels(t *testing.T) []kernelCase {
	t.Helper()
	must := func(g *dfg.Graph, err error) *dfg.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return []kernelCase{
		{"bitweaving", must(bitweaving.Build(bitweaving.Config{Bits: 16, Segments: 8})),
			Options{Target: layout.Target{Arrays: 1, Rows: 256, Cols: 256}}},
		{"sobel", must(sobel.Build(sobel.Config{TileW: 2, TileH: 2, PixelBits: 8, Threshold: 128})),
			Options{Target: layout.Target{Arrays: 1, Rows: 128, Cols: 128}}},
		{"aes", must(aes.Build(aes.Config{Rounds: 2})),
			Options{Target: layout.Target{Arrays: 4, Rows: 512, Cols: 512}}},
	}
}
