package mapping

import (
	"fmt"
	"math/rand"
	"testing"

	"sherlock/internal/dfg"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/logic"
	"sherlock/internal/sim/simref"
	"sherlock/internal/verify"
)

// TestMergeInstructionsDifferential fuzzes the instruction merger against
// the unmerged program it was given (seeds 1000+); see fuzzMerge for what
// every trial checks. This complements the golden tests — those pin the
// merger's output text, this pins its semantics on programs the golden set
// never exercises.
func TestMergeInstructionsDifferential(t *testing.T) {
	fuzzMerge(t, 1000)
}

// TestSchedulerDifferentialMerge runs the same merged-vs-unmerged fuzz over
// a second seed family (7000+), so the ready-dispatch merger is checked on
// twice as many random programs.
func TestSchedulerDifferentialMerge(t *testing.T) {
	fuzzMerge(t, 7000)
}

// fuzzMerge merges three unmerged programs per trial, seeded from
// seedBase: the naive and the optimized mapper's programs of a random
// graph, and the optimized mapper's program of a bit-sliced random circuit
// (slicedGraph). The optimized mapper emits the slices into columns in
// lockstep, so most instructions have fusion partners in other columns
// with different scouting ops, some at later levels inside or just past
// their deadline. For random input words every trial checks that
//
//   - the merged program is valid, verifier-clean and no longer than the
//     unmerged one,
//   - on the strict-mode machine (lane 0 of the words) both programs agree
//     on whether execution errors and leave every cell of the array in the
//     same (value, defined) state, and
//   - on the pre-decoded executor both read out the same word for every
//     kernel output, whose lane 0 matches the strict machine.
func fuzzMerge(t *testing.T, seedBase int64) {
	t.Helper()
	targets := []layout.Target{
		{Arrays: 1, Rows: 16, Cols: 32},
		{Arrays: 2, Rows: 24, Cols: 16},
		{Arrays: 3, Rows: 32, Cols: 8},
	}
	trials := 40
	if testing.Short() {
		trials = 8
	}
	ran, optimized := 0, 0
	for trial := 0; trial < trials; trial++ {
		seed := seedBase + int64(trial)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 3+rng.Intn(5), 10+rng.Intn(30))
		sliced := slicedGraph(seed, 2+rng.Intn(4), 2+rng.Intn(3), 4+rng.Intn(10))
		target := targets[trial%len(targets)]
		opt := Options{Target: target, RecycleRows: trial%2 == 1}
		for si, src := range []struct {
			g      *dfg.Graph
			mapper mapper
		}{{g, Naive}, {g, unmergedOptimized}, {sliced, unmergedOptimized}} {
			g := src.g
			res, err := src.mapper(g, opt)
			if err != nil {
				// Random graph exceeded the small target; not what this
				// test is probing.
				continue
			}
			if si > 0 {
				optimized++
			}
			merged, eliminated := MergeInstructions(res.Program)
			if eliminated < 0 {
				t.Fatalf("seed %d source %d: negative elimination count %d", seed, si, eliminated)
			}
			if len(merged) > len(res.Program) {
				t.Fatalf("seed %d source %d: merged program has %d instructions, unmerged %d",
					seed, si, len(merged), len(res.Program))
			}
			if err := merged.Validate(); err != nil {
				t.Fatalf("seed %d source %d: merged program invalid: %v", seed, si, err)
			}
			if rep := verify.Program(merged, target); len(rep.Findings) != 0 {
				t.Fatalf("seed %d source %d: merged program has %d verifier findings, first: %v",
					seed, si, len(rep.Findings), rep.Findings[0])
			}
			ran++
			for vec := 0; vec < 3; vec++ {
				words := make(map[string]uint64)
				for _, name := range g.InputNames() {
					words[name] = rng.Uint64()
				}
				if err := diffRun(target, res, merged, words); err != nil {
					t.Fatalf("seed %d source %d vector %d: %v", seed, si, vec, err)
				}
			}
		}
	}
	if ran < 3*trials/2 || optimized < trials {
		t.Fatalf("seeds %d+: only %d/%d programs (%d optimized) fit their targets; widen the targets",
			seedBase, ran, 3*trials, optimized)
	}
}

// slicedGraph builds copies bit-slices of one random circuit, the shape of
// a bit-sliced kernel such as AES: each copy has its own inputs and the
// same gate structure, but draws its own binary op at every gate, and copy
// j first passes its first input through j%3 NOTs so that the copies' ready
// levels are staggered. The optimized mapper gives the copies their own
// columns, so their reads share row sets with different scouting ops, and
// fusion partners sit at different levels.
func slicedGraph(seed int64, copies, nInputs, nGates int) *dfg.Graph {
	rng := rand.New(rand.NewSource(seed))
	type gate struct{ a, c int } // indices into the copy's values; c < 0 = NOT
	gates := make([]gate, nGates)
	used := make([]bool, nInputs+nGates)
	for i := range gates {
		n := nInputs + i
		gt := gate{a: rng.Intn(n), c: -1}
		if rng.Intn(6) != 0 {
			gt.c = (gt.a + 1 + rng.Intn(n-1)) % n
			used[gt.c] = true
		}
		used[gt.a] = true
		gates[i] = gt
	}
	binary := []logic.Op{logic.And, logic.Or, logic.Xor, logic.Nand, logic.Nor, logic.Xnor}
	g := dfg.New()
	for j := 0; j < copies; j++ {
		vals := make([]dfg.NodeID, 0, nInputs+nGates)
		for i := 0; i < nInputs; i++ {
			vals = append(vals, g.AddInput(fmt.Sprintf("s%d_in%d", j, i)))
		}
		for k := 0; k < j%3; k++ {
			vals[0] = g.AddOp(logic.Not, vals[0])
		}
		for _, gt := range gates {
			if gt.c < 0 {
				vals = append(vals, g.AddOp(logic.Not, vals[gt.a]))
				continue
			}
			vals = append(vals, g.AddOp(binary[rng.Intn(len(binary))], vals[gt.a], vals[gt.c]))
		}
		for i := nInputs; i < len(vals); i++ {
			if !used[i] {
				g.MarkOutputNamed(vals[i], fmt.Sprintf("s%d_out%d", j, i))
			}
		}
	}
	return g
}

// unmergedOptimized maps g with Algorithm 2 but stops before instruction
// merging: the result holds the optimized mapper's unmerged program.
func unmergedOptimized(g *dfg.Graph, opt Options) (*Result, error) {
	e, _, err := emitOptimized(g, opt)
	if err != nil {
		return nil, err
	}
	return &Result{Program: e.prog, Layout: e.lay, Graph: g}, nil
}

// diffRun runs the unmerged program res.Program and the merged program on
// fresh machines and compares them: error outcomes and the complete cell
// state on the strict machine (lane 0 of the words; both programs share
// res's layout), then every kernel output word on the pre-decoded
// executor, whose lane 0 must also match the strict machine.
func diffRun(target layout.Target, res *Result, merged isa.Program, words map[string]uint64) error {
	bits := make(map[string]bool, len(words))
	for name, w := range words { //sherlock:allow rangemap
		bits[name] = w&1 == 1
	}
	m1 := simref.NewMachine(target)
	err1 := m1.Run(res.Program, bits)
	m2 := simref.NewMachine(target)
	err2 := m2.Run(merged, bits)
	if (err1 == nil) != (err2 == nil) {
		return fmt.Errorf("strict-mode disagreement: unmerged err=%v, merged err=%v", err1, err2)
	}
	if err1 != nil {
		return nil // both rejected; nothing further to compare
	}
	for a := 0; a < target.Arrays; a++ {
		for c := 0; c < target.Cols; c++ {
			for r := 0; r < target.Rows; r++ {
				p := layout.Place{Array: a, Col: c, Row: r}
				v1, d1 := m1.Cell(p)
				v2, d2 := m2.Cell(p)
				if v1 != v2 || d1 != d2 {
					return fmt.Errorf("cell %v diverged: unmerged (%v,%v), merged (%v,%v)",
						p, v1, d1, v2, d2)
				}
			}
		}
	}

	e1, err := execRun(res.Program, target, words)
	if err != nil {
		return fmt.Errorf("exec machine rejected unmerged program: %w", err)
	}
	e2, err := execRun(merged, target, words)
	if err != nil {
		return fmt.Errorf("exec machine rejected merged program: %w", err)
	}
	for _, out := range res.Graph.Outputs() {
		p, err := res.OutputPlace(out)
		if err != nil {
			return err
		}
		w1, err := e1.ReadOutWord(p, 0)
		if err != nil {
			return fmt.Errorf("exec readout of %v (unmerged): %w", p, err)
		}
		w2, err := e2.ReadOutWord(p, 0)
		if err != nil {
			return fmt.Errorf("exec readout of %v (merged): %w", p, err)
		}
		v, _ := m1.Cell(p)
		if w1 != w2 || (w1&1 == 1) != v {
			return fmt.Errorf("exec machine: output %v diverged: unmerged %#x, merged %#x, strict lane 0 %v",
				p, w1, w2, v)
		}
	}
	return nil
}
