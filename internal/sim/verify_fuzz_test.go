package sim

// Differential fuzz between the strict walk (isa.Walker, which drives both
// the static verifier in internal/verify and Predecode) and the reference
// interpreter simref.Machine, which implements the same strict-mode
// semantics independently. This file is the proof they agree:
//
//   - verifier accepts  ⇔  Predecode succeeds  ⇔  Machine runs strict-clean
//     (with every host input bound), and
//   - on rejects, the verifier's first error is byte-identical to the
//     dynamic error, including the instruction index and rendering.
//
// Valid-by-construction programs exercise the accept side; random mutations
// of them exercise the reject side with realistic near-miss bugs (the kind
// a mapper regression would produce) rather than pure noise.

import (
	"math/rand"
	"strings"
	"testing"

	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/logic"
	"sherlock/internal/sim/simref"
	"sherlock/internal/verify"
)

// TestVerifierAcceptsGeneratedPrograms: every valid-by-construction random
// program must verify without errors, with the binding order matching both
// the canonical isa order and Predecode's slot table.
func TestVerifierAcceptsGeneratedPrograms(t *testing.T) {
	target := layout.Target{Arrays: 2, Rows: 6, Cols: 5}
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 200; trial++ {
		pm, _ := randomProgram(rng, target, 20)
		rep := verify.Program(pm.prog, target)
		if err := rep.Err(); err != nil {
			t.Fatalf("trial %d: verifier rejected a valid program: %v\nprogram:\n%s", trial, err, pm.prog)
		}
		ex, err := Predecode(pm.prog, target)
		if err != nil {
			t.Fatalf("trial %d: predecode rejected a valid program: %v", trial, err)
		}
		want := strings.Join(pm.prog.Bindings(), ",")
		if got := strings.Join(rep.Bindings(), ","); got != want {
			t.Fatalf("trial %d: verifier bindings %q, isa bindings %q", trial, got, want)
		}
		if got := strings.Join(ex.InputNames(), ","); got != want {
			t.Fatalf("trial %d: predecode slots %q, isa bindings %q", trial, got, want)
		}
	}
}

// mutate corrupts a copy of prog with one of a set of realistic codegen
// bugs. The result may still be valid — the differential check below does
// not care which way it goes, only that all three judges agree.
func mutate(rng *rand.Rand, prog isa.Program, t layout.Target) isa.Program {
	out := make(isa.Program, len(prog))
	for i, in := range prog {
		out[i] = in
		out[i].Cols = append([]int(nil), in.Cols...)
		out[i].Rows = append([]int(nil), in.Rows...)
		out[i].Ops = append([]logic.Op(nil), in.Ops...)
		out[i].Bindings = append([]string(nil), in.Bindings...)
	}
	if len(out) == 0 {
		return out
	}
	i := rng.Intn(len(out))
	switch rng.Intn(8) {
	case 0: // array out of range
		out[i].Array = t.Arrays + rng.Intn(3)
	case 1: // row out of range (kept sorted: bump the last row)
		if len(out[i].Rows) > 0 {
			out[i].Rows[len(out[i].Rows)-1] = t.Rows + rng.Intn(3)
		}
	case 2: // column out of range (kept sorted: bump the last column)
		if len(out[i].Cols) > 0 {
			out[i].Cols[len(out[i].Cols)-1] = t.Cols + rng.Intn(3)
		}
	case 3: // drop an instruction: later consumers may go undefined
		out = append(out[:i], out[i+1:]...)
	case 4: // swap two instructions: reorder hazards
		j := rng.Intn(len(out))
		out[i], out[j] = out[j], out[i]
	case 5: // insert a read of a random (likely undefined) cell
		in := isa.Instruction{Kind: isa.KindRead, Array: rng.Intn(t.Arrays),
			Cols: []int{rng.Intn(t.Cols)}, Rows: []int{rng.Intn(t.Rows)}}
		out = append(out[:i], append(isa.Program{in}, out[i:]...)...)
	case 6: // corrupt a scouting op into a non-sense op (structural break)
		if len(out[i].Ops) > 0 {
			out[i].Ops[rng.Intn(len(out[i].Ops))] = logic.Not
		}
	case 7: // unsort a column list (structural break)
		if len(out[i].Cols) > 1 {
			out[i].Cols[0], out[i].Cols[1] = out[i].Cols[1], out[i].Cols[0]
		}
	}
	return out
}

// TestVerifierMatchesStrictModeOnMutants is the reject-side oracle: for
// thousands of mutated programs, the static verdict must equal the dynamic
// one — same accept/reject decision and byte-identical first error from
// Predecode, the verifier and the reference Machine.
func TestVerifierMatchesStrictModeOnMutants(t *testing.T) {
	target := layout.Target{Arrays: 2, Rows: 6, Cols: 5}
	rng := rand.New(rand.NewSource(202))
	rejected := 0
	const trials = 600
	for trial := 0; trial < trials; trial++ {
		pm, _ := randomProgram(rng, target, 16)
		prog := mutate(rng, pm.prog, target)

		_, errD := Predecode(prog, target)
		errV := verify.Program(prog, target).Err()
		if (errD == nil) != (errV == nil) {
			t.Fatalf("trial %d: predecode err %v, verifier err %v\nprogram:\n%s", trial, errD, errV, prog)
		}
		if errD != nil {
			rejected++
			if errD.Error() != errV.Error() {
				t.Fatalf("trial %d: error text mismatch\npredecode: %v\nverifier:  %v\nprogram:\n%s",
					trial, errD, errV, prog)
			}
		}

		// The reference machine must agree too, with every input bound so
		// the only failures left are the statically decidable ones.
		inputs := make(map[string]bool)
		for _, n := range prog.Bindings() {
			inputs[n] = rng.Intn(2) == 1
		}
		errM := simref.NewMachine(target).Run(prog, inputs)
		if (errM == nil) != (errV == nil) {
			t.Fatalf("trial %d: machine err %v, verifier err %v\nprogram:\n%s", trial, errM, errV, prog)
		}
		if errM != nil && errM.Error() != errV.Error() {
			t.Fatalf("trial %d: error text mismatch\nmachine:  %v\nverifier: %v\nprogram:\n%s",
				trial, errM, errV, prog)
		}
	}
	// The mutation set must actually exercise the reject side.
	if rejected < trials/10 {
		t.Fatalf("only %d/%d mutants rejected; mutation set too tame", rejected, trials)
	}
}
