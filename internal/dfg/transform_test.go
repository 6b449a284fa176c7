package dfg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sherlock/internal/logic"
)

// xorChain builds out = x0 ^ x1 ^ ... ^ x{n-1} as a linear chain.
func chainGraph(op logic.Op, n int) *Graph {
	g := New()
	acc := g.AddInput("x0")
	for i := 1; i < n; i++ {
		in := g.AddInput(fmt.Sprintf("x%d", i))
		acc = g.AddOp(op, acc, in)
	}
	g.MarkOutputNamed(acc, "out")
	return g
}

func randomAssignments(g *Graph, count int, seed int64) []map[string]bool {
	rng := rand.New(rand.NewSource(seed))
	names := g.InputNames()
	out := make([]map[string]bool, count)
	for i := range out {
		m := make(map[string]bool, len(names))
		for _, n := range names {
			m[n] = rng.Intn(2) == 1
		}
		out[i] = m
	}
	return out
}

func TestSubstituteFlattensChain(t *testing.T) {
	for _, op := range []logic.Op{logic.And, logic.Or, logic.Xor} {
		g := chainGraph(op, 4) // 3 binary ops
		out, st := SubstituteNodes(g, SubstituteOptions{MaxOperands: 4, Fraction: 1})
		if err := out.Validate(); err != nil {
			t.Fatalf("%v: invalid: %v", op, err)
		}
		if st.OpsAfter != 1 {
			t.Errorf("%v: ops after = %d, want 1", op, st.OpsAfter)
		}
		if st.MaxArity != 4 {
			t.Errorf("%v: max arity = %d, want 4", op, st.MaxArity)
		}
		if err := EquivalentOn(g, out, randomAssignments(g, 32, 1)); err != nil {
			t.Errorf("%v: %v", op, err)
		}
	}
}

func TestSubstituteRespectsMaxOperands(t *testing.T) {
	g := chainGraph(logic.Xor, 10) // 9 binary ops
	out, st := SubstituteNodes(g, SubstituteOptions{MaxOperands: 3, Fraction: 1})
	if st.MaxArity > 3 {
		t.Fatalf("arity %d exceeds bound 3", st.MaxArity)
	}
	for _, op := range out.OpNodes() {
		if len(out.OpInputs(op)) > 3 {
			t.Fatalf("op with %d operands", len(out.OpInputs(op)))
		}
	}
	if err := EquivalentOn(g, out, randomAssignments(g, 64, 2)); err != nil {
		t.Error(err)
	}
}

func TestSubstituteFractionZeroIsIdentity(t *testing.T) {
	g := chainGraph(logic.And, 6)
	out, st := SubstituteNodes(g, SubstituteOptions{MaxOperands: 8, Fraction: 0})
	if st.Applied != 0 {
		t.Fatalf("applied = %d, want 0", st.Applied)
	}
	if st.OpsAfter != st.OpsBefore {
		t.Fatalf("ops changed with fraction 0: %d -> %d", st.OpsBefore, st.OpsAfter)
	}
	if err := EquivalentOn(g, out, randomAssignments(g, 16, 3)); err != nil {
		t.Error(err)
	}
}

// TestSubstituteRejectsBadFraction checks that a fraction outside [0,1],
// NaN included, is refused rather than read as some number of fusions.
func TestSubstituteRejectsBadFraction(t *testing.T) {
	g := chainGraph(logic.And, 6)
	for _, f := range []float64{-0.1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fraction %g accepted", f)
				}
			}()
			SubstituteNodes(g, SubstituteOptions{MaxOperands: 4, Fraction: f})
		}()
	}
}

func TestSubstituteFractionMonotone(t *testing.T) {
	g := chainGraph(logic.Xor, 16)
	prevApplied := -1
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
		_, st := SubstituteNodes(g, SubstituteOptions{MaxOperands: 4, Fraction: f, Seed: 7})
		if st.Applied < prevApplied {
			t.Fatalf("applied decreased from %d at fraction %g", prevApplied, f)
		}
		prevApplied = st.Applied
	}
}

func TestSubstituteDoesNotFuseMultiUse(t *testing.T) {
	// t = a&b is used twice; it must not be fused into either consumer.
	g := New()
	a, b, c := g.AddInput("a"), g.AddInput("b"), g.AddInput("c")
	tv := g.AddOp(logic.And, a, b)
	u := g.AddOp(logic.And, tv, c)
	v := g.AddOp(logic.And, tv, a)
	g.MarkOutputNamed(u, "u")
	g.MarkOutputNamed(v, "v")
	out, st := SubstituteNodes(g, SubstituteOptions{MaxOperands: 8, Fraction: 1})
	if st.Applied != 0 {
		t.Errorf("fused a multi-use producer (%d applied)", st.Applied)
	}
	if err := EquivalentOn(g, out, randomAssignments(g, 16, 4)); err != nil {
		t.Error(err)
	}
}

func TestSubstituteDoesNotFuseOutputs(t *testing.T) {
	// mid is a kernel output: fusing it away would lose the output.
	g := New()
	a, b, c := g.AddInput("a"), g.AddInput("b"), g.AddInput("c")
	mid := g.AddOp(logic.Or, a, b)
	fin := g.AddOp(logic.Or, mid, c)
	g.MarkOutputNamed(mid, "mid")
	g.MarkOutputNamed(fin, "fin")
	out, st := SubstituteNodes(g, SubstituteOptions{MaxOperands: 8, Fraction: 1})
	if st.Applied != 0 {
		t.Errorf("fused an output-producing op (%d applied)", st.Applied)
	}
	if got := len(out.Outputs()); got != 2 {
		t.Fatalf("outputs = %d, want 2", got)
	}
	if err := EquivalentOn(g, out, randomAssignments(g, 16, 5)); err != nil {
		t.Error(err)
	}
}

func TestSubstituteMixedTypesNotFused(t *testing.T) {
	g := New()
	a, b, c := g.AddInput("a"), g.AddInput("b"), g.AddInput("c")
	x := g.AddOp(logic.And, a, b)
	y := g.AddOp(logic.Or, x, c) // different type: no fusion
	g.MarkOutputNamed(y, "y")
	_, st := SubstituteNodes(g, SubstituteOptions{MaxOperands: 8, Fraction: 1})
	if st.Applied != 0 {
		t.Error("fused ops of different types")
	}
}

func TestSubstituteNandNotFused(t *testing.T) {
	g := chainGraph(logic.Nand, 4)
	out, st := SubstituteNodes(g, SubstituteOptions{MaxOperands: 8, Fraction: 1})
	if st.Applied != 0 {
		t.Error("NAND chain fused — NAND is not associative")
	}
	if err := EquivalentOn(g, out, randomAssignments(g, 16, 6)); err != nil {
		t.Error(err)
	}
}

func TestSubstituteTreeEquivalence(t *testing.T) {
	// A random balanced-ish XOR/AND/OR tree fused at full fraction stays
	// functionally identical.
	rng := rand.New(rand.NewSource(99))
	b := NewBuilder()
	b.DisableCSE = true
	leaves := make([]Val, 16)
	for i := range leaves {
		leaves[i] = b.Input(fmt.Sprintf("in%d", i))
	}
	ops := []func(a, y Val) Val{b.And, b.Or, b.Xor}
	for len(leaves) > 1 {
		f := ops[rng.Intn(len(ops))]
		leaves = append(leaves[2:], f(leaves[0], leaves[1]))
	}
	b.Output("root", leaves[0])
	g := b.Graph()
	out, _ := SubstituteNodes(g, SubstituteOptions{MaxOperands: 4, Fraction: 1})
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := EquivalentOn(g, out, randomAssignments(g, 100, 7)); err != nil {
		t.Error(err)
	}
}

func TestLowerToNANDEquivalence(t *testing.T) {
	// A graph exercising every op type.
	b := NewBuilder()
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	b.Output("o1", b.Xor(b.Or(x, y), z))
	b.Output("o2", b.Nor(x, z))
	b.Output("o3", b.Xnor(y, z))
	b.Output("o4", b.And(b.Not(x), y))
	g := b.Graph()
	low, st := LowerToNAND(g)
	if err := low.Validate(); err != nil {
		t.Fatalf("lowered invalid: %v", err)
	}
	if st.OpsAfter <= 0 {
		t.Fatal("no ops after lowering")
	}
	for _, op := range low.OpNodes() {
		switch tt := low.OpType(op); tt {
		case logic.And, logic.Nand, logic.Not, logic.Copy:
		default:
			t.Fatalf("op %v survived NAND lowering", tt)
		}
	}
	if err := EquivalentOn(g, low, randomAssignments(g, 64, 8)); err != nil {
		t.Error(err)
	}
}

func TestLowerToNANDPreservesMultiOperandOr(t *testing.T) {
	g := chainGraph(logic.Or, 4)
	fused, _ := SubstituteNodes(g, SubstituteOptions{MaxOperands: 4, Fraction: 1})
	low, _ := LowerToNAND(fused)
	// OR(4) should become one NAND(4) plus NOTs, not a NAND tree.
	var nandArity int
	for _, op := range low.OpNodes() {
		if low.OpType(op) == logic.Nand {
			if n := len(low.OpInputs(op)); n > nandArity {
				nandArity = n
			}
		}
	}
	if nandArity != 4 {
		t.Errorf("max NAND arity = %d, want 4 (multi-operand OR collapsed)", nandArity)
	}
	if err := EquivalentOn(g, low, randomAssignments(g, 32, 9)); err != nil {
		t.Error(err)
	}
}

func TestLowerToNANDMultiXorTree(t *testing.T) {
	g := chainGraph(logic.Xor, 5)
	fused, _ := SubstituteNodes(g, SubstituteOptions{MaxOperands: 5, Fraction: 1})
	low, _ := LowerToNAND(fused)
	if err := EquivalentOn(g, low, randomAssignments(g, 64, 10)); err != nil {
		t.Error(err)
	}
}

func TestOpNDegenerateCases(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input("x"), b.Input("y")
	// Duplicate operands collapse for AND-family.
	v := b.OpN(logic.And, x, x, y)
	if p := b.Graph().Producer(v.ID()); p == NoNode || b.Graph().OpType(p) != logic.And {
		t.Fatal("OpN AND with dup did not produce an AND")
	}
	if got := len(b.Graph().OpInputs(b.Graph().Producer(v.ID()))); got != 2 {
		t.Errorf("OpN dedup produced arity %d, want 2", got)
	}
	// All-duplicates NAND degenerates to NOT.
	w := b.OpN(logic.Nand, x, x)
	if p := b.Graph().Producer(w.ID()); b.Graph().OpType(p) != logic.Not {
		t.Error("NAND(x,x) should lower to NOT(x)")
	}
}
