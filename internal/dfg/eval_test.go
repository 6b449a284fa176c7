package dfg

import (
	"testing"

	"sherlock/internal/logic"
)

func TestEquivalentOnDetectsDifference(t *testing.T) {
	mk := func(op logic.Op) *Graph {
		g := New()
		a, b := g.AddInput("a"), g.AddInput("b")
		g.MarkOutputNamed(g.AddOp(op, a, b), "o")
		return g
	}
	and, or := mk(logic.And), mk(logic.Or)
	if err := EquivalentOn(and, and.Clone(), allPairs("a", "b")); err != nil {
		t.Errorf("identical graphs reported different: %v", err)
	}
	if err := EquivalentOn(and, or, allPairs("a", "b")); err == nil {
		t.Error("AND vs OR reported equivalent")
	}
	// Output-name mismatch is also a difference.
	g3 := New()
	a, b := g3.AddInput("a"), g3.AddInput("b")
	g3.MarkOutputNamed(g3.AddOp(logic.And, a, b), "different")
	if err := EquivalentOn(and, g3, allPairs("a", "b")); err == nil {
		t.Error("different output names reported equivalent")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g, _, _ := buildDiamond()
	// Corrupt internals deliberately: producer mismatch.
	ops := g.OpNodes()
	out := g.OpOutput(ops[0])
	g.producer[out] = ops[1]
	if err := g.Validate(); err == nil {
		t.Error("corrupted producer map passed validation")
	}
}

// TestEvaluateWordsMatchesScalar checks the word-parallel evaluator lane
// by lane against the scalar Evaluate path.
func TestEvaluateWordsMatchesScalar(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	b.Output("p", b.Or(b.Nand(x, y), z))
	b.Output("q", b.Xor(b.Not(x), b.And(y, z)))
	g := b.Graph()

	_, _, _ = x, y, z
	words := map[string]uint64{"x": 0xAAAA5555F0F01234, "y": 0x123456789ABCDEF0, "z": ^uint64(0)}
	got, err := EvaluateWords(g, words)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 64; l++ {
		in := map[string]bool{
			"x": words["x"]>>uint(l)&1 == 1,
			"y": words["y"]>>uint(l)&1 == 1,
			"z": words["z"]>>uint(l)&1 == 1,
		}
		want, err := EvaluateByName(g, in)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			if got[name]>>uint(l)&1 == 1 != w {
				t.Fatalf("lane %d output %s: word path %v, scalar %v",
					l, name, !w, w)
			}
		}
	}
}

func TestEvaluateWordsMissingInput(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input("x"), b.Input("y")
	b.Output("o", b.And(x, y))
	if _, err := EvaluateWords(b.Graph(), map[string]uint64{"x": 1}); err == nil {
		t.Fatal("missing input accepted")
	}
}

// TestWordEvaluatorMatchesEvaluateWords pins the allocation-free positional
// evaluator, lane by lane, to the scalar EvaluateByName reference: same
// graph, every lane of every trial, across repeated reuses of one evaluator.
func TestWordEvaluatorMatchesEvaluateWords(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	b.Output("p", b.Or(b.Nand(x, y), z))
	b.Output("q", b.Xor(b.Not(x), b.And(y, z)))
	g := b.Graph()

	ev := NewWordEvaluator(g)
	inputs := g.Inputs()
	outputs := g.Outputs()
	in := make([]uint64, len(inputs))
	lane := make(map[string]bool, len(inputs))
	for trial := 0; trial < 20; trial++ {
		for i := range inputs {
			in[i] = uint64(trial*1103515245+12345) * (uint64(i)*2654435761 + 1)
		}
		got := ev.Eval(in)
		if len(got) != len(outputs) {
			t.Fatalf("trial %d: %d output words for %d outputs", trial, len(got), len(outputs))
		}
		for l := 0; l < 64; l++ {
			for i, id := range inputs {
				lane[g.Name(id)] = in[i]>>uint(l)&1 == 1
			}
			want, err := EvaluateByName(g, lane)
			if err != nil {
				t.Fatal(err)
			}
			for j, o := range outputs {
				if w := want[g.OutputName(o)]; got[j]>>uint(l)&1 == 1 != w {
					t.Fatalf("trial %d lane %d output %q: positional %v, scalar %v",
						trial, l, g.OutputName(o), !w, w)
				}
			}
		}
	}
}

// TestWordEvaluatorInputCountPanics pins the length check.
func TestWordEvaluatorInputCountPanics(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input("x"), b.Input("y")
	b.Output("o", b.And(x, y))
	ev := NewWordEvaluator(b.Graph())
	defer func() {
		if recover() == nil {
			t.Fatal("short input slice accepted")
		}
	}()
	ev.Eval([]uint64{1})
}
