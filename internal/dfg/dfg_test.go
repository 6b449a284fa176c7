package dfg

import (
	"strings"
	"testing"

	"sherlock/internal/logic"
)

// buildDiamond creates the DFG of out = (a&b) ^ (a|b).
func buildDiamond() (*Graph, NodeID, NodeID) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	x := g.AddOp(logic.And, a, b)
	y := g.AddOp(logic.Or, a, b)
	out := g.AddOp(logic.Xor, x, y)
	g.MarkOutputNamed(out, "out")
	return g, a, b
}

func TestGraphBasics(t *testing.T) {
	g, a, b := buildDiamond()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(g.Inputs()); got != 2 {
		t.Fatalf("inputs = %d, want 2", got)
	}
	if got := len(g.Outputs()); got != 1 {
		t.Fatalf("outputs = %d, want 1", got)
	}
	st := g.ComputeStats()
	if st.Ops != 3 || st.Operands != 5 {
		t.Errorf("stats = %+v, want 3 ops 5 operands", st)
	}
	if st.ByOp[logic.And] != 1 || st.ByOp[logic.Or] != 1 || st.ByOp[logic.Xor] != 1 {
		t.Errorf("per-op counts wrong: %v", st.ByOp)
	}
	if len(g.Consumers(a)) != 2 || len(g.Consumers(b)) != 2 {
		t.Error("inputs should each have two consumers")
	}
	if g.Producer(a) != NoNode {
		t.Error("input has a producer")
	}
}

func TestBLevels(t *testing.T) {
	g, _, _ := buildDiamond()
	bl := g.BLevelsDense()
	ops := g.TopoOps()
	// AND and OR feed XOR: b-level 2; XOR is a sink op: b-level 1.
	if bl[ops[0]] != 2 || bl[ops[1]] != 2 || bl[ops[2]] != 1 {
		t.Errorf("b-levels = %v %v %v, want 2 2 1", bl[ops[0]], bl[ops[1]], bl[ops[2]])
	}
	if g.CriticalPathLength() != 2 {
		t.Errorf("critical path = %d, want 2", g.CriticalPathLength())
	}
}

func TestChainBLevel(t *testing.T) {
	g := New()
	v := g.AddInput("x")
	w := g.AddInput("y")
	for i := 0; i < 10; i++ {
		v = g.AddOp(logic.And, v, w)
	}
	g.MarkOutput(v)
	if got := g.CriticalPathLength(); got != 10 {
		t.Errorf("chain critical path = %d, want 10", got)
	}
}

func TestEvaluate(t *testing.T) {
	g, _, _ := buildDiamond()
	// (a&b)^(a|b) == a^b
	for _, c := range []struct{ a, b bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		got, err := EvaluateByName(g, map[string]bool{"a": c.a, "b": c.b})
		if err != nil {
			t.Fatal(err)
		}
		if got["out"] != (c.a != c.b) {
			t.Errorf("out(%v,%v) = %v, want %v", c.a, c.b, got["out"], c.a != c.b)
		}
	}
}

func TestEvaluateMissingInput(t *testing.T) {
	g, _, _ := buildDiamond()
	if _, err := EvaluateByName(g, map[string]bool{"a": true}); err == nil {
		t.Fatal("missing input not reported")
	}
}

func TestAddOpArityPanics(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	for _, f := range []func(){
		func() { g.AddOp(logic.And, a) },
		func() { g.AddOp(logic.Not, a, a) },
		func() { g.AddOp(logic.Invalid, a, a) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	g := New()
	g.AddInput("a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate input name accepted")
		}
	}()
	g.AddInput("a")
}

func TestCloneIndependence(t *testing.T) {
	g, a, b := buildDiamond()
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	g.AddOp(logic.Nand, a, b)
	if c.ComputeStats().Ops == g.ComputeStats().Ops {
		t.Error("clone shares op storage with original")
	}
	if got, want := c.OutputNames()[0], "out"; got != want {
		t.Errorf("clone output name %q, want %q", got, want)
	}
}

func TestBuilderConstantFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x")
	tr, fa := b.Const(true), b.Const(false)

	for name, v := range map[string]Val{
		"and_false": b.And(x, fa),
		"or_true":   b.Or(tr, x),
		"xor_self":  b.Xor(x, x),
	} {
		isConst, _ := v.IsConst()
		if !isConst {
			t.Errorf("%s did not fold to a constant", name)
		}
	}
	for name, v := range map[string]Val{
		"and_true":  b.And(x, tr),
		"or_false":  b.Or(fa, x),
		"xor_false": b.Xor(x, fa),
		"and_self":  b.And(x, x),
	} {
		if v != x {
			t.Errorf("%s did not fold to x", name)
		}
	}
	if nx := b.Xor(x, tr); nx.isConst {
		t.Error("x^1 folded to constant, want NOT node")
	}
	if got := b.Not(b.Not(x)); got != x {
		t.Error("double negation not folded")
	}
	if b.Graph().ComputeStats().ByOp[logic.Not] != 1 {
		t.Errorf("expected exactly one NOT node, got %v", b.Graph().ComputeStats().ByOp)
	}
}

func TestBuilderCSE(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input("x"), b.Input("y")
	v1 := b.And(x, y)
	v2 := b.And(y, x) // commuted
	if v1 != v2 {
		t.Error("CSE missed commuted AND")
	}
	if b.Graph().ComputeStats().Ops != 1 {
		t.Errorf("ops = %d, want 1", b.Graph().ComputeStats().Ops)
	}

	b2 := NewBuilder()
	b2.DisableCSE = true
	x2, y2 := b2.Input("x"), b2.Input("y")
	b2.And(x2, y2)
	b2.And(x2, y2)
	if b2.Graph().ComputeStats().Ops != 2 {
		t.Error("DisableCSE did not disable hashing")
	}
}

func TestBuilderMux(t *testing.T) {
	b := NewBuilder()
	s, x, y := b.Input("s"), b.Input("x"), b.Input("y")
	b.Output("m", b.Mux(s, x, y))
	g := b.Graph()
	for _, c := range []struct{ s, x, y bool }{
		{true, true, false}, {true, false, true}, {false, true, false}, {false, false, true},
	} {
		got, err := EvaluateByName(g, map[string]bool{"s": c.s, "x": c.x, "y": c.y})
		if err != nil {
			t.Fatal(err)
		}
		want := c.y
		if c.s {
			want = c.x
		}
		if got["m"] != want {
			t.Errorf("mux(%v,%v,%v) = %v, want %v", c.s, c.x, c.y, got["m"], want)
		}
	}
}

func allPairs(a, b string) []map[string]bool {
	var out []map[string]bool
	for _, va := range []bool{false, true} {
		for _, vb := range []bool{false, true} {
			out = append(out, map[string]bool{a: va, b: vb})
		}
	}
	return out
}

func TestWriteDOT(t *testing.T) {
	g, _, _ := buildDiamond()
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "diamond"); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph", "XOR", "lightblue", "orange", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestOutputAlias(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input("x"), b.Input("y")
	b.Output("result", b.And(x, y))
	g := b.Graph()
	if got := g.OutputNames()[0]; got != "result" {
		t.Errorf("output name = %q, want result", got)
	}
	if _, ok := g.OperandByName("result"); !ok {
		t.Error("alias not resolvable")
	}
}

func TestOutputCollisionMaterializesCopy(t *testing.T) {
	// CSE folds identical expressions; marking the shared value as two
	// (or three) outputs must materialize distinct operands.
	b := NewBuilder()
	x, y := b.Input("x"), b.Input("y")
	b.Output("o1", b.And(x, y))
	b.Output("o2", b.And(y, x))
	b.Output("o3", b.And(x, y))
	g := b.Graph()
	if got := len(g.Outputs()); got != 3 {
		t.Fatalf("outputs = %d, want 3", got)
	}
	seen := map[NodeID]bool{}
	for _, o := range g.Outputs() {
		if seen[o] {
			t.Fatal("two outputs share an operand")
		}
		seen[o] = true
	}
	res, err := EvaluateByName(g, map[string]bool{"x": true, "y": true})
	if err != nil {
		t.Fatal(err)
	}
	if !res["o1"] || !res["o2"] || !res["o3"] {
		t.Error("copied outputs computed wrong values")
	}
}
