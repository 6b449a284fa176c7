package dfg

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"sherlock/internal/logic"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

func TestGraphSynthesizedNames(t *testing.T) {
	g := New()
	a := g.AddInput("a")                    // 0
	b := g.AddInput("")                     // 1: t1
	x := g.AddOp(logic.And, a, b)           // op 2, operand 3: t3
	y := g.AddOpNamed(logic.Xor, "y", a, x) // op 4, operand 5: y
	andOp, xorOp := g.Producer(x), g.Producer(y)

	// Names read exactly as the insert-time formatting produced them.
	for id, want := range map[NodeID]string{
		a: "a", b: "t1", x: "t3", y: "y",
		andOp: fmt.Sprintf("%s_%d", logic.And, andOp),
		xorOp: fmt.Sprintf("%s_%d", logic.Xor, xorOp),
	} {
		if got := g.Name(id); got != want {
			t.Errorf("Name(%d) = %q, want %q", id, got, want)
		}
	}

	// t<N> resolves a synthesized operand and nothing else.
	for name, want := range map[string]NodeID{"a": a, "t1": b, "t3": x, "y": y} {
		if got, ok := g.OperandByName(name); !ok || got != want {
			t.Errorf("OperandByName(%q) = %d, %v; want %d", name, got, ok, want)
		}
	}
	for _, name := range []string{
		g.Name(andOp), fmt.Sprintf("t%d", andOp), // an op label, an op index
		"t5", // explicitly named operand
		"t+3", "t03", "t-1", "t", "t3x", "t99999999999999999999", "t6",
	} {
		if id, ok := g.OperandByName(name); ok {
			t.Errorf("OperandByName(%q) resolved to %d", name, id)
		}
	}

	// An explicit t<N> on an op or an explicitly named operand is an
	// ordinary name; on a synthesized operand it is a duplicate.
	t2 := g.AddInput(fmt.Sprintf("t%d", andOp))
	if got, ok := g.OperandByName(g.Name(t2)); !ok || got != t2 || g.Name(t2) != "t2" {
		t.Errorf("explicit %q resolves to %d, %v", g.Name(t2), got, ok)
	}
	mustPanic(t, "explicit t3 against synthesized operand 3", func() { g.AddInput("t3") })
	mustPanic(t, "explicit t1 against synthesized input 1", func() { g.AddInput("t1") })

	// A synthesized operand against an earlier explicit t<N>, by operand
	// name and by output alias.
	h := New()
	h.AddInput("t1")
	mustPanic(t, "synthesized input 1 against explicit t1", func() { h.AddInput("") })
	h = New()
	ha := h.AddInput("a")
	h.MarkOutputNamed(ha, "t2")
	mustPanic(t, "synthesized operand 2 against alias t2", func() { h.AddOp(logic.Not, ha) })

	// MarkOutputNamed: a t<N> alias naming another synthesized operand
	// is not bound (t3 stays operand 3); a fresh one resolves to the output.
	n1 := g.AddOp(logic.Not, x)
	n2 := g.AddOp(logic.Not, y)
	g.MarkOutputNamed(n1, "t3")
	g.MarkOutputNamed(n2, "t100")
	if got := g.OutputName(n1); got != "t3" {
		t.Errorf("OutputName = %q, want alias t3", got)
	}
	if got, _ := g.OperandByName("t3"); got != x {
		t.Errorf("alias t3 rebound t3 to %d, want %d", got, x)
	}
	if got, ok := g.OperandByName("t100"); !ok || got != n2 {
		t.Errorf("alias t100 resolves to %d, %v; want %d", got, ok, n2)
	}
	if got, want := g.OutputNames(), []string{"t3", "t100"}; !slices.Equal(got, want) {
		t.Errorf("OutputNames = %v, want %v", got, want)
	}

	// Clone keeps every name and relation, independently of the original.
	c := g.Clone()
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		if g.Name(id) != c.Name(id) {
			t.Errorf("clone Name(%d) = %q, want %q", id, c.Name(id), g.Name(id))
		}
	}
	before := g.Consumers(a)
	gy := g.AddOp(logic.Or, a, b)
	cy := c.AddOpNamed(logic.Or, "late", a, x)
	if got, want := g.Consumers(a), append(slices.Clone(before), g.Producer(gy)); !slices.Equal(got, want) {
		t.Errorf("original consumers of a = %v, want %v", got, want)
	}
	if got, want := c.Consumers(a), append(slices.Clone(before), c.Producer(cy)); !slices.Equal(got, want) {
		t.Errorf("clone consumers of a = %v, want %v", got, want)
	}
	if got := g.OpInputs(g.Producer(gy)); !slices.Equal(got, []NodeID{a, b}) {
		t.Errorf("original op inputs = %v", got)
	}
	if got := c.OpInputs(c.Producer(cy)); !slices.Equal(got, []NodeID{a, x}) {
		t.Errorf("clone op inputs = %v", got)
	}
	if c.Name(cy) != "late" || g.Name(gy) != fmt.Sprintf("t%d", gy) {
		t.Errorf("post-clone names: clone %q, original %q", c.Name(cy), g.Name(gy))
	}
	if _, ok := g.OperandByName("late"); ok {
		t.Error("clone's explicit name leaked into the original")
	}
	if _, ok := c.OperandByName(fmt.Sprintf("t%d", gy)); ok {
		t.Error("original's synthesized name resolves in the clone")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

// TestGraphConcurrentReaders shares one graph between goroutines the way
// campaign workers do: the first readers race to build the cached
// b-levels, every reader must see the b-levels a private copy computes.
func TestGraphConcurrentReaders(t *testing.T) {
	g := randomDAG(7, 16, 600)
	ref := g.Clone()
	wantBL := ref.BLevelsDense()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := g.BLevelsDense(); !slices.Equal(got, wantBL) {
				errs <- fmt.Errorf("BLevelsDense differs")
				return
			}
			walker := g.NewReadyWalker()
			defer walker.Close()
			for walker.Next(1+w) != nil {
			}
			if walker.Emitted() != g.NumOps() {
				errs <- fmt.Errorf("walker emitted %d of %d ops", walker.Emitted(), g.NumOps())
				return
			}
			if got := g.CriticalPathLength(); got != ref.CriticalPathLength() {
				errs <- fmt.Errorf("CriticalPathLength = %d, want %d", got, ref.CriticalPathLength())
				return
			}
			var buf []NodeID
			for _, op := range g.OpNodes() {
				out := g.OpOutput(op)
				if g.Producer(out) != op || g.Name(out) != ref.Name(out) || g.Name(op) != ref.Name(op) {
					errs <- fmt.Errorf("op %d: relations or names differ", op)
					return
				}
				buf = g.AppendConsumers(out, buf[:0])
				if !slices.Equal(buf, ref.Consumers(out)) {
					errs <- fmt.Errorf("consumers of %d differ", out)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// checkOutputLookups compares IsOutput and OutputName on every node (and
// two ids outside the graph) against a scan of Outputs/OutputNames, and
// checks that marking any output again panics.
func checkOutputLookups(t *testing.T, label string, g *Graph) {
	t.Helper()
	pos := make(map[NodeID]int)
	for i, o := range g.Outputs() {
		pos[o] = i
	}
	names := g.OutputNames()
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		i, out := pos[id]
		if g.IsOutput(id) != out {
			t.Errorf("%s: IsOutput(%d) = %v, want %v", label, id, !out, out)
		}
		want := g.Name(id)
		if out {
			want = names[i]
		}
		if got := g.OutputName(id); got != want {
			t.Errorf("%s: OutputName(%d) = %q, want %q", label, id, got, want)
		}
	}
	if g.IsOutput(-1) || g.IsOutput(NodeID(g.NumNodes())) {
		t.Errorf("%s: an id outside the graph reads as an output", label)
	}
	for o := range pos {
		mustPanic(t, label+": second MarkOutput", func() { g.MarkOutput(o) })
	}
}

// TestOutputLookups pins the O(1) output lookups on a built graph, its
// clone (marked further without touching the original) and the graphs
// SubstituteNodes and LowerToNAND rebuild.
func TestOutputLookups(t *testing.T) {
	g := New()
	x, y, z := g.AddInput("x"), g.AddInput("y"), g.AddInput("z")
	a := g.AddOp(logic.And, x, y)
	b := g.AddOp(logic.Or, a, z)
	c := g.AddOp(logic.Xor, b, x)
	d := g.AddOpNamed(logic.And, "d", c, a, z)
	e := g.AddOp(logic.Not, d)
	g.MarkOutputNamed(a, "first")
	g.MarkOutput(c)
	g.MarkOutputNamed(d, "")
	g.MarkOutputNamed(e, "last")
	checkOutputLookups(t, "built", g)

	h := g.Clone()
	f := h.AddOp(logic.Or, e, y)
	h.MarkOutputNamed(f, "extra")
	checkOutputLookups(t, "clone", h)
	if g.IsOutput(f) || len(g.Outputs()) != 4 {
		t.Error("marking the clone changed the original")
	}
	checkOutputLookups(t, "original after clone", g)

	sub, _ := SubstituteNodes(g, SubstituteOptions{MaxOperands: 4, Fraction: 1})
	checkOutputLookups(t, "SubstituteNodes", sub)
	low, _ := LowerToNAND(g)
	checkOutputLookups(t, "LowerToNAND", low)
	for _, r := range []*Graph{sub, low} {
		if got, want := r.OutputNames(), g.OutputNames(); !slices.Equal(got, want) {
			t.Errorf("rebuilt output names %q, want %q", got, want)
		}
	}
}
