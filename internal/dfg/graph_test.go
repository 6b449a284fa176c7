package dfg

import (
	"fmt"
	"math/rand"
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

// checkSameGraph compares two graphs node for node: kinds, names, op
// types, inputs, results and producers, then the input and output lists
// with their user-facing names.
func checkSameGraph(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumOps() != want.NumOps() {
		t.Fatalf("%s: %d nodes / %d ops, want %d / %d", label,
			got.NumNodes(), got.NumOps(), want.NumNodes(), want.NumOps())
	}
	for id := NodeID(0); int(id) < want.NumNodes(); id++ {
		k := want.Kind(id)
		if got.Kind(id) != k || got.Name(id) != want.Name(id) {
			t.Fatalf("%s: node %d is %v %q, want %v %q", label, id, got.Kind(id), got.Name(id), k, want.Name(id))
		}
		if k == KindOp {
			if got.OpType(id) != want.OpType(id) || got.OpOutput(id) != want.OpOutput(id) ||
				!slices.Equal(got.OpInputs(id), want.OpInputs(id)) {
				t.Fatalf("%s: op %d is %v%v -> %d, want %v%v -> %d", label, id,
					got.OpType(id), got.OpInputs(id), got.OpOutput(id),
					want.OpType(id), want.OpInputs(id), want.OpOutput(id))
			}
		} else if got.Producer(id) != want.Producer(id) {
			t.Fatalf("%s: operand %d producer %d, want %d", label, id, got.Producer(id), want.Producer(id))
		}
	}
	if !slices.Equal(got.Inputs(), want.Inputs()) || !slices.Equal(got.Outputs(), want.Outputs()) ||
		!slices.Equal(got.OutputNames(), want.OutputNames()) {
		t.Fatalf("%s: inputs %v outputs %v %q, want %v %v %q", label,
			got.Inputs(), got.Outputs(), got.OutputNames(),
			want.Inputs(), want.Outputs(), want.OutputNames())
	}
}

// checkSameDerived compares everything the derived cache serves:
// consumers by all three accessors, b-levels, the critical path and the
// ready walker's issue order at two window sizes.
func checkSameDerived(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	var buf []NodeID
	for _, o := range want.Operands() {
		wc := want.Consumers(o)
		buf = got.AppendConsumers(o, buf[:0])
		if !slices.Equal(got.Consumers(o), wc) || !slices.Equal(buf, wc) || got.NumConsumers(o) != len(wc) {
			t.Fatalf("%s: consumers of %d = %v, want %v", label, o, got.Consumers(o), wc)
		}
	}
	if !slices.Equal(got.BLevelsDense(), want.BLevelsDense()) {
		t.Fatalf("%s: b-levels differ", label)
	}
	if got.CriticalPathLength() != want.CriticalPathLength() {
		t.Fatalf("%s: critical path %d, want %d", label, got.CriticalPathLength(), want.CriticalPathLength())
	}
	for _, window := range []int{1, 4} {
		if !slices.Equal(walk(got, window), walk(want, window)) {
			t.Fatalf("%s: window-%d walk differs", label, window)
		}
	}
}

// TestGraphDerivedCacheInvalidation reads the consumer lists and b-levels
// of a graph between batches of added ops, and of a clone grown apart
// from it: after every batch each must read as a graph built in one go
// and never read before.
func TestGraphDerivedCacheInvalidation(t *testing.T) {
	const nInputs, batch, batches = 8, 40, 6
	grow := func(g *Graph, rng *rand.Rand, n int) {
		ops := []logic.Op{logic.And, logic.Or, logic.Xor, logic.Nand, logic.Not}
		for i := 0; i < n; i++ {
			operands := g.Operands()
			a := operands[rng.Intn(len(operands))]
			op := ops[rng.Intn(len(ops))]
			if op == logic.Not {
				g.AddOp(op, a)
				continue
			}
			// Inputs may repeat: an op then consumes one operand twice.
			g.AddOp(op, a, operands[rng.Intn(len(operands))], operands[rng.Intn(len(operands))])
		}
	}
	fresh := func(seed int64, n int) *Graph {
		g := New()
		for i := 0; i < nInputs; i++ {
			g.AddInput("")
		}
		grow(g, rand.New(rand.NewSource(seed)), n)
		return g
	}

	g := New()
	for i := 0; i < nInputs; i++ {
		g.AddInput("")
	}
	checkSameDerived(t, "inputs only", g, fresh(1, 0))
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= batches; k++ {
		grow(g, rng, batch)
		want := fresh(1, k*batch)
		checkSameGraph(t, fmt.Sprintf("batch %d", k), g, want)
		checkSameDerived(t, fmt.Sprintf("batch %d", k), g, want)
	}

	// A clone starts without the original's cache, and growing either
	// leaves the other's reads alone.
	c := g.Clone()
	crng := rand.New(rand.NewSource(2))
	grow(c, crng, batch)
	want := fresh(1, batches*batch)
	checkSameDerived(t, "original after clone grew", g, want)
	wantClone := want.Clone()
	grow(wantClone, rand.New(rand.NewSource(2)), batch)
	checkSameDerived(t, "grown clone", c, wantClone)
}

// cseRef is the reference CSE the Builder's table must agree with: a map
// from (op, canonical inputs) to the result operand, over a plain graph.
type cseRef struct {
	g    *Graph
	cse  map[[3]NodeID]NodeID
	hits int
}

func (r *cseRef) emit(op logic.Op, disable bool, ids ...NodeID) NodeID {
	key := [3]NodeID{NodeID(op), ids[0], NoNode}
	if len(ids) == 2 {
		key[2] = ids[1]
		if op != logic.Copy && op != logic.Not && key[1] > key[2] {
			key[1], key[2] = key[2], key[1]
		}
	}
	if disable {
		return r.g.AddOp(op, ids...)
	}
	if out, ok := r.cse[key]; ok {
		r.hits++
		return out
	}
	out := r.g.AddOp(op, ids...)
	r.cse[key] = out
	return out
}

// TestGraphCSEMatchesMapReference drives seeded random expression streams
// through a Builder and, step for step, through a map-based CSE over a
// plain graph: emitted unary and binary ops (repeated and commuted, so
// most are hits), double negations, outputs that force a copy past the
// table, ops added behind the table's back, and CSE switched off and on.
// The two graphs must match node for node, names and outputs included.
func TestGraphCSEMatchesMapReference(t *testing.T) {
	ops := []logic.Op{logic.And, logic.Or, logic.Xor, logic.Nand, logic.Nor, logic.Xnor, logic.Not, logic.Copy}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		ref := &cseRef{g: New(), cse: make(map[[3]NodeID]NodeID)}
		var vals []NodeID
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("in%d", i)
			b.Input(name)
			vals = append(vals, ref.g.AddInput(name))
		}
		pick := func() NodeID {
			// Most picks come from the first 8 values, so keys repeat;
			// the rest nest recent values or reach anywhere.
			switch rng.Intn(8) {
			case 0, 1, 2, 3, 4:
				return vals[rng.Intn(min(len(vals), 8))]
			case 5, 6:
				return vals[len(vals)-1-rng.Intn(min(len(vals), 12))]
			}
			return vals[rng.Intn(len(vals))]
		}
		outs := 0
		for step := 0; step < 4000; step++ {
			var got, want NodeID
			switch r := rng.Intn(100); {
			case r < 2:
				name := fmt.Sprintf("x%d", step)
				got, want = b.Input(name).ID(), ref.g.AddInput(name)
			case r < 5: // an op the table never sees
				x, y := pick(), pick()
				got, want = b.Graph().AddOp(logic.Xor, x, y), ref.g.AddOp(logic.Xor, x, y)
			case r < 8: // a second output on one operand adds a copy
				v := pick()
				name := fmt.Sprintf("out%d", outs)
				outs++
				b.Output(name, Val{id: v})
				if ref.g.IsOutput(v) {
					v = ref.g.AddOp(logic.Copy, v)
				}
				ref.g.MarkOutputNamed(v, name)
				continue
			case r < 10:
				b.DisableCSE = !b.DisableCSE
				continue
			case r < 20: // double negation folds to the NOT's input
				x := pick()
				got = b.Not(Val{id: x}).ID()
				if p := ref.g.Producer(x); p != NoNode && ref.g.OpType(p) == logic.Not {
					want = ref.g.OpInputs(p)[0]
				} else {
					want = ref.emit(logic.Not, b.DisableCSE, x)
				}
			default:
				op := ops[rng.Intn(len(ops))]
				ids := []NodeID{pick()}
				if !op.IsUnary() {
					ids = append(ids, pick())
				}
				in := make([]Val, len(ids))
				for i, id := range ids {
					in[i] = Val{id: id}
				}
				got, want = b.emit(op, in...).ID(), ref.emit(op, b.DisableCSE, ids...)
			}
			if got != want {
				t.Fatalf("seed %d step %d: builder returned %d, reference %d", seed, step, got, want)
			}
			vals = append(vals, got)
		}
		checkSameGraph(t, fmt.Sprintf("seed %d", seed), b.Graph(), ref.g)
		if len(ref.cse) < 500 || ref.hits < 500 {
			t.Fatalf("seed %d: %d keys and %d hits are too few to grow and probe the table", seed, len(ref.cse), ref.hits)
		}
		t.Logf("seed %d: %d ops, %d keys, %d hits", seed, ref.g.NumOps(), len(ref.cse), ref.hits)
	}
}
