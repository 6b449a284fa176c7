package mapping

import (
	"fmt"
	"math/rand"
	"testing"

	"sherlock/internal/dfg"
	"sherlock/internal/layout"
	"sherlock/internal/logic"
	"sherlock/internal/reliability"
	"sherlock/internal/sim/simref"
)

// randomGraph builds a random DAG with the given number of inputs and ops.
func randomGraph(seed int64, nInputs, nOps int) *dfg.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := dfg.NewBuilder()
	b.DisableCSE = true
	vals := make([]dfg.Val, 0, nInputs+nOps)
	for i := 0; i < nInputs; i++ {
		vals = append(vals, b.Input(fmt.Sprintf("in%d", i)))
	}
	for len(vals) < nInputs+nOps {
		a := vals[rng.Intn(len(vals))]
		c := vals[rng.Intn(len(vals))]
		var v dfg.Val
		switch rng.Intn(7) {
		case 0:
			v = b.And(a, c)
		case 1:
			v = b.Or(a, c)
		case 2:
			v = b.Xor(a, c)
		case 3:
			v = b.Nand(a, c)
		case 4:
			v = b.Nor(a, c)
		case 5:
			v = b.Xnor(a, c)
		default:
			v = b.Not(a)
		}
		if ic, _ := v.IsConst(); ic {
			continue
		}
		vals = append(vals, v)
	}
	g := b.Graph()
	// Mark all sink operands as outputs so every live value is observable.
	n := 0
	for _, operand := range g.Operands() {
		if len(g.Consumers(operand)) == 0 && g.Producer(operand) != dfg.NoNode {
			g.MarkOutputNamed(operand, fmt.Sprintf("out%d", n))
			n++
		}
	}
	if n == 0 {
		g.MarkOutputNamed(g.Operands()[len(g.Operands())-1], "out0")
	}
	return g
}

type mapper func(*dfg.Graph, Options) (*Result, error)

// verifyMapping compiles g with the mapper and checks, over several random
// input assignments, that simulating the program reproduces the DFG
// semantics bit-exactly.
func verifyMapping(t *testing.T, g *dfg.Graph, m mapper, target layout.Target, trials int, seed int64) *Result {
	t.Helper()
	res, err := m(g, Options{Target: target})
	if err != nil {
		t.Fatalf("mapping failed: %v", err)
	}
	if err := res.Program.Validate(); err != nil {
		t.Fatalf("invalid program: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		inputs := make(map[string]bool)
		for _, name := range g.InputNames() {
			inputs[name] = rng.Intn(2) == 1
		}
		want, err := dfg.EvaluateByName(g, inputs)
		if err != nil {
			t.Fatal(err)
		}
		mach := simref.NewMachine(target)
		if err := mach.Run(res.Program, inputs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, out := range g.Outputs() {
			p, err := res.OutputPlace(out)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mach.ReadOut(p)
			if err != nil {
				t.Fatalf("trial %d, output %q: %v", trial, g.OutputName(out), err)
			}
			if got != want[g.OutputName(out)] {
				t.Fatalf("trial %d: output %q = %v, want %v", trial, g.OutputName(out), got, want[g.OutputName(out)])
			}
		}
	}
	return res
}

func diamond() *dfg.Graph {
	b := dfg.NewBuilder()
	x, y := b.Input("x"), b.Input("y")
	b.Output("out", b.Xor(b.And(x, y), b.Or(x, y)))
	return b.Graph()
}

func TestNaiveDiamond(t *testing.T) {
	verifyMapping(t, diamond(), Naive, layout.Target{Arrays: 1, Rows: 16, Cols: 4}, 8, 1)
}

func TestOptimizedDiamond(t *testing.T) {
	verifyMapping(t, diamond(), Optimized, layout.Target{Arrays: 1, Rows: 16, Cols: 4}, 8, 2)
}

func TestNaiveWithNotAndCopy(t *testing.T) {
	g := dfg.New()
	a, b := g.AddInput("a"), g.AddInput("b")
	na := g.AddOp(logic.Not, a)
	cp := g.AddOp(logic.Copy, b)
	g.MarkOutputNamed(g.AddOp(logic.And, na, cp), "o")
	verifyMapping(t, g, Naive, layout.Target{Arrays: 1, Rows: 8, Cols: 4}, 4, 3)
	verifyMapping(t, g, Optimized, layout.Target{Arrays: 1, Rows: 8, Cols: 4}, 4, 4)
}

func TestMultiOperandOps(t *testing.T) {
	g := dfg.New()
	ins := make([]dfg.NodeID, 4)
	for i := range ins {
		ins[i] = g.AddInput(fmt.Sprintf("x%d", i))
	}
	g.MarkOutputNamed(g.AddOp(logic.Xor, ins...), "parity")
	g.MarkOutputNamed(g.AddOp(logic.And, ins...), "all")
	verifyMapping(t, g, Naive, layout.Target{Arrays: 1, Rows: 8, Cols: 4}, 16, 5)
	verifyMapping(t, g, Optimized, layout.Target{Arrays: 1, Rows: 8, Cols: 4}, 16, 6)
}

func TestRandomGraphsBothMappers(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := randomGraph(seed, 6, 40)
		target := layout.Target{Arrays: 1, Rows: 24, Cols: 32}
		verifyMapping(t, g, Naive, target, 4, seed+100)
		verifyMapping(t, g, Optimized, target, 4, seed+200)
	}
}

func TestColumnSpillForcesMultipleColumns(t *testing.T) {
	// 60 ops worth of operands cannot fit an 16-row column.
	g := randomGraph(7, 8, 60)
	target := layout.Target{Arrays: 1, Rows: 16, Cols: 64}
	rn := verifyMapping(t, g, Naive, target, 3, 11)
	ro := verifyMapping(t, g, Optimized, target, 3, 12)
	if rn.Stats.ColumnsUsed < 2 || ro.Stats.ColumnsUsed < 2 {
		t.Fatalf("expected multi-column layouts, got naive=%d opt=%d",
			rn.Stats.ColumnsUsed, ro.Stats.ColumnsUsed)
	}
}

func TestCrossArrayMapping(t *testing.T) {
	// A target whose single array cannot hold the graph forces the
	// mappers across arrays, exercising the bus-write path.
	g := randomGraph(3, 6, 50)
	target := layout.Target{Arrays: 4, Rows: 12, Cols: 6}
	verifyMapping(t, g, Naive, target, 3, 21)
	verifyMapping(t, g, Optimized, target, 3, 22)
}

func TestTargetTooSmallErrors(t *testing.T) {
	g := randomGraph(4, 6, 80)
	_, err := Naive(g, Options{Target: layout.Target{Arrays: 1, Rows: 8, Cols: 2}})
	if err == nil {
		t.Error("naive accepted an impossible target")
	}
	_, err = Optimized(g, Options{Target: layout.Target{Arrays: 1, Rows: 8, Cols: 2}})
	if err == nil {
		t.Error("optimized accepted an impossible target")
	}
}

func TestArityLargerThanColumnErrors(t *testing.T) {
	g := dfg.New()
	ins := make([]dfg.NodeID, 6)
	for i := range ins {
		ins[i] = g.AddInput(fmt.Sprintf("x%d", i))
	}
	g.MarkOutputNamed(g.AddOp(logic.And, ins...), "o")
	_, err := Naive(g, Options{Target: layout.Target{Arrays: 1, Rows: 4, Cols: 8}})
	if err == nil {
		t.Error("op wider than a column accepted")
	}
}

func TestEmptyGraphErrors(t *testing.T) {
	g := dfg.New()
	g.AddInput("a")
	if _, err := Naive(g, Options{Target: layout.Target{Arrays: 1, Rows: 8, Cols: 8}}); err == nil {
		t.Error("graph without ops accepted")
	}
}

// parallelKernels builds p independent, structurally identical chains —
// the shape where clustering and instruction merging shine.
func parallelKernels(p, depth int) *dfg.Graph {
	b := dfg.NewBuilder()
	b.DisableCSE = true
	for i := 0; i < p; i++ {
		x := b.Input(fmt.Sprintf("x%d", i))
		y := b.Input(fmt.Sprintf("y%d", i))
		acc := b.And(x, y)
		for d := 1; d < depth; d++ {
			acc = b.Xor(acc, y)
			acc = b.And(acc, x)
		}
		b.Output(fmt.Sprintf("o%d", i), acc)
	}
	return b.Graph()
}

func TestOptimizedBeatsNaiveOnParallelKernels(t *testing.T) {
	g := parallelKernels(8, 6)
	// Rows chosen so one chain fits a column but several do not.
	target := layout.Target{Arrays: 1, Rows: 32, Cols: 64}
	rn := verifyMapping(t, g, Naive, target, 3, 31)
	ro := verifyMapping(t, g, Optimized, target, 3, 32)
	if ro.Stats.Instructions >= rn.Stats.Instructions {
		t.Errorf("optimized (%d instructions) not better than naive (%d)",
			ro.Stats.Instructions, rn.Stats.Instructions)
	}
	if ro.Stats.Copies > rn.Stats.Copies {
		t.Errorf("optimized inserted more copies (%d) than naive (%d)",
			ro.Stats.Copies, rn.Stats.Copies)
	}
	if ro.Stats.MergedAway == 0 {
		t.Error("no instructions merged on perfectly parallel kernels")
	}
}

func TestClustersPartitionOps(t *testing.T) {
	g := randomGraph(5, 8, 60)
	target := layout.Target{Arrays: 1, Rows: 16, Cols: 64}
	clusters, err := Clusters(g, Options{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[dfg.NodeID]bool)
	for _, ops := range clusters {
		if len(ops) == 0 {
			t.Error("empty cluster")
		}
		for _, op := range ops {
			if seen[op] {
				t.Fatalf("op %d in two clusters", op)
			}
			seen[op] = true
		}
	}
	if len(seen) != len(g.OpNodes()) {
		t.Fatalf("clusters cover %d ops, graph has %d", len(seen), len(g.OpNodes()))
	}
	// Each cluster's footprint must fit one column.
	for ci, ops := range clusters {
		fp := make(map[dfg.NodeID]struct{})
		for _, op := range ops {
			for _, x := range opFootprint(g, op, nil) {
				fp[x] = struct{}{}
			}
		}
		if len(fp) > target.Rows {
			t.Errorf("cluster %d footprint %d exceeds %d rows", ci, len(fp), target.Rows)
		}
	}
}

func TestPaperEq1Ablation(t *testing.T) {
	g := randomGraph(6, 8, 50)
	target := layout.Target{Arrays: 1, Rows: 16, Cols: 64}
	res, err := Optimized(g, Options{Target: target, PaperEq1: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Program.Validate(); err != nil {
		t.Fatal(err)
	}
	// Correctness must hold regardless of the scoring variant.
	verifyWith := func(o Options) {
		m := func(g *dfg.Graph, opt Options) (*Result, error) { return Optimized(g, o) }
		verifyMapping(t, g, m, target, 2, 41)
	}
	verifyWith(Options{Target: target, PaperEq1: true})
}

func TestMergeInstructionsSemanticsPreserved(t *testing.T) {
	// Merge a naive program (which the Naive mapper does not do itself)
	// and check the merged version computes identically.
	g := parallelKernels(4, 4)
	target := layout.Target{Arrays: 1, Rows: 32, Cols: 16}
	res, err := Naive(g, Options{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	merged, eliminated := MergeInstructions(res.Program)
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged program invalid: %v", err)
	}
	if eliminated < 0 {
		t.Fatalf("negative elimination count %d", eliminated)
	}
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 5; trial++ {
		inputs := make(map[string]bool)
		for _, name := range g.InputNames() {
			inputs[name] = rng.Intn(2) == 1
		}
		m1 := simref.NewMachine(target)
		if err := m1.Run(res.Program, inputs); err != nil {
			t.Fatal(err)
		}
		m2 := simref.NewMachine(target)
		if err := m2.Run(merged, inputs); err != nil {
			t.Fatal(err)
		}
		for _, out := range g.Outputs() {
			p, _ := res.OutputPlace(out)
			v1, err1 := m1.ReadOut(p)
			v2, err2 := m2.ReadOut(p)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if v1 != v2 {
				t.Fatalf("merging changed output %q", g.OutputName(out))
			}
		}
	}
}

func TestMergeInstructionsEmptyProgram(t *testing.T) {
	out, n := MergeInstructions(nil)
	if len(out) != 0 || n != 0 {
		t.Error("empty program not handled")
	}
}

func TestDeterminism(t *testing.T) {
	g := randomGraph(9, 8, 60)
	target := layout.Target{Arrays: 1, Rows: 16, Cols: 64}
	r1, err := Optimized(g, Options{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimized(g, Options{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Program.String() != r2.Program.String() {
		t.Error("optimized mapping is not deterministic")
	}
	n1, _ := Naive(g, Options{Target: target})
	n2, _ := Naive(g, Options{Target: target})
	if n1.Program.String() != n2.Program.String() {
		t.Error("naive mapping is not deterministic")
	}
}

func TestRecyclingPreservesSemantics(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed+40, 6, 50)
		target := layout.Target{Arrays: 1, Rows: 16, Cols: 64}
		mN := func(g *dfg.Graph, o Options) (*Result, error) {
			o.RecycleRows = true
			return Naive(g, o)
		}
		mO := func(g *dfg.Graph, o Options) (*Result, error) {
			o.RecycleRows = true
			return Optimized(g, o)
		}
		rn := verifyMapping(t, g, mN, target, 3, seed+300)
		ro := verifyMapping(t, g, mO, target, 3, seed+400)
		if rn.Stats.RecycledRows == 0 && ro.Stats.RecycledRows == 0 {
			t.Errorf("seed %d: no rows recycled on either mapper", seed)
		}
	}
}

func TestRecyclingExtendsCapacity(t *testing.T) {
	// A long chain: live set is tiny but total operand count is large.
	// Without recycling it cannot fit the target; with recycling it can.
	b := dfg.NewBuilder()
	b.DisableCSE = true
	x, y := b.Input("x"), b.Input("y")
	acc := b.And(x, y)
	for i := 0; i < 200; i++ {
		acc = b.Xor(acc, x)
		acc = b.And(acc, y)
	}
	b.Output("end", acc)
	g := b.Graph()

	tiny := layout.Target{Arrays: 1, Rows: 24, Cols: 8} // 192 cells < 400+ operands
	if _, err := Naive(g, Options{Target: tiny}); err == nil {
		t.Fatal("expected the tiny target to overflow without recycling")
	}
	m := func(g *dfg.Graph, o Options) (*Result, error) {
		o.RecycleRows = true
		return Naive(g, o)
	}
	res := verifyMapping(t, g, m, tiny, 4, 77)
	if res.Stats.RecycledRows == 0 {
		t.Fatal("no recycling on a kernel that requires it")
	}
}

func TestRecyclingNeverReleasesOutputs(t *testing.T) {
	// Chain where an intermediate is also a kernel output: it must stay
	// readable at the end even with aggressive recycling.
	gb := dfg.NewBuilder()
	gb.DisableCSE = true
	x, y := gb.Input("x"), gb.Input("y")
	mid := gb.And(x, y)
	gb.Output("mid", mid)
	acc := mid
	for i := 0; i < 30; i++ {
		acc = gb.Xor(acc, y)
	}
	gb.Output("end", acc)
	g := gb.Graph()
	m := func(g *dfg.Graph, o Options) (*Result, error) {
		o.RecycleRows = true
		return Optimized(g, o)
	}
	verifyMapping(t, g, m, layout.Target{Arrays: 1, Rows: 16, Cols: 8}, 6, 99)
}

func TestWearLevelingSpreadsWrites(t *testing.T) {
	// A long chain with recycling reuses few rows; wear leveling must
	// spread the writes over more cells, lowering the per-cell maximum,
	// without changing semantics.
	b := dfg.NewBuilder()
	b.DisableCSE = true
	x, y := b.Input("x"), b.Input("y")
	acc := b.And(x, y)
	for i := 0; i < 120; i++ {
		acc = b.Xor(acc, x)
		acc = b.And(acc, y)
	}
	b.Output("end", acc)
	g := b.Graph()
	tiny := layout.Target{Arrays: 1, Rows: 32, Cols: 4}

	wearOf := func(level bool) int {
		m := func(g *dfg.Graph, o Options) (*Result, error) {
			o.RecycleRows = true
			o.WearLeveling = level
			return Naive(g, o)
		}
		res := verifyMapping(t, g, m, tiny, 3, 123)
		rep, err := reliability.AssessWear(res.Program)
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxWritesPerCell
	}
	lifo := wearOf(false)
	fifo := wearOf(true)
	if fifo >= lifo {
		t.Errorf("wear leveling did not spread writes: max/cell %d (FIFO) vs %d (LIFO)", fifo, lifo)
	}
}
