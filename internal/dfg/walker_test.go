package dfg

import (
	"math/rand"
	"slices"
	"testing"

	"sherlock/internal/logic"
)

// randomDAG builds a random layered graph for order tests.
func randomDAG(seed int64, nInputs, nOps int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	operands := make([]NodeID, 0, nInputs+nOps)
	for i := 0; i < nInputs; i++ {
		operands = append(operands, g.AddInput(""))
	}
	ops := []logic.Op{logic.And, logic.Or, logic.Xor}
	for i := 0; i < nOps; i++ {
		a := operands[rng.Intn(len(operands))]
		b := operands[rng.Intn(len(operands))]
		for b == a {
			b = operands[rng.Intn(len(operands))]
		}
		out := g.AddOp(ops[rng.Intn(len(ops))], a, b)
		operands = append(operands, out)
	}
	return g
}

func checkPriorityOrder(t *testing.T, g *Graph, order []NodeID) {
	t.Helper()
	if len(order) != len(g.OpNodes()) {
		t.Fatalf("order has %d ops, graph has %d", len(order), len(g.OpNodes()))
	}
	seen := make(map[NodeID]bool, len(order))
	for i, op := range order {
		for _, p := range g.OpPreds(op) {
			if !seen[p] {
				t.Fatalf("op %d at position %d before predecessor %d", op, i, p)
			}
		}
		seen[op] = true
	}
}

// walk drains a fresh walker over g with the given window and returns the
// issue order.
func walk(g *Graph, window int) []NodeID {
	w := g.NewReadyWalker()
	defer w.Close()
	var order []NodeID
	for {
		batch := w.Next(window)
		if batch == nil {
			return order
		}
		order = append(order, batch...)
	}
}

// opsByPriority is the node queue nq of Algorithms 1 and 2: the order a
// window-1 ReadyWalker issues ops in.
func opsByPriority(g *Graph) []NodeID { return walk(g, 1) }

// TestOpsByPriorityIsTopoAndDescending pins the window-1 walker order as a
// topological order, globally non-increasing in b-level and deterministic
// across identically built graphs.
func TestOpsByPriorityIsTopoAndDescending(t *testing.T) {
	g := randomDAG(7, 12, 300)
	order := opsByPriority(g)
	checkPriorityOrder(t, g, order)
	// With retire-on-pop, any unissued op with a higher b-level would
	// already be ready and queued ahead.
	bl := g.BLevelsDense()
	for i := 1; i < len(order); i++ {
		if bl[order[i]] > bl[order[i-1]] {
			t.Fatalf("b-level increases at position %d: %d after %d",
				i, bl[order[i]], bl[order[i-1]])
		}
	}
	if again := opsByPriority(randomDAG(7, 12, 300)); !slices.Equal(order, again) {
		t.Fatal("window-1 order not deterministic across identically built graphs")
	}
}

// TestOpsByPriorityOrdering pins the window-1 walker's tie order on the
// diamond: AND and OR (b-level 2) are both ready at the start and come out
// in creation order, ahead of XOR (b-level 1).
func TestOpsByPriorityOrdering(t *testing.T) {
	g, _, _ := buildDiamond()
	prio := opsByPriority(g)
	bl := g.BLevelsDense()
	for i := 1; i < len(prio); i++ {
		if bl[prio[i-1]] < bl[prio[i]] {
			t.Fatalf("priority order violated at %d", i)
		}
		if bl[prio[i-1]] == bl[prio[i]] && prio[i-1] >= prio[i] {
			t.Fatalf("tie-break by ID violated at %d", i)
		}
	}
	if want := g.TopoOps(); !slices.Equal(prio, want) {
		t.Fatalf("diamond order = %v, want %v", prio, want)
	}
}

func TestReadyWalkerWindows(t *testing.T) {
	g := randomDAG(3, 10, 500)
	for _, window := range []int{1, 7, 64, 1 << 20} {
		w := g.NewReadyWalker()
		var order []NodeID
		for {
			batch := w.Next(window)
			if batch == nil {
				break
			}
			if len(batch) > window {
				t.Fatalf("window %d: batch of %d", window, len(batch))
			}
			order = append(order, batch...)
		}
		w.Close()
		checkPriorityOrder(t, g, order)
		if w.Emitted() != len(order) {
			t.Fatalf("Emitted() = %d, issued %d", w.Emitted(), len(order))
		}
	}
}

func TestReadyWalkerNoPredecessorInSameWindow(t *testing.T) {
	g := randomDAG(19, 6, 400)
	w := g.NewReadyWalker()
	defer w.Close()
	for {
		batch := w.Next(64)
		if batch == nil {
			break
		}
		in := make(map[NodeID]bool, len(batch))
		for _, op := range batch {
			in[op] = true
		}
		for _, op := range batch {
			for _, p := range g.OpPreds(op) {
				if in[p] {
					t.Fatalf("op %d and its predecessor %d issued in one window", op, p)
				}
			}
		}
	}
}
