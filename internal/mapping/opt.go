package mapping

import (
	"fmt"

	"sherlock/internal/dfg"
	"sherlock/internal/layout"
)

// Optimized implements Algorithm 2: op nodes are clustered so that each
// cluster's operand footprint fits one CIM column, clusters are greedily
// merged down toward k = ceil(#operands / rows), each cluster is assigned a
// column, and the generated instructions are merged across clusters
// (Sec. 3.3.3) after a dependence-preserving level schedule.
func Optimized(g *dfg.Graph, opt Options) (*Result, error) {
	e, clusters, err := emitOptimized(g, opt)
	if err != nil {
		return nil, err
	}
	merged, eliminated := MergeInstructions(e.prog)
	if len(e.prog) > 0 { // merged never aliases a non-empty input
		releaseProg(e.prog)
		e.prog = nil
	}
	res := &Result{Program: merged, Layout: e.lay, Graph: g}
	res.Stats = Stats{
		Copies:       e.copies,
		ColumnsUsed:  len(e.lay.ColumnsUsed()),
		Clusters:     clusters,
		MergedAway:   eliminated,
		Instructions: len(merged),
		RecycledRows: e.lay.RecycledAllocs(),
	}
	return res, nil
}

// emitOptimized runs Algorithm 2 up to instruction merging: clustering,
// column assignment and code generation in priority order. It returns the
// emitter, which holds the unmerged program and the layout, and the number
// of clusters.
func emitOptimized(g *dfg.Graph, opt Options) (*emitter, int, error) {
	if err := validateInput(g, opt.Target); err != nil {
		return nil, 0, err
	}
	t := opt.Target
	operands := len(g.Operands())
	k := (operands + t.Rows - 1) / t.Rows

	clusters, err := findClusters(g, opt, t.Rows, k)
	if err != nil {
		return nil, 0, err
	}
	if len(clusters) > t.Arrays*t.Cols {
		return nil, 0, fmt.Errorf("mapping: %d clusters exceed the target's %d columns",
			len(clusters), t.Arrays*t.Cols)
	}

	// Column assignment: cluster i -> i-th column in array-major order.
	colOf := make([]layout.ColumnRef, g.NumNodes())
	for i, ops := range clusters {
		col, err := columnAt(t, i)
		if err != nil {
			return nil, 0, err
		}
		for _, op := range ops {
			colOf[op] = col
		}
	}

	// Generate code in priority order — issue windows over the ready
	// queue — so that structurally parallel clusters advance their row
	// allocators in lockstep: the precondition for cross-cluster
	// instruction merging.
	e := newEmitter(g, t, opt.RecycleRows, opt.WearLeveling)
	err = forEachOp(g, func(op dfg.NodeID) error {
		col := colOf[op]
		e.insBuf = g.AppendOpInputs(op, e.insBuf[:0])
		ins := e.insBuf
		if g.OpType(op).IsUnary() {
			p, err := e.inputPlace(ins[0], col)
			if err != nil {
				return fmt.Errorf("mapping: optimized, op %q: %w", g.Name(op), err)
			}
			e.placesBuf = append(e.placesBuf[:0], p)
			if err := e.emitOp(op, col, e.placesBuf); err != nil {
				return fmt.Errorf("mapping: optimized, op %q: %w", g.Name(op), err)
			}
			e.retireInputs(op)
			return nil
		}
		e.placesBuf = e.placesBuf[:0]
		for _, in := range ins {
			p, err := e.ensureInColumn(in, col)
			if err != nil {
				return fmt.Errorf("mapping: optimized, op %q: %w", g.Name(op), err)
			}
			e.placesBuf = append(e.placesBuf, p)
		}
		if err := e.emitOp(op, col, e.placesBuf); err != nil {
			return fmt.Errorf("mapping: optimized, op %q: %w", g.Name(op), err)
		}
		e.retireInputs(op)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return e, len(clusters), nil
}

// Clusters exposes the clustering stage on its own (for inspection, tests
// and the dfg2dot tool).
func Clusters(g *dfg.Graph, opt Options) ([][]dfg.NodeID, error) {
	if err := validateInput(g, opt.Target); err != nil {
		return nil, err
	}
	t := opt.Target
	operands := len(g.Operands())
	k := (operands + t.Rows - 1) / t.Rows
	return findClusters(g, opt, t.Rows, k)
}
