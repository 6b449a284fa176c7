package mapping

import (
	"fmt"

	"sherlock/internal/dfg"
	"sherlock/internal/layout"
)

// Naive implements Algorithm 1: op nodes are visited in b-level priority
// order (event-driven ready dispatch, see dfg.ReadyWalker) and their
// not-yet-mapped operands are packed column-major into the array, spilling
// into the next column when one fills up. No clustering and no instruction
// merging is performed, so operands shared across columns cause copies
// (data duplication) exactly as the paper describes.
func Naive(g *dfg.Graph, opt Options) (*Result, error) {
	if err := validateInput(g, opt.Target); err != nil {
		return nil, err
	}
	e := newEmitter(g, opt.Target, opt.RecycleRows, opt.WearLeveling)
	cursor := &columnSeq{t: opt.Target}

	err := forEachOp(g, func(op dfg.NodeID) error {
		if err := naiveMapOp(e, op, cursor); err != nil {
			return fmt.Errorf("mapping: naive, op %q: %w", g.Name(op), err)
		}
		e.retireInputs(op)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Program: e.prog, Layout: e.lay, Graph: g}
	res.Stats = Stats{
		Copies:       e.copies,
		ColumnsUsed:  len(e.lay.ColumnsUsed()),
		Instructions: len(e.prog),
		RecycledRows: e.lay.RecycledAllocs(),
	}
	return res, nil
}

func naiveMapOp(e *emitter, op dfg.NodeID, cursor *columnSeq) error {
	e.insBuf = e.g.AppendOpInputs(op, e.insBuf[:0])
	ins := e.insBuf

	col, err := naiveChooseColumn(e, ins, cursor)
	if err != nil {
		return err
	}

	if e.g.OpType(op).IsUnary() {
		// Row-buffer ops read their input wherever it lives; the
		// write-back aligns into this op's column.
		p, err := e.inputPlace(ins[0], col)
		if err != nil {
			return err
		}
		e.placesBuf = append(e.placesBuf[:0], p)
		return e.emitOp(op, col, e.placesBuf)
	}

	e.placesBuf = e.placesBuf[:0]
	for _, in := range ins {
		p, err := e.ensureInColumn(in, col)
		if err != nil {
			return err
		}
		e.placesBuf = append(e.placesBuf, p)
	}
	return e.emitOp(op, col, e.placesBuf)
}

// naiveChooseColumn realizes the blind cursor semantics of Algorithm 1
// (lines 7-17): each op computes in the *current* column, where its
// still-unmapped operands and its output are packed; the cursor advances
// when the column lacks room. Inputs already living in earlier columns are
// copied in — the data movement and duplication the paper attributes to
// this baseline.
func naiveChooseColumn(e *emitter, ins []dfg.NodeID, cursor *columnSeq) (layout.ColumnRef, error) {
	for {
		c := cursor.current()
		// Room needed in the cursor column: every input without a cell
		// here (first-use host writes and copies) plus the output.
		room := 1
		for _, in := range ins {
			if _, ok := e.lay.InColumn(in, c); !ok {
				room++
			}
		}
		if e.lay.FreeRows(c) >= room {
			return c, nil
		}
		if err := cursor.advance(); err != nil {
			return layout.ColumnRef{}, err
		}
	}
}
