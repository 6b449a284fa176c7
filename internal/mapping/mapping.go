// Package mapping implements Sherlock's two mapping/scheduling algorithms:
// the naive column-major baseline (Algorithm 1) and the optimized
// cluster-based mapper (Algorithm 2), including the cross-cluster
// instruction-merging optimization of Sec. 3.3.3.
//
// Both mappers take a DFG and a target description and produce a memory
// layout (operand -> cell) plus the instruction program that executes the
// DFG on the scouting-logic CIM array.
package mapping

import (
	"fmt"
	"sync"

	"sherlock/internal/dfg"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/logic"
)

// Options configures a mapping run.
type Options struct {
	Target layout.Target

	// PaperEq1 applies the score exactly as printed in the paper
	// (β·|C| + α·Σρ). The printed form contradicts the surrounding prose
	// (see DESIGN.md); it is kept as an ablation knob.
	PaperEq1 bool

	// RecycleRows enables liveness-driven row reuse: once every consumer
	// of an intermediate operand has executed, its cells return to their
	// columns' free pools. This stretches the limited array capacity the
	// paper highlights (Sec. 2.2, "array sizes can not be arbitrarily
	// large") at no instruction cost.
	RecycleRows bool

	// WearLeveling rotates through recycled rows FIFO instead of reusing
	// the most recently freed one, spreading programming cycles across
	// cells (endurance; only meaningful with RecycleRows).
	WearLeveling bool
}

// Eq. 1 weights of the cluster-assignment score: alpha scales the
// dependency/priority affinity, beta the load-balancing penalty on cluster
// size.
const (
	alpha = 1.0
	beta  = 0.25
)

// issueWindow bounds how many ready ops the mappers pull from the
// event-driven ready queue per wave (see dfg.ReadyWalker): an op's
// consumers become eligible no earlier than the wave after its own, so
// dependence order holds for any window; 1 would degenerate to pure
// priority order.
const issueWindow = 64

// forEachOp drives a mapper loop over the graph's ops in scheduling order:
// event-driven ready dispatch in bounded issue windows. A walk that drains
// before issuing every op means the graph is not acyclic.
func forEachOp(g *dfg.Graph, fn func(op dfg.NodeID) error) error {
	w := g.NewReadyWalker()
	defer w.Close()
	for {
		batch := w.Next(issueWindow)
		if batch == nil {
			break
		}
		for _, op := range batch {
			if err := fn(op); err != nil {
				return err
			}
		}
	}
	if w.Emitted() != g.NumOps() {
		return fmt.Errorf("mapping: ready traversal issued %d of %d ops (graph not acyclic?)",
			w.Emitted(), g.NumOps())
	}
	return nil
}

// Stats summarizes what a mapping run did.
type Stats struct {
	Copies       int // cross-column operand copies inserted
	ColumnsUsed  int
	Clusters     int // optimized mapper only
	MergedAway   int // instructions eliminated by cross-cluster merging
	Instructions int
	RecycledRows int // allocations served from released rows
}

// Result is a completed mapping: the program, the layout it addresses, and
// bookkeeping for result readout.
type Result struct {
	Program isa.Program
	Layout  *layout.Layout
	Graph   *dfg.Graph
	Stats   Stats
}

// OutputPlace returns the cell to read a kernel output from.
func (r *Result) OutputPlace(output dfg.NodeID) (layout.Place, error) {
	p, ok := r.Layout.Home(output)
	if !ok {
		return layout.Place{}, fmt.Errorf("mapping: output %q was never placed", r.Graph.Name(output))
	}
	return p, nil
}

// intArena hands out small []int backings for emitted instructions from
// large chunks, collapsing the two allocations per instruction (Cols,
// Rows) into one per few thousand. The chunks stay reachable from the
// emitted program, which owns them from then on.
type intArena struct {
	free []int
}

func (a *intArena) alloc(n int) []int {
	if len(a.free) < n {
		size := 4096
		if n > size {
			size = n
		}
		a.free = make([]int, size)
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

func (a *intArena) one(x int) []int {
	s := a.alloc(1)
	s[0] = x
	return s
}

// emitter holds the shared code-generation state of both mappers.
type emitter struct {
	g      *dfg.Graph
	lay    *layout.Layout
	prog   isa.Program
	copies int
	arena  intArena

	// Reusable per-op scratch for the mapper loops.
	insBuf    []dfg.NodeID
	placesBuf []layout.Place
	retireBuf []dfg.NodeID

	// Row recycling (Options.RecycleRows): remaining consumer count per
	// operand (indexed by NodeID, nil when recycling is off); when it
	// reaches zero for a non-output operand, its cells are released for
	// reuse.
	consumersLeft []int32
}

// progPool recycles instruction buffers between mapper calls. The
// optimized mapper discards its pre-merge program once MergeInstructions
// has rebuilt it, so the multi-megabyte backing can be reused instead of
// re-allocated (and re-zeroed) on every compile.
var progPool = sync.Pool{New: func() any { return new(isa.Program) }}

// releaseProg returns a dead program buffer to the pool. Callers must not
// retain any slice aliasing its backing array.
func releaseProg(p isa.Program) {
	if cap(p) == 0 {
		return
	}
	p = p[:0]
	progPool.Put(&p)
}

func newEmitter(g *dfg.Graph, t layout.Target, recycle, wearLevel bool) *emitter {
	e := &emitter{g: g, lay: layout.New(t, g.NumNodes())}
	// Roughly four instructions per op (read, align, write) plus copies;
	// one up-front allocation in the right ballpark beats letting append
	// double a multi-megabyte program several times over.
	want := 5*g.NumOps() + 64
	e.prog = (*progPool.Get().(*isa.Program))[:0]
	if cap(e.prog) < want {
		e.prog = make(isa.Program, 0, want)
	}
	e.lay.WearLeveling = wearLevel
	if recycle {
		e.consumersLeft = make([]int32, g.NumNodes())
		for _, operand := range g.Operands() {
			e.consumersLeft[operand] = int32(g.NumConsumers(operand))
		}
	}
	return e
}

// retireInputs decrements the consumer counts of an executed op's inputs,
// releasing operands whose last consumer just ran. Kernel outputs are never
// released (they must survive for host readout).
func (e *emitter) retireInputs(op dfg.NodeID) {
	if e.consumersLeft == nil {
		return
	}
	e.retireBuf = e.g.AppendOpInputs(op, e.retireBuf[:0])
	for _, in := range e.retireBuf {
		e.consumersLeft[in]--
		if e.consumersLeft[in] == 0 && !e.g.IsOutput(in) {
			e.lay.Release(in)
		}
	}
}

func (e *emitter) emit(in isa.Instruction) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("mapping: generated invalid instruction %s: %w", in, err)
	}
	e.prog = append(e.prog, in)
	return nil
}

// ensureInColumn guarantees the operand has a cell in the given column,
// emitting the host write or copy instructions needed, and returns that
// cell.
func (e *emitter) ensureInColumn(operand dfg.NodeID, col layout.ColumnRef) (layout.Place, error) {
	if p, ok := e.lay.InColumn(operand, col); ok {
		return p, nil
	}
	home, placed := e.lay.Home(operand)
	if !placed {
		// First materialization. Only kernel inputs may be unplaced at
		// use time; intermediates are placed by their producer's
		// write-back.
		if e.g.Producer(operand) != dfg.NoNode {
			return layout.Place{}, fmt.Errorf("mapping: intermediate %q used before produced", e.g.Name(operand))
		}
		p, err := e.lay.Alloc(operand, col)
		if err != nil {
			return layout.Place{}, err
		}
		err = e.emit(isa.Instruction{
			Kind:     isa.KindWrite,
			Array:    p.Array,
			Cols:     e.arena.one(p.Col),
			Rows:     e.arena.one(p.Row),
			Bindings: []string{e.g.Name(operand)},
		})
		return p, err
	}
	// Copy from home: load into the home array's row buffer, align
	// columns, then write (possibly across arrays).
	dup, err := e.lay.Alloc(operand, col)
	if err != nil {
		return layout.Place{}, err
	}
	if err := e.emit(isa.Instruction{
		Kind:  isa.KindRead,
		Array: home.Array,
		Cols:  e.arena.one(home.Col),
		Rows:  e.arena.one(home.Row),
	}); err != nil {
		return layout.Place{}, err
	}
	if err := e.emitAlignAndWrite(home.Array, home.Col, dup); err != nil {
		return layout.Place{}, err
	}
	e.copies++
	return dup, nil
}

// inputPlace returns a cell holding the operand without forcing it into
// col: its home if it has one, otherwise (kernel inputs) it is materialized
// in col via a host write.
func (e *emitter) inputPlace(operand dfg.NodeID, col layout.ColumnRef) (layout.Place, error) {
	if p, ok := e.lay.Home(operand); ok {
		return p, nil
	}
	return e.ensureInColumn(operand, col)
}

// emitAlignAndWrite shifts the srcArray row buffer so that the bit at
// srcCol lands on dst.Col, then writes it to dst (cross-array when needed).
func (e *emitter) emitAlignAndWrite(srcArray, srcCol int, dst layout.Place) error {
	if d := dst.Col - srcCol; d != 0 {
		if err := e.emit(isa.Instruction{
			Kind:    isa.KindShift,
			Array:   srcArray,
			Right:   d > 0,
			ShiftBy: abs(d),
		}); err != nil {
			return err
		}
	}
	w := isa.Instruction{
		Kind:  isa.KindWrite,
		Array: dst.Array,
		Cols:  e.arena.one(dst.Col),
		Rows:  e.arena.one(dst.Row),
	}
	if dst.Array != srcArray {
		w.HasSrcArray, w.SrcArray = true, srcArray
	}
	return e.emit(w)
}

// emitOp generates the instructions computing one op node with all its
// inputs already resident in column col, allocating and writing back the
// output there. inputPlaces must lie in col.
func (e *emitter) emitOp(op dfg.NodeID, col layout.ColumnRef, inputPlaces []layout.Place) error {
	out := e.g.OpOutput(op)
	outPlace, err := e.lay.Alloc(out, col)
	if err != nil {
		return err
	}
	t := e.g.OpType(op)
	if t.IsUnary() {
		in := inputPlaces[0]
		if err := e.emit(isa.Instruction{
			Kind:  isa.KindRead,
			Array: in.Array,
			Cols:  e.arena.one(in.Col),
			Rows:  e.arena.one(in.Row),
		}); err != nil {
			return err
		}
		if t == logic.Not {
			if err := e.emit(isa.Instruction{
				Kind:  isa.KindNot,
				Array: in.Array,
				Cols:  e.arena.one(in.Col),
			}); err != nil {
				return err
			}
		}
		return e.emitAlignAndWrite(in.Array, in.Col, outPlace)
	}

	rows := e.arena.alloc(len(inputPlaces))
	for i, p := range inputPlaces {
		if p.Array != col.Array || p.Col != col.Col {
			return fmt.Errorf("mapping: operand of %q not in sense column", e.g.Name(op))
		}
		rows[i] = p.Row
	}
	sortInts(rows)
	for i := 1; i < len(rows); i++ {
		if rows[i] == rows[i-1] {
			return fmt.Errorf("mapping: op %q activates row %d twice (duplicate operand)", e.g.Name(op), rows[i])
		}
	}
	if err := e.emit(isa.Instruction{
		Kind:  isa.KindRead,
		Array: col.Array,
		Cols:  e.arena.one(col.Col),
		Rows:  rows,
		Ops:   []logic.Op{t},
	}); err != nil {
		return err
	}
	return e.emit(isa.Instruction{
		Kind:  isa.KindWrite,
		Array: outPlace.Array,
		Cols:  e.arena.one(outPlace.Col),
		Rows:  e.arena.one(outPlace.Row),
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// columnSeq enumerates target columns in array-major order.
type columnSeq struct {
	t   layout.Target
	idx int
}

func (s *columnSeq) current() layout.ColumnRef {
	return layout.ColumnRef{Array: s.idx / s.t.Cols, Col: s.idx % s.t.Cols}
}

func (s *columnSeq) advance() error {
	s.idx++
	if s.idx >= s.t.Arrays*s.t.Cols {
		return fmt.Errorf("mapping: target capacity exhausted (%d columns)", s.t.Arrays*s.t.Cols)
	}
	return nil
}

// columnAt returns the i-th column in array-major order.
func columnAt(t layout.Target, i int) (layout.ColumnRef, error) {
	if i < 0 || i >= t.Arrays*t.Cols {
		return layout.ColumnRef{}, fmt.Errorf("mapping: column index %d outside target", i)
	}
	return layout.ColumnRef{Array: i / t.Cols, Col: i % t.Cols}, nil
}

func validateInput(g *dfg.Graph, t layout.Target) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("mapping: invalid graph: %w", err)
	}
	st := g.ComputeStats()
	if st.MaxArity+1 > t.Rows {
		return fmt.Errorf("mapping: op arity %d cannot fit a %d-row column", st.MaxArity, t.Rows)
	}
	if st.Ops == 0 {
		return fmt.Errorf("mapping: graph has no operations")
	}
	return nil
}
