// Package layout tracks where DFG operands live in the CIM array(s): the
// memory layout the mapping algorithms produce alongside the instruction
// stream. One operand can occupy several cells (the naive mapper duplicates
// data to co-locate an op's inputs in one column); the first placement is
// the operand's canonical home.
package layout

import (
	"fmt"

	"sherlock/internal/dfg"
)

// Target describes the addressable CIM fabric the mapper may use.
type Target struct {
	Arrays int // number of independent arrays (each with its own row buffer)
	Rows   int // rows per array (m)
	Cols   int // columns per array (n)
}

// Validate rejects degenerate targets.
func (t Target) Validate() error {
	if t.Arrays < 1 || t.Rows < 2 || t.Cols < 1 {
		return fmt.Errorf("layout: invalid target %+v", t)
	}
	return nil
}

// Cells returns the total cell capacity.
func (t Target) Cells() int { return t.Arrays * t.Rows * t.Cols }

// Place is one cell coordinate.
type Place struct {
	Array, Col, Row int
}

func (p Place) String() string {
	return fmt.Sprintf("[%d][%d][%d]", p.Array, p.Col, p.Row)
}

// ColumnRef addresses a column within an array.
type ColumnRef struct {
	Array, Col int
}

// Layout is the operand-to-cell assignment. The zero value is unusable;
// construct with New.
//
// The mappers ask only three things of it: an operand's home cell, its copy
// in a given column, and the next free row of a column. NodeIDs and column
// coordinates are both dense small integers, so that state lives in flat
// slices: the canonical home cell is stored inline per operand (sized once
// from the graph), and only the rare duplicate placements of the naive
// mapper spill into a map.
type Layout struct {
	target   Target
	home     []Place                // operand -> canonical cell; Row < 0 = unplaced
	more     map[dfg.NodeID][]Place // duplicate cells beyond the home (naive mapper)
	fill     []int32                // bump allocator: next free row, indexed by array*Cols+col
	freed    [][]int32              // recycled rows available below the bump point
	recycled int

	// WearLeveling switches the recycled-row pool from LIFO (reuse the
	// most recently freed row, which concentrates writes on few cells) to
	// FIFO (rotate through freed rows, spreading programming cycles —
	// implicit wear leveling for endurance-limited technologies).
	WearLeveling bool
}

// New returns an empty layout over the target for operands with NodeIDs
// below nodes (a graph's NumNodes).
func New(t Target, nodes int) *Layout {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	home := make([]Place, nodes)
	for i := range home {
		home[i].Row = -1
	}
	return &Layout{
		target: t,
		home:   home,
		more:   make(map[dfg.NodeID][]Place),
		fill:   make([]int32, t.Arrays*t.Cols),
		freed:  make([][]int32, t.Arrays*t.Cols),
	}
}

// Target returns the fabric description.
func (l *Layout) Target() Target { return l.target }

// colIndex flattens a (validated) column reference.
func (l *Layout) colIndex(c ColumnRef) int { return c.Array*l.target.Cols + c.Col }

// homeAt returns the operand's inline home slot, or nil if the NodeID is
// outside the layout.
func (l *Layout) homeAt(node dfg.NodeID) *Place {
	if node < 0 || int(node) >= len(l.home) {
		return nil
	}
	return &l.home[node]
}

// Alloc places the operand at the next free row of the given column
// (preferring recycled rows) and returns the cell. It fails when the
// column is full.
func (l *Layout) Alloc(node dfg.NodeID, c ColumnRef) (Place, error) {
	if err := l.checkColumn(c); err != nil {
		return Place{}, err
	}
	slot := l.homeAt(node)
	if slot == nil {
		return Place{}, fmt.Errorf("layout: operand %d outside layout (%d nodes)", node, len(l.home))
	}
	row, ok := l.pickRow(c)
	if !ok {
		return Place{}, fmt.Errorf("layout: column %v full (%d rows)", c, l.target.Rows)
	}
	p := Place{Array: c.Array, Col: c.Col, Row: row}
	if slot.Row < 0 {
		*slot = p
	} else {
		l.more[node] = append(l.more[node], p)
	}
	return p, nil
}

// pickRow chooses the next row of the column. Default policy: reuse the
// most recently freed row first (maximizes locality and keeps the bump
// pointer low). With WearLeveling: exhaust fresh rows first, then rotate
// through freed rows FIFO, so programming cycles spread over every row of
// the column before any row is written twice.
func (l *Layout) pickRow(c ColumnRef) (int, bool) {
	ci := l.colIndex(c)
	free := l.freed[ci]
	if l.WearLeveling {
		if int(l.fill[ci]) < l.target.Rows {
			row := l.fill[ci]
			l.fill[ci] = row + 1
			return int(row), true
		}
		if len(free) > 0 {
			row := free[0]
			l.freed[ci] = free[1:]
			l.recycled++
			return int(row), true
		}
		return 0, false
	}
	if len(free) > 0 {
		row := free[len(free)-1]
		l.freed[ci] = free[:len(free)-1]
		l.recycled++
		return int(row), true
	}
	if int(l.fill[ci]) < l.target.Rows {
		row := l.fill[ci]
		l.fill[ci] = row + 1
		return int(row), true
	}
	return 0, false
}

// Release frees every cell held by the operand, making the rows available
// for reuse within their columns (liveness-driven row recycling). Calling
// it for an unplaced operand is a no-op.
func (l *Layout) Release(node dfg.NodeID) {
	slot := l.homeAt(node)
	if slot == nil || slot.Row < 0 {
		return
	}
	l.releaseCell(*slot)
	for _, p := range l.more[node] {
		l.releaseCell(p)
	}
	slot.Row = -1
	delete(l.more, node)
}

func (l *Layout) releaseCell(p Place) {
	ci := l.colIndex(ColumnRef{Array: p.Array, Col: p.Col})
	l.freed[ci] = append(l.freed[ci], int32(p.Row))
}

// RecycledAllocs reports how many allocations were served from released
// rows.
func (l *Layout) RecycledAllocs() int { return l.recycled }

func (l *Layout) checkColumn(c ColumnRef) error {
	if c.Array < 0 || c.Array >= l.target.Arrays || c.Col < 0 || c.Col >= l.target.Cols {
		return fmt.Errorf("layout: column %v outside target %+v", c, l.target)
	}
	return nil
}

// FreeRows reports how many rows remain unallocated in the column,
// including released rows awaiting reuse.
func (l *Layout) FreeRows(c ColumnRef) int {
	if err := l.checkColumn(c); err != nil {
		return 0
	}
	ci := l.colIndex(c)
	return l.target.Rows - int(l.fill[ci]) + len(l.freed[ci])
}

// Home returns the operand's canonical (first) cell.
func (l *Layout) Home(node dfg.NodeID) (Place, bool) {
	slot := l.homeAt(node)
	if slot == nil || slot.Row < 0 {
		return Place{}, false
	}
	return *slot, true
}

// InColumn returns the operand's cell within the given column, if any.
func (l *Layout) InColumn(node dfg.NodeID, c ColumnRef) (Place, bool) {
	slot := l.homeAt(node)
	if slot == nil || slot.Row < 0 {
		return Place{}, false
	}
	if slot.Array == c.Array && slot.Col == c.Col {
		return *slot, true
	}
	for _, p := range l.more[node] {
		if p.Array == c.Array && p.Col == c.Col {
			return p, true
		}
	}
	return Place{}, false
}

// ColumnsUsed returns the columns with at least one allocation, sorted by
// (array, col). Column indices are already laid out in that order, so the
// scan produces sorted output directly.
func (l *Layout) ColumnsUsed() []ColumnRef {
	var out []ColumnRef
	for ci, n := range l.fill {
		if n > 0 {
			out = append(out, ColumnRef{Array: ci / l.target.Cols, Col: ci % l.target.Cols})
		}
	}
	return out
}
