package isa

// Resource-level dependence metadata: which cells and row-buffer bits an
// instruction reads and writes. The instruction merger and the parallel
// timing model both build their hazard analysis on these sets.

// ResKind distinguishes the two storage resources.
type ResKind uint8

// Resource kinds.
const (
	ResCell ResKind = iota // a memory cell (array, col, row)
	ResBuf                 // a row-buffer bit (array, col)
)

// Resource identifies one cell or row-buffer bit.
type Resource struct {
	Kind  ResKind
	Array int
	Col   int
	Row   int // cells only
}

// CellRes builds a cell resource.
func CellRes(array, col, row int) Resource {
	return Resource{Kind: ResCell, Array: array, Col: col, Row: row}
}

// BufRes builds a row-buffer bit resource.
func BufRes(array, col int) Resource {
	return Resource{Kind: ResBuf, Array: array, Col: col}
}

// Accesses returns the resources the instruction reads and writes. Shifts
// conservatively touch every row-buffer bit of their array up to bufCols
// columns (the widest column index in use plus one).
func (in Instruction) Accesses(bufCols int) (reads, writes []Resource) {
	return in.AppendAccesses(bufCols, nil, nil)
}

// AppendAccesses appends the instruction's read and written resources to
// the caller-supplied buffers and returns the extended slices. Hazard
// analysis (the instruction merger's level scheduler and the parallel
// timing model) calls this once per instruction with recycled buffers, so
// the steady state allocates nothing.
func (in Instruction) AppendAccesses(bufCols int, reads, writes []Resource) ([]Resource, []Resource) {
	switch in.Kind {
	case KindRead:
		for _, c := range in.Cols {
			for _, r := range in.Rows {
				reads = append(reads, CellRes(in.Array, c, r))
			}
			writes = append(writes, BufRes(in.Array, c))
		}
	case KindWrite:
		src := in.Source()
		for _, c := range in.Cols {
			if !in.IsHostWrite() {
				reads = append(reads, BufRes(src, c))
			}
			writes = append(writes, CellRes(in.Array, c, in.Rows[0]))
		}
	case KindShift:
		for c := 0; c < bufCols; c++ {
			reads = append(reads, BufRes(in.Array, c))
			writes = append(writes, BufRes(in.Array, c))
		}
	case KindNot:
		for _, c := range in.Cols {
			reads = append(reads, BufRes(in.Array, c))
			writes = append(writes, BufRes(in.Array, c))
		}
	}
	return reads, writes
}

// Space is the dense resource-ID universe of one program: every cell and
// row-buffer bit the program can touch maps to one int32 in [0, Size()).
// Hazard state (last writer, last readers) then lives in flat arrays
// indexed by ID instead of map[Resource] hash tables. The bounds come from
// the program itself (widest array/column/row index in use), so the space
// tracks the compact region the mapper actually filled, not the full
// fabric.
type Space struct {
	Arrays  int // widest array index used + 1
	BufCols int // widest column index used + 1 (the Accesses bufCols bound)
	Rows    int // widest row index used + 1
}

// ResourceSpace scans the program once and returns its dense ID space.
func (p Program) ResourceSpace() Space {
	s := Space{}
	for i := range p {
		in := &p[i]
		if in.Array+1 > s.Arrays {
			s.Arrays = in.Array + 1
		}
		if in.HasSrcArray && in.SrcArray+1 > s.Arrays {
			s.Arrays = in.SrcArray + 1
		}
		for _, c := range in.Cols {
			if c+1 > s.BufCols {
				s.BufCols = c + 1
			}
		}
		for _, r := range in.Rows {
			if r+1 > s.Rows {
				s.Rows = r + 1
			}
		}
	}
	return s
}

// Clamp bounds the space to a fabric geometry of the given arrays, columns
// and rows. Consumers that size state from a program-derived space
// (sim.Predecode, the static verifier) clamp first so a hostile coordinate
// cannot inflate allocations; the out-of-bounds coordinate itself still
// fails their bounds checks with the machines' exact error.
func (s Space) Clamp(arrays, cols, rows int) Space {
	if s.Arrays > arrays {
		s.Arrays = arrays
	}
	if s.BufCols > cols {
		s.BufCols = cols
	}
	if s.Rows > rows {
		s.Rows = rows
	}
	return s
}

// Size returns the number of distinct resource IDs: one per row-buffer bit
// plus one per cell.
func (s Space) Size() int { return s.Arrays * s.BufCols * (1 + s.Rows) }

// BufID returns the dense ID of a row-buffer bit.
func (s Space) BufID(array, col int) int32 {
	return int32(array*s.BufCols + col)
}

// CellID returns the dense ID of a cell.
func (s Space) CellID(array, col, row int) int32 {
	return int32(s.Arrays*s.BufCols + (array*s.BufCols+col)*s.Rows + row)
}

// ID interns one Resource into the space (the slow, generic path; hot
// loops use AppendAccessIDs instead).
func (s Space) ID(r Resource) int32 {
	if r.Kind == ResBuf {
		return s.BufID(r.Array, r.Col)
	}
	return s.CellID(r.Array, r.Col, r.Row)
}

// AppendAccessIDs appends the dense IDs of the instruction's read and
// written resources to the caller's buffers, mirroring AppendAccesses. The
// instruction must lie inside the space (true by construction when the
// space came from ResourceSpace on the same program).
func (in Instruction) AppendAccessIDs(s Space, reads, writes []int32) ([]int32, []int32) {
	switch in.Kind {
	case KindRead:
		for _, c := range in.Cols {
			for _, r := range in.Rows {
				reads = append(reads, s.CellID(in.Array, c, r))
			}
			writes = append(writes, s.BufID(in.Array, c))
		}
	case KindWrite:
		src := in.Source()
		host := in.IsHostWrite()
		for _, c := range in.Cols {
			if !host {
				reads = append(reads, s.BufID(src, c))
			}
			writes = append(writes, s.CellID(in.Array, c, in.Rows[0]))
		}
	case KindShift:
		for c := 0; c < s.BufCols; c++ {
			id := s.BufID(in.Array, c)
			reads = append(reads, id)
			writes = append(writes, id)
		}
	case KindNot:
		for _, c := range in.Cols {
			id := s.BufID(in.Array, c)
			reads = append(reads, id)
			writes = append(writes, id)
		}
	}
	return reads, writes
}

// MaxCol returns the widest column index used by the program plus one (the
// bufCols bound for Accesses).
func (p Program) MaxCol() int {
	max := 0
	for _, in := range p {
		for _, c := range in.Cols {
			if c+1 > max {
				max = c + 1
			}
		}
	}
	return max
}
