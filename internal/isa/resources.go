package isa

// Resource-level dependence metadata: which cells and row-buffer bits an
// instruction reads and writes, as dense IDs. The instruction merger and
// the parallel timing model both build their hazard analysis on these sets.

// Space is the dense resource-ID universe of one program: every cell and
// row-buffer bit the program can touch maps to one int32 in [0, Size()).
// Hazard state (last writer, last readers) then lives in flat arrays
// indexed by ID instead of hash tables keyed by coordinates. The bounds
// come from the program itself (widest array/column/row index in use), so
// the space tracks the compact region the mapper actually filled, not the
// full fabric.
type Space struct {
	Arrays  int // widest array index used + 1
	BufCols int // widest column index used + 1 (the span a shift touches)
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

// AppendAccessIDs appends the dense IDs of the instruction's read and
// written resources to the caller's buffers and returns the extended
// slices. A read reads its cells and writes its columns' buffer bits; a
// write reads its source buffer bits (none for a host write) and writes
// its cells; a NOT reads and writes its columns' buffer bits; a shift
// conservatively reads and writes every buffer bit of its array up to
// s.BufCols. The instruction must lie inside the space (true by
// construction when the space came from ResourceSpace on the same
// program). Hazard analysis calls this once per instruction with recycled
// buffers, so the steady state allocates nothing.
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
