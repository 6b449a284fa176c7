package isa

import (
	"slices"
	"testing"

	"sherlock/internal/logic"
)

// testSpace is wide enough for every instruction the access tests build.
var testSpace = Space{Arrays: 5, BufCols: 64, Rows: 128}

func accessIDs(in Instruction, s Space) (reads, writes []int32) {
	return in.AppendAccessIDs(s, nil, nil)
}

func TestAccessesCIMRead(t *testing.T) {
	in := Instruction{Kind: KindRead, Array: 1, Cols: []int{2, 5}, Rows: []int{3, 7},
		Ops: []logic.Op{logic.And, logic.Xor}}
	reads, writes := accessIDs(in, testSpace)
	if len(reads) != 4 {
		t.Fatalf("reads = %d, want 4 (2 cols x 2 rows)", len(reads))
	}
	for _, c := range []int{2, 5} {
		for _, r := range []int{3, 7} {
			if !slices.Contains(reads, testSpace.CellID(1, c, r)) {
				t.Errorf("missing cell read (%d,%d)", c, r)
			}
		}
		if !slices.Contains(writes, testSpace.BufID(1, c)) {
			t.Errorf("missing buffer write col %d", c)
		}
	}
	if len(writes) != 2 {
		t.Errorf("writes = %d, want 2", len(writes))
	}
}

func TestAccessesWriteVariants(t *testing.T) {
	s := testSpace
	// Local write-back reads its own buffer.
	wb := Instruction{Kind: KindWrite, Array: 0, Cols: []int{4}, Rows: []int{9}}
	r, w := accessIDs(wb, s)
	if !slices.Equal(r, []int32{s.BufID(0, 4)}) || !slices.Equal(w, []int32{s.CellID(0, 4, 9)}) {
		t.Error("write-back access sets wrong")
	}
	// Host write reads nothing.
	hw := Instruction{Kind: KindWrite, Array: 0, Cols: []int{4}, Rows: []int{9}, Bindings: []string{"x"}}
	r, w = accessIDs(hw, s)
	if len(r) != 0 || !slices.Equal(w, []int32{s.CellID(0, 4, 9)}) {
		t.Error("host write access sets wrong")
	}
	// Cross-array write reads the source array's buffer.
	xw := Instruction{Kind: KindWrite, Array: 2, Cols: []int{4}, Rows: []int{9}, HasSrcArray: true, SrcArray: 0}
	r, w = accessIDs(xw, s)
	if !slices.Equal(r, []int32{s.BufID(0, 4)}) || !slices.Equal(w, []int32{s.CellID(2, 4, 9)}) {
		t.Error("cross-array write access sets wrong")
	}
}

func TestAccessesShiftTouchesWholeBuffer(t *testing.T) {
	s := Space{Arrays: 2, BufCols: 5, Rows: 4}
	sh := Instruction{Kind: KindShift, Array: 1, Right: true, ShiftBy: 2}
	r, w := accessIDs(sh, s)
	if len(r) != 5 || len(w) != 5 {
		t.Fatalf("shift touches %d/%d bits, want 5/5", len(r), len(w))
	}
	for c := 0; c < 5; c++ {
		if !slices.Contains(r, s.BufID(1, c)) || !slices.Contains(w, s.BufID(1, c)) {
			t.Errorf("shift misses buffer col %d", c)
		}
	}
}

func TestAccessesNot(t *testing.T) {
	n := Instruction{Kind: KindNot, Array: 0, Cols: []int{1, 3}}
	r, w := accessIDs(n, testSpace)
	if len(r) != 2 || len(w) != 2 {
		t.Fatal("NOT should read and write exactly its columns")
	}
	if !slices.Contains(r, testSpace.BufID(0, 3)) || !slices.Contains(w, testSpace.BufID(0, 1)) {
		t.Error("NOT access sets wrong")
	}
}

// TestAccessIDsAppendAndDistinct checks that AppendAccessIDs extends the
// caller's buffers in place and that buffer and cell IDs are distinct and
// inside [0, Size()).
func TestAccessIDsAppendAndDistinct(t *testing.T) {
	p := Program{
		{Kind: KindRead, Array: 1, Cols: []int{0, 2}, Rows: []int{0, 3}},
		{Kind: KindWrite, Array: 0, Cols: []int{2}, Rows: []int{1}, HasSrcArray: true, SrcArray: 1},
	}
	s := p.ResourceSpace()
	if s != (Space{Arrays: 2, BufCols: 3, Rows: 4}) {
		t.Fatalf("ResourceSpace = %+v", s)
	}
	seen := map[int32]bool{}
	for a := 0; a < s.Arrays; a++ {
		for c := 0; c < s.BufCols; c++ {
			ids := []int32{s.BufID(a, c)}
			for r := 0; r < s.Rows; r++ {
				ids = append(ids, s.CellID(a, c, r))
			}
			for _, id := range ids {
				if id < 0 || int(id) >= s.Size() || seen[id] {
					t.Fatalf("ID %d out of range or reused (size %d)", id, s.Size())
				}
				seen[id] = true
			}
		}
	}
	reads, writes := make([]int32, 1, 8), make([]int32, 1, 8)
	reads[0], writes[0] = -1, -1
	for _, in := range p {
		reads, writes = in.AppendAccessIDs(s, reads, writes)
	}
	wantR := []int32{-1, s.CellID(1, 0, 0), s.CellID(1, 0, 3), s.CellID(1, 2, 0), s.CellID(1, 2, 3), s.BufID(1, 2)}
	wantW := []int32{-1, s.BufID(1, 0), s.BufID(1, 2), s.CellID(0, 2, 1)}
	if !slices.Equal(reads, wantR) || !slices.Equal(writes, wantW) {
		t.Errorf("appended reads %v writes %v, want %v %v", reads, writes, wantR, wantW)
	}
}
