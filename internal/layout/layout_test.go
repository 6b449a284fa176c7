package layout

import (
	"testing"

	"sherlock/internal/dfg"
)

func target() Target { return Target{Arrays: 2, Rows: 4, Cols: 3} }

// nodes is the NodeID bound every test layout is sized for.
const nodes = 100

// cellsUsed counts the occupied cells of the columns in use.
func cellsUsed(l *Layout) int {
	n := 0
	for _, c := range l.ColumnsUsed() {
		n += target().Rows - l.FreeRows(c)
	}
	return n
}

func TestTargetValidate(t *testing.T) {
	if err := target().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Target{{0, 4, 4}, {1, 1, 4}, {1, 4, 0}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
	if got := target().Cells(); got != 24 {
		t.Errorf("Cells = %d, want 24", got)
	}
}

func TestAllocSequentialRows(t *testing.T) {
	l := New(target(), nodes)
	c := ColumnRef{Array: 0, Col: 1}
	for i := 0; i < 4; i++ {
		p, err := l.Alloc(dfg.NodeID(i), c)
		if err != nil {
			t.Fatal(err)
		}
		if p.Row != i || p.Col != 1 || p.Array != 0 {
			t.Errorf("alloc %d at %v", i, p)
		}
	}
	if _, err := l.Alloc(dfg.NodeID(9), c); err == nil {
		t.Error("overfull column accepted")
	}
	if l.FreeRows(c) != 0 {
		t.Errorf("FreeRows = %d, want 0", l.FreeRows(c))
	}
}

func TestAllocRejectsBadColumn(t *testing.T) {
	l := New(target(), nodes)
	for _, c := range []ColumnRef{{Array: 2, Col: 0}, {Array: 0, Col: 3}, {Array: -1, Col: 0}} {
		if _, err := l.Alloc(1, c); err == nil {
			t.Errorf("accepted column %v", c)
		}
		if l.FreeRows(c) != 0 {
			t.Errorf("FreeRows(%v) nonzero for invalid column", c)
		}
	}
}

func TestHomeAndDuplicates(t *testing.T) {
	l := New(target(), nodes)
	n := dfg.NodeID(7)
	p1, _ := l.Alloc(n, ColumnRef{0, 0})
	p2, _ := l.Alloc(n, ColumnRef{0, 2})
	home, ok := l.Home(n)
	if !ok || home != p1 {
		t.Errorf("home = %v, want %v", home, p1)
	}
	if got := cellsUsed(l); got != 2 {
		t.Errorf("cells used = %d, want 2 (home plus one copy)", got)
	}
	if got, ok := l.InColumn(n, ColumnRef{0, 2}); !ok || got != p2 {
		t.Errorf("InColumn = %v %v", got, ok)
	}
	if _, ok := l.InColumn(n, ColumnRef{1, 0}); ok {
		t.Error("InColumn found ghost placement")
	}
	if got, ok := l.InColumn(n, ColumnRef{0, 0}); !ok || got != p1 {
		t.Errorf("InColumn(home column) = %v %v", got, ok)
	}
	// Release frees the home and the copy.
	l.Release(n)
	if _, ok := l.Home(n); ok {
		t.Error("released operand still has a home")
	}
	if _, ok := l.InColumn(n, ColumnRef{0, 2}); ok {
		t.Error("released operand still has its copy")
	}
	if l.FreeRows(ColumnRef{0, 0}) != 4 || l.FreeRows(ColumnRef{0, 2}) != 4 {
		t.Error("release did not free both cells")
	}
}

func TestColumnsUsedSortedAndUtilization(t *testing.T) {
	l := New(target(), nodes)
	l.Alloc(1, ColumnRef{1, 2})
	l.Alloc(2, ColumnRef{0, 1})
	l.Alloc(3, ColumnRef{0, 1})
	cols := l.ColumnsUsed()
	if len(cols) != 2 || cols[0] != (ColumnRef{0, 1}) || cols[1] != (ColumnRef{1, 2}) {
		t.Errorf("ColumnsUsed = %v", cols)
	}
	// 3 cells over 2 columns x 4 rows.
	if got := float64(cellsUsed(l)) / float64(len(cols)*target().Rows); got != 3.0/8.0 {
		t.Errorf("utilization = %g, want 0.375", got)
	}
	if _, ok := l.Home(1); !ok {
		t.Error("operand 1 not placed")
	}
	if _, ok := l.Home(99); ok {
		t.Error("operand 99 placed")
	}
}

func TestEmptyLayoutQueries(t *testing.T) {
	l := New(target(), nodes)
	if _, ok := l.Home(5); ok {
		t.Error("Home on empty layout")
	}
	if cellsUsed(l) != 0 {
		t.Error("cells used on empty layout")
	}
	if _, ok := l.InColumn(5, ColumnRef{0, 0}); ok {
		t.Error("InColumn on empty layout")
	}
	if len(l.ColumnsUsed()) != 0 {
		t.Error("ColumnsUsed on empty layout")
	}
}

func TestReleaseAndRecycle(t *testing.T) {
	l := New(target(), nodes)
	c := ColumnRef{Array: 0, Col: 0}
	for i := 0; i < 4; i++ {
		if _, err := l.Alloc(dfg.NodeID(i), c); err != nil {
			t.Fatal(err)
		}
	}
	if l.FreeRows(c) != 0 {
		t.Fatal("column should be full")
	}
	l.Release(2)
	if l.FreeRows(c) != 1 {
		t.Fatalf("FreeRows = %d after release, want 1", l.FreeRows(c))
	}
	p, err := l.Alloc(9, c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Row != 2 {
		t.Errorf("recycled row = %d, want 2", p.Row)
	}
	if l.RecycledAllocs() != 1 {
		t.Errorf("RecycledAllocs = %d, want 1", l.RecycledAllocs())
	}
	if _, ok := l.Home(2); ok {
		t.Error("released operand still has a home")
	}
	if got, ok := l.InColumn(9, c); !ok || got != p {
		t.Errorf("recycled operand in column = %v %v, want %v", got, ok, p)
	}
	l.Release(2) // already released: no-op
	if l.FreeRows(c) != 0 {
		t.Errorf("FreeRows = %d after double release, want 0", l.FreeRows(c))
	}
}

func TestAllocRejectsNodeOutsideLayout(t *testing.T) {
	l := New(target(), 3)
	c := ColumnRef{Array: 0, Col: 0}
	for _, n := range []dfg.NodeID{3, -1} {
		if _, err := l.Alloc(n, c); err == nil {
			t.Errorf("Alloc accepted operand %d outside a 3-node layout", n)
		}
		if _, ok := l.Home(n); ok {
			t.Errorf("Home found operand %d outside the layout", n)
		}
		l.Release(n) // no-op
	}
	if l.FreeRows(c) != 4 {
		t.Errorf("rejected allocations used rows: FreeRows = %d", l.FreeRows(c))
	}
}

func TestWearLevelingPolicy(t *testing.T) {
	// LIFO (default): freed rows are reused immediately.
	l := New(target(), nodes)
	c := ColumnRef{Array: 0, Col: 0}
	l.Alloc(1, c)
	l.Release(1)
	p, _ := l.Alloc(2, c)
	if p.Row != 0 {
		t.Errorf("default policy should reuse row 0, got %d", p.Row)
	}

	// Wear leveling: fresh rows first, freed rows FIFO afterwards.
	lw := New(target(), nodes)
	lw.WearLeveling = true
	lw.Alloc(1, c) // row 0
	lw.Release(1)
	p1, _ := lw.Alloc(2, c) // must take fresh row 1, not recycled row 0
	if p1.Row != 1 {
		t.Fatalf("wear leveling should prefer fresh rows, got %d", p1.Row)
	}
	lw.Alloc(3, c) // row 2
	lw.Alloc(4, c) // row 3 — bump exhausted
	lw.Release(2)  // frees row 1 (after row 0 already in pool)
	pa, _ := lw.Alloc(5, c)
	pb, _ := lw.Alloc(6, c)
	if pa.Row != 0 || pb.Row != 1 {
		t.Errorf("FIFO rotation wrong: got rows %d,%d want 0,1", pa.Row, pb.Row)
	}
}
