package aes

import (
	"runtime"
	"testing"
)

// retainedHeapCeiling bounds the heap a Table 2 AES-128 graph retains once
// its consumer lists and b-levels are built, as a compiled kernel holds
// it. The 69,824 node records, the edge arena, the explicit names and the
// derived cache measure 3.52 MB (Go 1.24, amd64).
const retainedHeapCeiling = 9 << 19 // 4.5 MB

// heapAfterGC returns HeapAlloc once repeated collections have settled.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestGraphRetainedHeap measures what the Table 2 AES graph keeps alive:
// HeapAlloc after runtime.GC() with the graph reachable, less the same
// reading taken before it was built.
func TestGraphRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full-size AES graph")
	}
	base := heapAfterGC()
	g, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	built := heapAfterGC()
	g.CriticalPathLength() // builds the consumer lists and b-levels
	withDerived := heapAfterGC()
	runtime.KeepAlive(g)
	t.Logf("%d nodes: %.2f MB built, %.2f MB with consumer lists and b-levels",
		g.NumNodes(), float64(built-base)/(1<<20), float64(withDerived-base)/(1<<20))
	if withDerived-base > retainedHeapCeiling {
		t.Errorf("graph retains %d bytes, ceiling %d", withDerived-base, retainedHeapCeiling)
	}
}
