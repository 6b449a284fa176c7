//go:build go1.24

package serve

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestServiceEvictionFreesKernel: once the registry evicts a kernel that
// served CIM requests — merged, direct and streamed — nothing the service
// holds keeps its compiled program alive, and the service-wide counters
// still include the evicted kernel's traffic.
func TestServiceEvictionFreesKernel(t *testing.T) {
	s := NewService(Config{
		Window:   time.Millisecond,
		Backend:  BackendCIM,
		Registry: RegistryConfig{MaxPrograms: 1},
	})
	a, err := s.CompileC(kMux, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for _, lanes := range []int{32, 300, directChunkLanes(t, a) + 1} {
		in, _ := packWords(a.InputNames, randBatch(rng, a.InputNames, lanes))
		if _, _, err := s.RunWords(a, in, lanes, nil, BackendCIM); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.Coalesce.Flushes != 1 || before.Coalesce.DirectRuns != 2 || before.Coalesce.StreamRuns != 2 {
		t.Fatalf("traffic before eviction: %+v, want 1 flush, 2 direct runs, both streamed", before.Coalesce)
	}
	compiled := weak.Make(a.Compiled)
	a = nil
	if _, err := s.CompileC(kParity, testOptions()); err != nil {
		t.Fatal(err)
	}
	if st := s.Registry().Stats(); st.Evictions != 1 {
		t.Fatalf("registry evictions = %d, want 1", st.Evictions)
	}
	runtime.GC()
	if compiled.Value() != nil {
		t.Fatal("evicted kernel's Compiled is still reachable after GC")
	}
	after := s.Stats()
	if after.Coalesce != before.Coalesce || after.Queues != 1 {
		t.Fatalf("stats after eviction: %+v (queues %d), want %+v (queues 1)",
			after.Coalesce, after.Queues, before.Coalesce)
	}
}
