package memo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoSingleflight hammers one Memo from 64 goroutines over 8
// overlapping keys and asserts every key was built exactly once while all
// requesters observed the same value.
func TestMemoSingleflight(t *testing.T) {
	m := New[int, string](Config[string]{})
	var builds [8]atomic.Int64
	const goroutines = 64
	const rounds = 50

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := (g + i) % len(builds)
				v, err := m.Do(key, func() (string, error) {
					builds[key].Add(1)
					return fmt.Sprintf("value-%d", key), nil
				})
				if err != nil {
					errs <- err
					return
				}
				if want := fmt.Sprintf("value-%d", key); v != want {
					errs <- fmt.Errorf("key %d: got %q, want %q", key, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want exactly 1", k, n)
		}
	}
	st := m.Stats()
	if st.Misses != int64(len(builds)) {
		t.Errorf("misses = %d, want %d", st.Misses, len(builds))
	}
	if st.Hits+st.Coalesced != goroutines*rounds-int64(len(builds)) {
		t.Errorf("hits(%d)+coalesced(%d) != %d", st.Hits, st.Coalesced, goroutines*rounds-len(builds))
	}
	if st.Entries != int64(len(builds)) || st.Inflight != 0 {
		t.Errorf("entries=%d inflight=%d, want %d and 0", st.Entries, st.Inflight, len(builds))
	}
}

func TestMemoCachesErrors(t *testing.T) {
	m := New[string, int](Config[int]{})
	boom := errors.New("boom")
	var builds int
	for i := 0; i < 3; i++ {
		_, err := m.Do("bad", func() (int, error) { builds++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err = %v, want %v", i, err, boom)
		}
	}
	if builds != 1 {
		t.Fatalf("failing build ran %d times, want 1 (errors are content-addressed too)", builds)
	}
}

func TestMemoLRUEntries(t *testing.T) {
	m := New[int, int](Config[int]{MaxEntries: 2})
	for k := 0; k < 3; k++ {
		if _, err := m.Do(k, func() (int, error) { return k * 10, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Key 0 is the LRU victim; keys 1 and 2 remain.
	if _, ok := m.Lookup(0); ok {
		t.Error("key 0 should have been evicted")
	}
	for _, k := range []int{1, 2} {
		if v, ok := m.Lookup(k); !ok || v != k*10 {
			t.Errorf("key %d: got (%d,%v), want (%d,true)", k, v, ok, k*10)
		}
	}
	st := m.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("evictions=%d entries=%d, want 1 and 2", st.Evictions, st.Entries)
	}
	// A rebuilt evicted key runs the build again.
	var rebuilt bool
	if _, err := m.Do(0, func() (int, error) { rebuilt = true; return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Error("evicted key did not rebuild")
	}
}

func TestMemoLRUBytes(t *testing.T) {
	m := New[int, []byte](Config[[]byte]{
		MaxBytes: 100,
		SizeOf:   func(b []byte) int64 { return int64(len(b)) },
	})
	for k := 0; k < 4; k++ {
		m.Do(k, func() ([]byte, error) { return make([]byte, 40), nil })
	}
	st := m.Stats()
	if st.Bytes > 100 {
		t.Errorf("bytes = %d, want <= 100", st.Bytes)
	}
	if st.Entries != 2 || st.Evictions != 2 {
		t.Errorf("entries=%d evictions=%d, want 2 and 2", st.Entries, st.Evictions)
	}
	// One oversized value still caches (never evict down to empty).
	m2 := New[int, []byte](Config[[]byte]{
		MaxBytes: 10,
		SizeOf:   func(b []byte) int64 { return int64(len(b)) },
	})
	m2.Do(0, func() ([]byte, error) { return make([]byte, 50), nil })
	if _, ok := m2.Lookup(0); !ok {
		t.Error("single oversized entry must be retained")
	}
}

// TestMemoRecencyOrder pins that touching an entry protects it from
// eviction: with capacity 2, touching key 0 before inserting key 2 makes
// key 1 the victim.
func TestMemoRecencyOrder(t *testing.T) {
	m := New[int, int](Config[int]{MaxEntries: 2})
	m.Do(0, func() (int, error) { return 0, nil })
	m.Do(1, func() (int, error) { return 1, nil })
	m.Do(0, func() (int, error) { t.Error("key 0 rebuilt"); return 0, nil }) // touch
	m.Do(2, func() (int, error) { return 2, nil })
	if _, ok := m.Lookup(1); ok {
		t.Error("key 1 should have been the LRU victim")
	}
	if _, ok := m.Lookup(0); !ok {
		t.Error("recently touched key 0 was evicted")
	}
}

func TestMemoForget(t *testing.T) {
	m := New[int, int](Config[int]{})
	m.Do(7, func() (int, error) { return 7, nil })
	if !m.Forget(7) {
		t.Fatal("Forget(7) = false, want true")
	}
	if m.Forget(7) {
		t.Fatal("second Forget(7) = true, want false")
	}
	var rebuilt bool
	m.Do(7, func() (int, error) { rebuilt = true; return 7, nil })
	if !rebuilt {
		t.Error("forgotten key did not rebuild")
	}
}

// TestMemoReentrantDo pins that a build may call Do for a different key
// (the experiments.Runner builds transformed graphs from memoized base
// graphs this way).
func TestMemoReentrantDo(t *testing.T) {
	m := New[int, int](Config[int]{})
	v, err := m.Do(1, func() (int, error) {
		base, err := m.Do(0, func() (int, error) { return 40, nil })
		return base + 2, err
	})
	if err != nil || v != 42 {
		t.Fatalf("got (%d,%v), want (42,nil)", v, err)
	}
}

// TestMemoPanicRebuilds pins what a panicking build leaves behind: the
// panic reaches the goroutine that ran the build, a requester blocked on
// that build gets an error instead of a zero value, the key is not cached,
// Inflight returns to zero, and the next request builds afresh.
func TestMemoPanicRebuilds(t *testing.T) {
	m := New[string, *int](Config[*int]{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		m.Do("k", func() (*int, error) {
			<-release
			panic("boom")
		})
	}()
	// Queue a second requester on the in-flight build before it panics.
	waiter := make(chan error, 1)
	for m.Stats().Inflight == 0 {
		runtime.Gosched()
	}
	go func() {
		v, err := m.Do("k", func() (*int, error) { t.Error("waiter ran its own build"); return nil, nil })
		if v != nil {
			err = fmt.Errorf("waiter got value %v", v)
		}
		waiter <- err
	}()
	for m.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("builder recovered %v, want the build's panic", r)
	}
	if err := <-waiter; err == nil {
		t.Fatal("requester sharing a panicked build got (nil, nil)")
	}
	if _, ok := m.Lookup("k"); ok {
		t.Fatal("panicked build left a cached entry")
	}
	if st := m.Stats(); st.Inflight != 0 || st.Entries != 0 {
		t.Fatalf("after panic: inflight=%d entries=%d, want 0 and 0", st.Inflight, st.Entries)
	}
	want := 7
	v, err := m.Do("k", func() (*int, error) { return &want, nil })
	if err != nil || v == nil || *v != 7 {
		t.Fatalf("rebuild after panic = (%v, %v), want (&7, nil)", v, err)
	}
}
